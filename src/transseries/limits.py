"""Tunable structural bounds, fuel budgets and the constant field.

The bounds and budgets never change a computed value. They only decide how
far semi-decidable searches are pushed before the engine raises an honest
resource error, and where structural recursion is cut off. `backend` does
change values: it names the field the constants live in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError

BACKENDS = ("exact", "float")


@dataclass
class Limits:
    # structural bounds
    height_bound: int = 4          # max exponential height of a monomial
    log_depth_bound: int = 4       # max iterated-log atom index
    faa_order_bound: int = 6       # highest Faà di Bruno order

    # certificate / verdict parameters
    divergence_window: int = 5     # consecutive non-shrinking terms needed
    support_prefix: int = 20       # support monomials scanned for witnesses
    cut_prefix: int = 12           # degrees scanned by cut_member

    # fuel budgets
    expand_fuel: int = 200_000     # lattice points visited per grid expansion
    term_fuel: int = 512           # candidate monomials walked per term search
    level_fuel: int = 4_096        # level-bound iterations in lazy sums

    # constant field: "exact" rationals, or binary "float"s for demos
    backend: str = "exact"


LIMITS = Limits()


def configure(**kwargs) -> dict:
    """Set fields of the active limits in place, so that every module that
    imported LIMITS sees them; returns the previous values of all fields,
    which `configure(**previous)` restores."""
    previous = dict(vars(LIMITS))
    for name in kwargs:
        if name not in previous:
            raise TypeError(f"unknown limit {name!r}")
    if "backend" in kwargs and kwargs["backend"] not in BACKENDS:
        raise InvalidInputError(
            f"unknown backend {kwargs['backend']!r}; expected one of {BACKENDS}")
    for name, value in kwargs.items():
        setattr(LIMITS, name, value)
    return previous
