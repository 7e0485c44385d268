"""Tunable structural bounds and fuel budgets.

Each limit only decides when the engine refuses: lowering one can turn an
answer into an honest resource error or an `inconclusive` verdict, never
into another answer.  The thresholds that verdicts are decided by are
constants beside their readers, not limits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Limits:
    # structural bounds
    height_bound: int = 4          # max exponential height of a monomial
    log_depth_bound: int = 4       # max iterated-log atom index

    # verdict search
    support_prefix: int = 20       # support monomials scanned for witnesses

    # fuel budgets
    expand_fuel: int = 200_000     # lattice points one grid walk moves past
    term_fuel: int = 512           # candidate monomials walked per term search
    level_fuel: int = 4_096        # level-bound iterations in lazy sums


LIMITS = Limits()


def configure(**kwargs) -> dict:
    """Set fields of the active limits in place, so that every module that
    imported LIMITS sees them; returns the previous values of all fields,
    which `configure(**previous)` restores."""
    previous = dict(vars(LIMITS))
    for name in kwargs:
        if name not in previous:
            raise TypeError(f"unknown limit {name!r}")
    for name, value in kwargs.items():
        setattr(LIMITS, name, value)
    return previous
