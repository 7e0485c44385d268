"""The structural bounds a caller can set for one query.

Each limit only decides when the engine refuses: lowering one can turn an
answer into an honest resource error or an `inconclusive` verdict, never
into another answer.  The fuel budgets that stop the semi-decision
procedures, and the thresholds that verdicts are decided by, are
constants beside their readers, not limits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Limits:
    height_bound: int = 4          # max exponential height of a monomial
    log_depth_bound: int = 4       # max iterated-log atom index


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
