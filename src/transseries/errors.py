"""Exception hierarchy for the kernel.

Every failure mode the engine can certify gets its own class so callers
(and the CLI exit-code mapping) can tell refusals, resource exhaustion,
and genuine domain errors apart.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all kernel errors."""


class PreconditionError(KernelError):
    """A documented operation precondition was not met."""


class DomainError(KernelError):
    """Value outside the mathematical domain of the operation."""


class DivisionByZeroSeries(DomainError):
    """Inversion of the zero series."""


class PartialConstantError(DomainError):
    """exp/log/power of a constant is not an exact rational.

    Constants are exact rationals, so only exp(0)=1, log(1)=0 and perfect
    rational powers are known; anything else must be rejected rather than
    approximated.
    """


class ResourceError(KernelError):
    """A bound was hit: a `Limits` bound (height, log depth), a constant cap
    (the Faà di Bruno order, the fuel budgets below), or Python's recursion
    or integer-digit limit."""


class BudgetExceededError(ResourceError):
    """A fuel budget ran out before the computation could be decided.

    This is the honest answer for semi-decidable questions (leading term
    of a lazily cancelling series, expansions past the grid's reach).
    """


class SummabilityViolationError(KernelError):
    """An enumerated monomial escaped its declared grid certificate."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class EvaluationRefusedError(KernelError):
    """Evaluation refused because convergence was not certified."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseError(KernelError):
    """Syntax error in an input expression, with source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position
