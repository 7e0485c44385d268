"""Exact kernel for grid-based log-exp transseries.

Well-based series with finite grid certificates, a strongly linear
derivation, logarithm/exponential/composition, cut-indexed power-series
algebras, and the Taylor deformation operator with a decidable
convergence-locus predicate.
"""

from .errors import (BudgetExceededError, DivisionByZeroSeries, DomainError,
                     EvaluationRefusedError, KernelError, ParseError,
                     PartialConstantError, PreconditionError, ResourceError,
                     SummabilityViolationError)
from .limits import LIMITS, Limits, configure
from .monomial import (ONE, X, Monomial, atom, make_monomial, mono_cmp,
                       mono_inv, mono_mul, mono_pow, pre_log)
from .series import (ONE_SERIES, ZERO, GridCertificate, Term,
                     TransSeries, add, compare_to_depth, const,
                     dominant_decompose, extend_strongly_linear, from_terms,
                     geometric_substitute, invert, mono_series, mul,
                     render_series, scale, sum_family, sum_lazy)
from .calculus import (DERIVATION, IDENTITY, CompositionHandle, compose, dagger,
                       dagger_support_closure, derive, exp_series,
                       faa_di_bruno_coeff, log_series, pow_series)
from .powerseries import (ConvReport, CutSpec, CutVerdict, PowerSeries,
                          PSJointCert, conv_contains, cut_eval, cut_member,
                          lift_coefficientwise, monomial_geometric,
                          ps_compose, ps_derive, ps_eval, ps_translate,
                          pullback_cut)
from .taylor import (IdentityReport, LocusSpec,
                     analytic_commutation_check, chain_rule_transport_check,
                     is_flat, locus_contains, spec_condition_check,
                     taylor_deform, taylor_identity_check, taylor_series)
from .parser import Expr, elaborate, parse

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
