"""Taylor deformation of strongly linear operators and its theorems.

The deformation of an operator T at a displacement delta sends f to
sum_k T(f^(k))/k! * delta^k.  Its domain is certified monomial by
monomial: f is accepted when delta lies strictly below T(x) and
T(dagger(m)) * delta is infinitesimal across f's certificate generators.
Outside that locus the engine either certifies divergence with a support
witness (the sharpness remark made executable) or stays inconclusive.

The identity, log-commutation, and chain-rule checks compare both sides
of the corresponding theorems to a stated positional depth, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .calculus import (X_SERIES, CompositionHandle, compose, dagger,
                       dagger_support_closure, derive, log_series)
from .errors import (BudgetExceededError, DomainError, PartialConstantError,
                     PreconditionError)
from .monomial import (ONE, X, Monomial, dagger_terms, deriv_terms, mono_cmp,
                       mono_inv, mono_mul)
from .powerseries import (ConvReport, PowerSeries, PSJointCert,
                          lift_coefficientwise, _evaluate, _scaled_powers,
                          _taylor_coefficients)
from .series import (PROBE_FUEL, TransSeries, add, compare_to_depth,
                     from_terms, mul, _terms_to_depth)

X_INV = mono_inv(X)
# support monomials scanned for a witness of the dichotomy or of divergence
SUPPORT_PREFIX = 20


@dataclass
class LocusSpec:
    """An operator (IDENTITY or a CompositionHandle) together with the
    displacement to deform by."""

    op: object
    delta: TransSeries


def is_flat(m: Monomial) -> bool:
    """Flat means dagger(m) stays at or below x^{-1}."""
    lt = dagger(m).leading_term()
    return lt is None or mono_cmp(lt.mono, X_INV) <= 0


def spec_condition_check(m: Monomial) -> dict:
    """The derivative-support dichotomy at a single monomial.

    Flat monomials must have every derivative-support dagger at or below
    x^{-1}; non-flat ones must keep the dagger's archimedean class.  The
    first SUPPORT_PREFIX support monomials are checked.
    """
    if m is ONE:
        raise PreconditionError("the dichotomy concerns monomials != 1")
    flat = is_flat(m)
    dlt = dagger(m).leading_term()
    mprime = from_terms(deriv_terms(m))
    # a finite series' certificate bases are its nonzero support, decreasing
    supp = mprime.cert.bases[:SUPPORT_PREFIX]
    for n in supp:
        if flat:
            ok = is_flat(n)
        else:
            nlt = dagger(n).leading_term()
            ok = nlt is not None and nlt.mono is dlt.mono
        if not ok:
            return {"ok": False, "flat": flat, "witness": n,
                    "checked": len(supp)}
    return {"ok": True, "flat": flat, "witness": None, "checked": len(supp)}


def locus_contains(spec: LocusSpec, f: TransSeries) -> ConvReport:
    """Decide membership of f in the deformation domain.

    Convergent: delta below the operator image of x and every certificate
    generator's transformed dagger shrinks below 1 after multiplying by
    delta.  Divergent: a verified non-flat support monomial violating the
    bound.  Inconclusive otherwise.
    """
    prefix = SUPPORT_PREFIX
    op, delta = spec.op, spec.delta
    lt_d = delta.leading_term()
    if lt_d is None:
        return ConvReport("certified_convergent", (), 0,
                          "delta = 0: the deformation degenerates to the operator")
    dd = lt_d.mono
    dom_x = op.g.leading_term().mono
    delta_below_x = mono_cmp(dd, dom_x) < 0

    def scaled_dagger(m: Monomial) -> Optional[Monomial]:
        """The dominant monomial of op(dagger(m)) * delta, or None."""
        lt = op.apply(dagger(m)).leading_term()
        return None if lt is None else mono_mul(lt.mono, dd)

    gens = dict.fromkeys(f.cert.bases + f.cert.ratios)
    witnesses = []
    gens_ok = True
    for g in sorted(gens, key=lambda m: m.render()):
        check = scaled_dagger(g) if dagger_terms(g) else None
        if check is None:
            continue
        ok = check.is_small()
        witnesses.append((g, check, ok))
        gens_ok = gens_ok and ok
    if delta_below_x and gens_ok:
        return ConvReport("certified_convergent", tuple(witnesses), prefix,
                          "generator daggers shrink below 1 under the operator")

    # look for a sharpness witness in the first `prefix` grid positions of
    # the support, those strictly above the next one unless the grid ends
    try:
        supp = list(_terms_to_depth(f, prefix)[0])
    except BudgetExceededError:
        supp = []
    for m in supp:
        if m is ONE or is_flat(m):
            continue
        if not delta_below_x:
            return ConvReport(
                "certified_divergent", ((m, dd),), prefix,
                f"delta is not below the operator image of x and {m.render()} "
                "is not flat")
        check = scaled_dagger(m)
        if check is not None and not check.is_small():
            return ConvReport(
                "certified_divergent", ((m, check),), prefix,
                f"support monomial {m.render()} has a non-shrinking "
                "transformed dagger")
    return ConvReport("inconclusive", tuple(witnesses), prefix,
                      "generator check failed but no support witness was found")


def taylor_series(f: TransSeries, spec: LocusSpec) -> PowerSeries:
    """The Taylor morphism f -> sum f^(k)/k! X^k with its joint certificate,
    for f in the certified locus of spec."""
    rep = locus_contains(spec, f)
    if not rep.convergent:
        raise PreconditionError(
            f"Taylor series refused: locus is {rep.verdict} ({rep.detail})")
    return _taylor_morphism(f)


def _taylor_morphism(f: TransSeries) -> PowerSeries:
    """The Taylor morphism of f, unchecked.  Its per-degree factor alphabet is
    the dagger-support closure of f's certificate generators: the k-th
    derivative multiplies the support by exactly k such factors."""
    factors = dagger_support_closure(f.cert.bases + f.cert.ratios)
    joint = PSJointCert(f.cert, factors)
    # no dagger factors means f is a constant: the series stops at X^0
    fin = 0 if not factors else None
    return PowerSeries(_taylor_coefficients(f, derive, lambda s: s),
                       joint=joint, finite_degree=fin)


def taylor_deform(f: TransSeries, spec: LocusSpec) -> TransSeries:
    """T_delta of the operator applied to f, as the three-step pipeline:
    Taylor morphism, coefficientwise operator image, evaluation at delta;
    the descent of the first three terms is checked."""
    return _deform(f, spec, locus_contains(spec, f))


def _deform(f: TransSeries, spec: LocusSpec, rep: ConvReport) -> TransSeries:
    """taylor_deform with the locus of f already decided as `rep`."""
    if not rep.convergent:
        raise PreconditionError(
            f"Taylor deformation refused: locus is {rep.verdict} ({rep.detail})")
    if spec.delta.leading_term() is None:
        return spec.op.apply(f)
    lifted = lift_coefficientwise(spec.op, _taylor_morphism(f))
    out = _evaluate(lifted, spec.delta)
    _check_descent(lifted, spec.delta, orders=3)
    return out


def _check_descent(lifted: PowerSeries, delta: TransSeries, orders: int):
    # computed terms must satisfy T(f) > T(f') delta > T(f'') delta^2 ...
    prev = None
    for k, term in zip(range(orders), _scaled_powers(lifted, delta)):
        lt = term.leading_term(fuel=PROBE_FUEL)
        if lt is None:
            return
        if prev is not None and mono_cmp(lt.mono, prev) >= 0:
            raise DomainError(
                "descent chain violated: the certified locus should force "
                f"strictly falling terms, got {lt.mono.render()} at order {k}")
        prev = lt.mono


@dataclass
class IdentityReport:
    status: str                      # 'EQUAL' | 'UNEQUAL' | 'SKIPPED'
    detail: str = ""
    lhs: Optional[TransSeries] = None
    rhs: Optional[TransSeries] = None
    discrepancy: tuple = field(default_factory=tuple)
    conv_report: Optional[ConvReport] = None
    cutoff: Optional[Monomial] = None    # from compare_to_depth; None if SKIPPED


def _compare(lhs: TransSeries, rhs: TransSeries, depth: int,
             conv_report: Optional[ConvReport] = None) -> IdentityReport:
    """The EQUAL or UNEQUAL report of comparing lhs and rhs to depth, or
    SKIPPED at a depth that compares nothing."""
    if depth < 1:
        return IdentityReport("SKIPPED", f"depth {depth} compares no grid position",
                              conv_report=conv_report)
    equal, cutoff, bad = compare_to_depth(lhs, rhs, depth)
    if equal:
        return IdentityReport("EQUAL", f"agrees through depth {depth}",
                              lhs, rhs, conv_report=conv_report, cutoff=cutoff)
    t = bad[0]
    return IdentityReport("UNEQUAL",
                          f"first discrepancy {t.coeff} * {t.mono.render()}",
                          lhs, rhs, tuple(bad), conv_report, cutoff)


def taylor_identity_check(f: TransSeries, g: TransSeries, delta: TransSeries,
                          depth: int = 8) -> IdentityReport:
    """Does composing at g + delta equal the deformation of composition
    at g?  Skips (never fails) when the locus is not certified."""
    spec = LocusSpec(CompositionHandle(g), delta)
    rep = locus_contains(spec, f)
    if not rep.convergent:
        return IdentityReport("SKIPPED",
                              f"locus {rep.verdict}: {rep.detail}",
                              conv_report=rep)
    lhs = compose(f, add(g, delta))
    rhs = _deform(f, spec, rep)
    return _compare(lhs, rhs, depth, rep)


def analytic_commutation_check(f: TransSeries, spec: LocusSpec,
                               depth: int = 6) -> IdentityReport:
    """Deformation commutes with log on certified positive arguments."""
    lt = f.leading_term()
    if lt is None or not lt.coeff > 0:
        raise PreconditionError("log commutation needs a positive series")
    try:
        logf = log_series(f)
        lhs = taylor_deform(logf, spec)
        rhs = log_series(taylor_deform(f, spec))
    except (PartialConstantError, PreconditionError) as e:
        return IdentityReport("SKIPPED", str(e))
    return _compare(lhs, rhs, depth)


def chain_rule_transport_check(f: TransSeries, spec: LocusSpec,
                               depth: int = 6) -> IdentityReport:
    """d(T(f)) = d(T(x)) * T(f') on the certified locus."""
    try:
        lhs = derive(taylor_deform(f, spec))
        rhs = mul(derive(taylor_deform(X_SERIES, spec)),
                  taylor_deform(derive(f), spec))
    except (PartialConstantError, PreconditionError) as e:
        return IdentityReport("SKIPPED", str(e))
    return _compare(lhs, rhs, depth)
