"""Formal power series over the transseries field, and the cut algebras.

A PowerSeries is a lazy coefficient sequence with a declared finite degree
or a joint certificate: a GridCertificate G and per-degree factors D, with
supp(P_k) inside G, with the small factors of D as extra ratios, times a
product of exactly k elements of D.  That is the constructive shape under
which the infinite sums of evaluation, translation, and coefficientwise
lifting carry finite grid certificates.

Cuts are boundary-presented final segments of the monomial group; the
negative-cone test decides the cut ordering on mixed monomials m*X^k, and
cut membership is a certificate-level geometric-descent test on per-degree
grid maxima.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

from .errors import (BudgetExceededError, EvaluationRefusedError,
                     PreconditionError, SummabilityViolationError)
from .limits import LIMITS
from .monomial import (ONE, Monomial, mono_cmp, mono_mul, mono_pow,
                       sort_monomials)
from .calculus import (DERIVATION, _composition_coeff, _derivation_grid,
                       _image_grid)
from .series import (PROBE_FUEL, ZERO, GridCertificate, TransSeries,
                     mono_series, mul, scale, sum_family, sum_lazy,
                     _infinitesimal_bases)


# -- joint certificates --------------------------------------------------------


@dataclass(frozen=True)
class PSJointCert:
    """supp(P_k) is inside the coefficient grid times a product of exactly
    k elements of `factors`; `grid` checks its ratios, the factors may be
    of any size."""

    grid: GridCertificate
    factors: frozenset

    def coefficient_grid(self) -> GridCertificate:
        """`grid` with the small factors as extra ratios."""
        return self.grid.union(
            GridCertificate.of((), (d for d in self.factors if d.is_small())))


class PowerSeries:
    """Lazy sequence of TransSeries coefficients."""

    def __init__(self, coeff_fn: Callable[[int], TransSeries], *,
                 finite_degree: Optional[int] = None,
                 joint: Optional[PSJointCert] = None):
        self._fn = coeff_fn
        self._memo: dict = {}
        self.finite_degree = finite_degree
        self.joint = joint

    def coeff(self, k: int) -> TransSeries:
        if k < 0:
            raise PreconditionError("negative coefficient index")
        if self.finite_degree is not None and k > self.finite_degree:
            return ZERO
        got = self._memo.get(k)
        if got is None:
            got = self._memo[k] = self._fn(k)
        return got

    @property
    def is_finite(self) -> bool:
        return self.finite_degree is not None

    def last_index(self, n: int) -> int:
        """The last index through n whose coefficient can be nonzero."""
        return n if self.finite_degree is None else min(n, self.finite_degree)


def monomial_geometric(m: Monomial) -> PowerSeries:
    """The series sum_k m^k X^k (the increasing-cuts separator family)."""
    return PowerSeries(lambda k: mono_series(mono_pow(m, k)),
                       joint=PSJointCert(GridCertificate.of([ONE]), frozenset([m])))


# -- elementary operations ------------------------------------------------------


def ps_derive(p: PowerSeries) -> PowerSeries:
    """P' = sum (k+1) P_{k+1} X^k; Conv(P') = Conv(P)."""
    fin = None
    if p.is_finite:
        fin = max(p.finite_degree - 1, 0)
    joint = None
    if p.joint:
        d = p.joint.factors
        joint = PSJointCert(p.joint.grid.product(GridCertificate.of(d)), d)
    return PowerSeries(lambda k: scale(p.coeff(k + 1), k + 1),
                       finite_degree=fin, joint=joint)


def ps_compose(p: PowerSeries, q: PowerSeries) -> PowerSeries:
    """P o Q with Q_0 = 0; coefficient k is the finite sum over ordered
    factorizations of k into positive parts."""
    q0 = q.coeff(0)
    try:
        if q0.leading_term(fuel=PROBE_FUEL) is not None:
            raise PreconditionError("ps_compose requires Q_0 = 0")
    except BudgetExceededError:
        raise PreconditionError(
            "ps_compose could not verify Q_0 = 0 within budget")

    def cf(k):
        if k == 0:
            return p.coeff(0)
        return _composition_coeff(p.coeff, q.coeff, k, p.last_index(k))

    fin = None
    if p.is_finite and q.is_finite:
        fin = p.finite_degree * max(q.finite_degree, 1)
    joint = None
    if p.joint and q.joint:
        extra_p = {d for d in p.joint.factors if not d.is_one}
        q_grid = q.joint.coefficient_grid()
        if all(d.is_small() for d in extra_p) and \
           all(mono_cmp(s, ONE) <= 0 for s in q_grid.bases):
            extra = extra_p | {s for s in q_grid.bases if s.is_small()}
            joint = PSJointCert(
                p.joint.grid.union(GridCertificate.of((), q_grid.ratios | extra)),
                q.joint.factors)
    return PowerSeries(cf, finite_degree=fin, joint=joint)


def _taylor_coefficients(x, d: Callable, at: Callable) -> Callable[[int], TransSeries]:
    """k -> at(d^k(x)) / k!, the Taylor coefficients of x under the
    derivation d read through `at`; each iterate d^k(x) is built once."""
    iterates = [x]

    def cf(k):
        while len(iterates) <= k:
            iterates.append(d(iterates[-1]))
        return scale(at(iterates[k]), Fraction(1, factorial(k)))

    return cf


# -- cuts -----------------------------------------------------------------------


@dataclass(frozen=True)
class CutSpec:
    """A boundary-presented final segment of the monomial group."""

    variant: str                      # 'all' | 'empty' | 'above' | 'above_eq'
    boundary: Optional[Monomial] = None

    @staticmethod
    def all() -> "CutSpec":
        return CutSpec("all")

    @staticmethod
    def empty() -> "CutSpec":
        return CutSpec("empty")

    @staticmethod
    def above(b: Monomial) -> "CutSpec":
        return CutSpec("above", b)

    @staticmethod
    def above_eq(b: Monomial) -> "CutSpec":
        return CutSpec("above_eq", b)

    def describe(self) -> str:
        if self.variant == "all":
            return "all monomials"
        if self.variant == "empty":
            return "empty segment"
        rel = ">" if self.variant == "above" else ">="
        return f"monomials {rel} {self.boundary.render()}"


def _in_negative_cone(w: Monomial, j: int, s: CutSpec) -> bool:
    # w*X^j < 1 in the cut ordering, for j >= 1 and s a cut above a
    # boundary: it needs a segment witness u with w <= u^{-j}, decided at
    # the boundary.
    c = mono_cmp(w, mono_pow(s.boundary, -j))
    return c < 0 if s.variant == "above" else c <= 0


@dataclass(frozen=True)
class CutVerdict:
    kind: str                          # 'member' | 'non_member' | 'inconclusive'
    witnesses: tuple = field(default_factory=tuple)
    checked_prefix: int = 0

    @property
    def is_member(self) -> bool:
        return self.kind == "member"


def cut_member(p: PowerSeries, s: CutSpec) -> CutVerdict:
    """Certificate-level membership of P in the cut algebra of s.

    Member: every cross-degree pair of per-degree grid maxima descends in
    the cut ordering.  Non-member: verified dominant terms are pairwise
    incomparable across all scanned degrees.  Otherwise inconclusive.
    """
    prefix = LIMITS.cut_prefix
    if s.variant == "all":
        return CutVerdict("member", (), prefix)
    if s.variant == "empty":
        if p.is_finite:
            return CutVerdict("member", (), prefix)
        wits = _verified_dominants(p, prefix)
        if len(wits) >= 2:
            (k1, d1), (k2, d2) = wits[0], wits[1]
            return CutVerdict("non_member", (((d1, k1), (d2, k2)),), prefix)
        return CutVerdict("inconclusive", (), prefix)

    maxima = []
    for k in range(p.last_index(prefix) + 1):
        gm = p.coeff(k).cert.grid_max()
        if gm is not None:
            maxima.append((k, gm))
    # Only pairs at degree gap >= 2 matter (any 3-element bad sequence
    # contains one), and bad pairs confined to the head are harmless: an
    # infinite bad sequence could drop those finitely many degrees.  So
    # membership holds when no bad gap->=2 pair starts in the tail half.
    head = prefix // 2
    ok = True
    for (i, mi), (j, mj) in itertools.combinations(maxima, 2):
        if j - i < 2:
            continue
        w = mono_mul(mj, mi.inv())
        if not _in_negative_cone(w, j - i, s) and i >= head:
            ok = False
            break
    if ok:
        return CutVerdict("member", tuple(maxima), prefix)

    doms = _verified_dominants(p, prefix)
    if len(doms) >= 2:
        bad_pairs = []
        all_bad = True
        for (i, di), (j, dj) in itertools.combinations(doms, 2):
            w = mono_mul(dj, di.inv())
            if _in_negative_cone(w, j - i, s):
                all_bad = False
                break
            bad_pairs.append(((di, i), (dj, j)))
        if all_bad and bad_pairs:
            return CutVerdict("non_member", tuple(bad_pairs[:2]), prefix)
    return CutVerdict("inconclusive", (), prefix)


def _verified_dominants(p: PowerSeries, prefix: int) -> list:
    out = []
    for k in range(p.last_index(prefix) + 1):
        try:
            lt = p.coeff(k).leading_term(fuel=PROBE_FUEL)
        except BudgetExceededError:
            continue
        if lt is not None:
            out.append((k, lt.mono))
    return out


# -- convergence ----------------------------------------------------------------


@dataclass(frozen=True)
class ConvReport:
    verdict: str                       # 'certified_convergent' | 'certified_divergent' | 'inconclusive'
    witnesses: tuple = field(default_factory=tuple)
    checked_prefix: int = 0
    detail: str = ""

    @property
    def convergent(self) -> bool:
        return self.verdict == "certified_convergent"


def conv_contains(p: PowerSeries, delta: TransSeries) -> ConvReport:
    """Does the coefficient family (P_k delta^k) stay summable?

    Convergence is certified through cut duality: membership of P in the
    algebra of the cut above the dominant monomial of delta.  Divergence
    needs a verified window of non-shrinking dominant terms.
    """
    prefix = LIMITS.cut_prefix
    try:
        lt = delta.leading_term()
    except BudgetExceededError:
        return ConvReport("inconclusive", (), 0,
                          "could not locate the dominant term of delta")
    if lt is None:
        return ConvReport("certified_convergent", (), 0, "delta = 0")
    dd = lt.mono
    if p.is_finite:
        return ConvReport("certified_convergent", (), p.finite_degree,
                          "polynomial: converges everywhere")
    verdict = cut_member(p, CutSpec.above(dd))
    if verdict.is_member:
        return ConvReport("certified_convergent", verdict.witnesses, prefix,
                          f"member of the cut algebra above {dd.render()}")

    doms = _verified_dominants(p, prefix)
    window = LIMITS.divergence_window
    run = []
    for (i, di), (j, dj) in zip(doms, doms[1:]):
        if j != i + 1:
            run = []
            continue
        ratio = mono_mul(mono_mul(dj, di.inv()), dd)
        if mono_cmp(ratio, ONE) >= 0:
            run.append((di, dj))
            if len(run) >= window:
                return ConvReport(
                    "certified_divergent", tuple(run), prefix,
                    "dominant terms of P_k delta^k stopped shrinking")
        else:
            run = []
    return ConvReport("inconclusive", (), prefix,
                      "certificate test failed and no divergence witness found")


def _unit_ratios(s: TransSeries, dom: Monomial) -> set:
    """Ratios whose grid covers s/dom, for dom the dominant monomial of s:
    the bases of s's certificate refined at dom, divided by dom (dom
    itself gives 1), and the certificate's own ratios."""
    tight = _infinitesimal_bases(s.cert, dom)
    return ({mono_mul(t, dom.inv()) for t in tight if t is not dom}
            | set(s.cert.ratios))


def _eval_grid(grid: GridCertificate, factors, s: TransSeries,
               dom: Monomial) -> GridCertificate:
    """A grid that covers sum_k P_k s^k, for dom the dominant monomial of
    s: `grid` with the unit ratios of s and the products d*dom of the joint
    factors d as extra ratios.  Refuses when one of them is not
    infinitesimal: the joint certificate then bounds no level of the
    summands, and dropping that ratio would drop terms silently."""
    extra = _unit_ratios(s, dom) | {mono_mul(d, dom) for d in factors}
    large = sort_monomials(z for z in extra if not z.is_small())
    if large:
        raise EvaluationRefusedError(
            "evaluation refused: the joint certificate does not bound the "
            f"coefficients at delta (the grid ratio {large[0].render()} is not "
            "infinitesimal)")
    return grid.union(GridCertificate.of((), extra))


def ps_eval(p: PowerSeries, delta: TransSeries) -> TransSeries:
    """sum_k P_k delta^k via the lazy leveled sum; refuses without a
    certified-convergent report."""
    report = conv_contains(p, delta)
    if not report.convergent:
        raise EvaluationRefusedError(
            f"evaluation refused: {report.verdict} ({report.detail})",
            report=report)
    return _evaluate(p, delta)


def _evaluate(p: PowerSeries, delta: TransSeries) -> TransSeries:
    """sum_k P_k delta^k for a P whose convergence at delta the caller has
    certified: the one summation behind every evaluation."""
    lt = delta.leading_term()
    if lt is None:
        return p.coeff(0)
    if p.is_finite:
        return sum_family(itertools.islice(_scaled_powers(p, delta),
                                           p.finite_degree + 1))
    if p.joint is None:
        raise PreconditionError(
            "ps_eval on an infinite power series needs a joint grid certificate")
    if not p.joint.factors:
        # a product of k>0 factors from an empty alphabet is empty: the
        # joint contract forces every higher coefficient to vanish
        return p.coeff(0)
    grid = _eval_grid(p.joint.coefficient_grid(), p.joint.factors, delta, lt.mono)
    return sum_lazy(_scaled_powers(p, delta), grid)


def _scaled_powers(p: PowerSeries, delta: TransSeries):
    """P_0, P_1*delta, P_2*delta^2, ..., with delta^k built as
    delta^(k-1)*delta."""
    yield p.coeff(0)
    power = delta
    for k in itertools.count(1):
        yield mul(p.coeff(k), power)
        power = mul(power, delta)


def cut_eval(p: PowerSeries, delta: TransSeries, s: CutSpec) -> TransSeries:
    """Evaluation inside a cut algebra: requires verified membership and
    delta strictly below the segment.

    When the strict-boundary algebra misses P but the boundary-inclusive
    one contains it and delta stays strictly below the boundary itself,
    evaluation is still certified (the same summability argument applies
    to the slightly larger segment).
    """
    verdict = cut_member(p, s)
    lt = delta.leading_term()
    if not verdict.is_member and s.variant == "above":
        wider = cut_member(p, CutSpec.above_eq(s.boundary))
        if wider.is_member and (lt is None or mono_cmp(lt.mono, s.boundary) < 0):
            verdict, s = wider, CutSpec.above_eq(s.boundary)
    if not verdict.is_member:
        raise PreconditionError(
            f"cut_eval requires membership; got {verdict.kind}")
    # an empty-cut member is a polynomial, which evaluates anywhere
    if lt is not None and s.variant in ("above", "above_eq"):
        c = mono_cmp(lt.mono, s.boundary)
        if c > 0 or (c == 0 and s.variant == "above_eq"):
            raise PreconditionError("delta is not below the final segment")
    return _evaluate(p, delta)


def ps_translate(p: PowerSeries, eps: TransSeries) -> PowerSeries:
    """P shifted by eps: coefficient k is P^(k)(eps)/k!, that is
    sum_i C(k+i,k) P_{k+i} eps^i.

    Requires certified convergence at eps, which every derivative of P
    inherits (Conv(P') = Conv(P)); satisfies the group law
    P_{+(d+e)} = (P_{+d})_{+e} on certified arguments.
    """
    report = conv_contains(p, eps)
    if not report.convergent:
        raise PreconditionError(
            f"translation requires certified convergence at eps: {report.verdict}")
    cf = _taylor_coefficients(p, ps_derive, lambda q: _evaluate(q, eps))
    if p.is_finite:
        return PowerSeries(cf, finite_degree=p.finite_degree)
    if p.joint is None:
        raise PreconditionError(
            "translating an infinite power series needs a joint certificate")
    grid, lt = p.joint.grid, eps.leading_term()
    if lt is not None:
        grid = _eval_grid(grid, p.joint.factors, eps, lt.mono)
    return PowerSeries(cf, joint=PSJointCert(grid, p.joint.factors))


# -- coefficientwise lifting ----------------------------------------------------


def pullback_cut(op, target: CutSpec) -> CutSpec:
    """The source cut whose boundary is the dominant monomial of the
    boundary image (the divisible-case computation of the preimage segment)."""
    if target.variant in ("all", "empty"):
        return target
    dom = op.mono_image(target.boundary).leading_term().mono
    return CutSpec(target.variant, dom)


def lift_coefficientwise(op, p: PowerSeries,
                         s_source: Optional[CutSpec] = None,
                         s_target: Optional[CutSpec] = None) -> PowerSeries:
    """Apply a strongly linear operator to every coefficient.

    `op` is the ambient DERIVATION or a ring morphism (IDENTITY or a
    CompositionHandle: g, apply, mono_image).  When a target cut is
    supplied the result's membership is checked on a prefix and a
    violation raises with its witness.
    """
    joint = None
    if op is DERIVATION:
        if p.joint is not None:
            gens = p.joint.grid.bases | p.joint.grid.ratios | p.joint.factors
            _, grid = _derivation_grid(p.joint.grid, gens)
            joint = PSJointCert(grid, p.joint.factors)
    else:
        if s_source is not None and s_target is not None:
            expected = pullback_cut(op, s_target)
            if expected != s_source:
                raise PreconditionError(
                    "source cut must be the pullback of the target cut "
                    f"({expected.describe()})")
        if p.joint is not None:
            grid, _ = _image_grid(op.mono_image, p.joint.coefficient_grid())
            factors = set()
            for d in p.joint.factors:
                img = op.mono_image(d)
                dom = img.leading_term().mono
                factors.add(dom)
                grid = grid.union(GridCertificate.of((), _unit_ratios(img, dom)))
            joint = PSJointCert(grid, frozenset(factors))
    out = PowerSeries(lambda k: op.apply(p.coeff(k)),
                      finite_degree=p.finite_degree, joint=joint)
    if s_target is not None:
        verdict = cut_member(out, s_target)
        if verdict.kind == "non_member":
            raise SummabilityViolationError(
                "coefficientwise lift left the target cut algebra",
                witness=verdict.witnesses)
    return out
