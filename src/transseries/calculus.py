"""Differential and logarithmic structure on the transseries field.

The derivation is the strongly linear extension of m -> m * dagger(m) with
dagger(l_k) = (l_0 ... l_k)^{-1} and x' = 1.  log and exp follow the
multiplicative decomposition s = c*d*(1+eps); right composition is defined
on atoms by l_0 o g = g, l_{k+1} o g = log(l_k o g), extended
multiplicatively over monomials and strongly linearly over series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count
from math import factorial
from types import SimpleNamespace
from typing import Sequence

from .errors import (DomainError, PartialConstantError, PreconditionError,
                     ResourceError)
from .monomial import (ONE, X, Monomial, _canon, atom, dagger_terms,
                       deriv_terms, make_monomial, mono_cmp, mono_inv, mono_max,
                       mono_mul, mono_pow, pre_log, sort_monomials)
from .series import (ONE_SERIES, ZERO, GridCertificate, TransSeries,
                     add, dominant_decompose, extend_strongly_linear,
                     from_terms, geometric_substitute, holding, invert,
                     mono_series, mul, one_term, pow_const, scale, sum_family,
                     _audit_images, _infinitesimal_bases, _level_cap)

X_SERIES = mono_series(X)
FAA_ORDER_BOUND = 6                # the highest order faa_di_bruno_coeff assembles


def dagger(m: Monomial) -> TransSeries:
    """The logarithmic derivative m'/m = (ell m)'; a finite exact series."""
    return from_terms(dagger_terms(m))


def dagger_support_closure(gens) -> tuple:
    """Smallest monomial set containing every dagger support of `gens`
    and closed under taking dagger supports, as a decreasing tuple.

    Finite because dagger supports only involve inverse log-atom products
    and strictly lower exponential height; this set is the per-degree
    factor alphabet for iterated derivatives.
    """
    out: dict = {}
    work = list(gens)
    while work:
        g = work.pop()
        for _, d in dagger_terms(g):
            if d not in out:
                out[d] = None
                work.append(d)
    return sort_monomials(out)


def _derivation_grid(cert: GridCertificate, gens) -> tuple:
    """The dagger monomials of `gens`, a decreasing tuple, and the grid
    `cert` times them, which covers the derivatives of series on `cert`."""
    dag = sort_monomials(d for g in gens for _, d in dagger_terms(g))
    return dag, cert.product(GridCertificate.of(dag))


def _image_grid(image, cert: GridCertificate) -> tuple:
    """(grid, rho): a grid covering the images of the grid `cert` under
    `image`, in which each ratio image is refined at its dominant
    monomial, and rho, the largest refined base (or None)."""
    bases, ratios, tops = [], [], []
    for b in cert.bases:
        grid = image(b).cert
        bases += grid.bases
        ratios += grid.ratios
    for z in cert.ratios:
        img = image(z)
        lt = img.leading_term()
        if not lt.mono.is_small():
            raise PreconditionError(
                f"image of ratio {z.render()} failed to stay infinitesimal")
        tight = _infinitesimal_bases(img.cert, lt.mono)
        ratios += tight + img.cert.ratios
        tops.append(tight[0])
    return GridCertificate.of(bases, ratios), mono_max(tops) if tops else None


def derive(s: TransSeries) -> TransSeries:
    """Strongly linear derivation; Leibniz holds to any depth.  A series
    that holds all its terms differentiates once, to a series that holds
    its derivative's terms on the same grid, audited against it at once;
    other series differentiate lazily."""
    dag, grid = _derivation_grid(s.cert, s.cert.bases + s.cert.ratios)
    if grid.is_trivial:
        return ZERO
    if s._held is not None:
        acc: dict = {}
        source: dict = {}    # image monomial -> its first source
        for m, c in s._held.items():
            for ci, mi in deriv_terms(m):
                source.setdefault(mi, m)
                ci = c * _canon(ci)    # as the image from_terms(deriv_terms(m)) holds it
                acc[mi] = acc[mi] + ci if mi in acc else ci
        _audit_images(grid, source)
        return holding(grid, {m: c for m, c in acc.items() if c})
    shrink = mono_inv(dag[0])
    return extend_strongly_linear(
        lambda m: from_terms(deriv_terms(m)), s, grid,
        lambda cutoff: mono_mul(cutoff, shrink))


def log_series(s: TransSeries) -> TransSeries:
    """log s = ell(d) + sum_{k>0} (-1)^{k-1}/k * eps^k for s = c*d*(1+eps)
    with c = 1; any other c is refused, log(c) being irrational.  Of one
    term d it is ell(d)."""
    lt = one_term(s)
    c, d, eps = dominant_decompose(s) if lt is None else (*lt, None)
    if not c > 0:
        raise DomainError("log of a series with non-positive leading coefficient")
    if c != 1:
        raise PartialConstantError(f"log({c}) is irrational; only log(1) is rational")
    if eps is None:
        return pre_log(d)
    tail = geometric_substitute(
        lambda k: Fraction(0) if k == 0 else Fraction((-1) ** (k - 1), k), eps)
    return sum_family([pre_log(d), tail])


def exp_series(s: TransSeries) -> TransSeries:
    """exp of s = L + eps: the monomial exp(L) times the factorial series
    in eps.

    The purely large part L must materialise within the expansion budget;
    its coefficients become exact rationals in the monomial.  A nonzero
    constant term c is refused, since exp(c) is then irrational.  Of one
    purely large term it is that monomial.
    """
    lt = one_term(s)
    if lt is not None and lt.mono.is_large():
        return mono_series(make_monomial({}, [(Fraction(lt.coeff), lt.mono)]))
    parts = s.expand(ONE)
    large = [(m, c) for m, c in parts.items() if m.is_large()]
    c0 = parts.get(ONE, 0)
    head = make_monomial({}, [(Fraction(c), m) for m, c in large])
    if c0:
        raise PartialConstantError(f"exp({c0}) is irrational; only exp(0) is rational")
    eps = s - from_terms([(c, m) for m, c in large])
    tail = geometric_substitute(lambda k: Fraction(1, factorial(k)), eps)
    return mul(mono_series(head), tail)


def pow_series(s: TransSeries, r) -> TransSeries:
    """s^r for rational r; integer powers are exact products built by
    repeated squaring, so |r| = n takes O(log n) nested products; fractional
    powers use c^r * d^r * binomial series in eps (requires c^r exact).
    Of one term c*d it is c^r * d^r."""
    r = Fraction(r)
    if r == 0:
        return ONE_SERIES
    lt = one_term(s)
    if lt is not None:
        c, d = lt
        cr = Fraction(c) ** r if r.denominator == 1 else pow_const(c, r)
        return from_terms([(cr, mono_pow(d, r))])
    if r.denominator == 1:
        n = abs(r.numerator)
        base = s if r > 0 else invert(s)
        out = None
        while True:
            if n & 1:
                out = base if out is None else mul(out, base)
            n >>= 1
            if not n:
                return out
            base = mul(base, base)
    c, d, eps = dominant_decompose(s)
    cr = pow_const(c, r)

    # geometric_substitute asks for each k once, in turn
    binoms = accumulate(count(), lambda b, i: b * (r - i) / (i + 1), initial=Fraction(1))
    tail = geometric_substitute(lambda k: next(binoms), eps)
    return scale(mul(mono_series(mono_pow(d, r)), tail), cr)


# -- right composition --------------------------------------------------------


class CompositionHandle:
    """Right composition by a fixed positive infinite series g.

    Memoizes atom and monomial images; composition of a series is the
    strongly linear extension over its term expansion.  Images are built
    lazily.
    """

    def __init__(self, g: TransSeries):
        lt = g.leading_term()
        if lt is None or not lt.mono.is_large() or not lt.coeff > 0:
            raise PreconditionError(
                "composition requires a positive infinite right argument")
        self.g = g
        self._atoms = [g]            # atom_image(k) = l_k o g
        self._monos: dict = {ONE: ONE_SERIES}

    def atom_image(self, k: int) -> TransSeries:
        while len(self._atoms) <= k:
            self._atoms.append(log_series(self._atoms[-1]))
        return self._atoms[k]

    def mono_image(self, m: Monomial) -> TransSeries:
        got = self._monos.get(m)
        if got is not None:
            return got
        # composition is a ring morphism: with the image of m / l_k^{+-1}
        # known, one product with the image of l_k^{+-1} gives that of m
        for k, r in m.log_powers:
            if r.denominator == 1:
                step = atom(k) if r > 0 else mono_inv(atom(k))
                prev = None if step is m else self._monos.get(mono_mul(m, mono_inv(step)))
                if prev is not None:
                    out = mul(prev, self.mono_image(step))
                    self._monos[m] = out
                    return out
        out = ONE_SERIES
        for k, r in m.log_powers:
            out = mul(out, pow_series(self.atom_image(k), r))
        if m.exp_terms:
            arg = ZERO
            for c, u in m.exp_terms:
                arg = add(arg, scale(self.mono_image(u), c))
            out = mul(out, exp_series(arg))
        self._monos[m] = out
        return out

    def apply(self, s: TransSeries) -> TransSeries:
        return compose(s, self)


# the identity operator, with the interface of a CompositionHandle
IDENTITY = SimpleNamespace(g=X_SERIES, apply=lambda s: s, mono_image=mono_series)


def compose(f: TransSeries, h) -> TransSeries:
    """f o g, extended strongly linearly from monomial images; f o x is f,
    whose certificate is the image grid that the extension would build."""
    if isinstance(h, TransSeries):
        h = CompositionHandle(h)
    if f.cert.is_trivial:
        return ZERO
    if one_term(h.g) == (1, X):
        return f

    grid, rho = _image_grid(h.mono_image, f.cert)
    zmin = f.cert.ratios[-1] if f.cert.ratios else None

    def source_cutoff(cutoff):
        cut_f = None
        for b in f.cert.bases:
            mb = h.mono_image(b).cert.grid_max()
            cap = 0 if rho is None else _level_cap(mb, rho, cutoff)
            floor = b if zmin is None else mono_mul(b, mono_pow(zmin, cap))
            if cut_f is None or mono_cmp(floor, cut_f) < 0:
                cut_f = floor
        return cut_f

    return extend_strongly_linear(h.mono_image, f, grid, source_cutoff)


# -- Faà di Bruno --------------------------------------------------------------


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _composition_coeff(outer, inner, k: int, top: int) -> TransSeries:
    """Coefficient k of sum_n outer(n) (sum_j inner(j) X^j)^n for k > 0:
    the sum over n <= top and over the ordered compositions v of k into
    n parts of outer(n) * prod_j inner(v_j)."""
    terms = []
    for n in range(1, top + 1):
        outer_n = outer(n)
        for v in _compositions(k, n):
            term = outer_n
            for j in v:
                term = mul(term, inner(j))
            terms.append(term)
    return sum_family(terms)


def faa_di_bruno_coeff(composed_derivs: Sequence[TransSeries],
                       inner_derivs: Sequence[TransSeries],
                       k: int) -> TransSeries:
    """The order-k coefficient (f o g)^{(k)}/k! assembled combinatorially.

    `composed_derivs[n]` must be f^{(n)} o g and `inner_derivs[j]` must be
    g^{(j)} (index 0 unused), both through order k.  Equals the k-fold
    derivative of the composite divided by k!: coefficient k of P o Q for
    P_n = (f^{(n)} o g)/n!, Q_0 = 0 and Q_j = g^{(j)}/j!.
    """
    if k > FAA_ORDER_BOUND:
        raise ResourceError(f"Faà di Bruno order {k} exceeds bound {FAA_ORDER_BOUND}")
    if k == 0:
        return composed_derivs[0]
    return _composition_coeff(
        lambda n: scale(composed_derivs[n], Fraction(1, factorial(n))),
        lambda j: scale(inner_derivs[j], Fraction(1, factorial(j))), k, k)


# the ambient derivation, packaged for coefficientwise lifting like IDENTITY
DERIVATION = SimpleNamespace(apply=derive)
