"""The well-based series engine.

A TransSeries is a grid certificate plus an exact expander: given a cutoff
monomial, the expander returns *every* term whose monomial is >= the cutoff.
The certificate (finitely many base monomials, finitely many infinitesimal
ratio monomials) is what makes those queries finite, and it is the
constructive witness that the support is Noetherian.

Supports of grid series can have order type beyond omega, so a plain
"next term" stream cannot be the primitive; decreasing term iteration is
provided as a fuel-bounded facade on top of cutoff expansion.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (BudgetExceededError, DivisionByZeroSeries, DomainError,
                     PartialConstantError, PreconditionError,
                     SummabilityViolationError)
from .limits import LIMITS
from .monomial import (ONE, Monomial, _canon, format_term_sum, mono_cmp,
                       mono_max, mono_mul, sort_monomials)


class Term(NamedTuple):
    coeff: object
    mono: Monomial


# -- exact constants ---------------------------------------------------------
# Constants are exact rationals, an int when integral and a Fraction
# otherwise; exp and log of a constant are rational only at 0 resp. 1,
# which `exp_series` and `log_series` check.


def pow_const(c, r: Fraction):
    """c^r for rational r = p/q, exactly, by exact q-th roots; an
    irrational result is refused."""
    c = Fraction(c)
    r = Fraction(r)
    if c < 0:
        raise DomainError(f"negative base {c} with fractional exponent {r}")
    num = _exact_root(c.numerator, r.denominator)
    den = _exact_root(c.denominator, r.denominator)
    if num is None or den is None:
        raise PartialConstantError(f"{c}^({r}) is irrational")
    return _canon(Fraction(num, den) ** r.numerator)


def _exact_root(n: int, q: int) -> Optional[int]:
    """The exact integer q-th root of n, or None (bisection; no floats)."""
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + q - 1) // q + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid ** q
        if p == n:
            return mid
        if p < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


# -- grid certificates --------------------------------------------------------


@dataclass(frozen=True)
class GridCertificate:
    """Finite bases and infinitesimal ratios; certified support is
    { b * prod z_i^{v_i} : b in bases, v in N^n }."""

    bases: frozenset
    ratios: frozenset

    def __post_init__(self):
        for z in self.ratios:
            if not z.is_small():
                raise PreconditionError(f"certificate ratio {z.render()} is not infinitesimal")

    @staticmethod
    def of(bases: Iterable[Monomial], ratios: Iterable[Monomial] = ()) -> "GridCertificate":
        return GridCertificate(frozenset(bases), frozenset(ratios))

    def union(self, other: "GridCertificate") -> "GridCertificate":
        return GridCertificate(self.bases | other.bases, self.ratios | other.ratios)

    def product(self, other: "GridCertificate") -> "GridCertificate":
        if not self.bases or not other.bases:
            return GridCertificate(frozenset(), frozenset())
        bases = frozenset(mono_mul(a, b) for a in self.bases for b in other.bases)
        return GridCertificate(bases, self.ratios | other.ratios)

    @property
    def is_trivial(self) -> bool:
        return not self.bases

    def grid_max(self) -> Optional[Monomial]:
        if not self.bases:
            return None
        return mono_max(self.bases)


# -- the lattice walk -----------------------------------------------------------


_HEAP_KEY = cmp_to_key(lambda a, b: mono_cmp(b, a))  # max-heap on monomials


def _walk(bases: Iterable[Monomial], ratios: Iterable[Monomial]) -> Iterator[tuple]:
    """The grid points {b * z^v : b in bases, v in N^n} in strictly
    decreasing order, each once, as (m, vs): vs are the lattice points v
    that give m.

    A frontier heap of lattice points, each pushed once.  The walk moves
    past a grid point when it is resumed after yielding it: then each of
    the point's lattice points costs one unit of LIMITS.expand_fuel, shared
    by all bases, and its successors are pushed.  So a caller that stops at
    the first point below a bound pays for the points at or above it only.
    """
    ratios = list(ratios)
    start = (0,) * len(ratios)
    heap = [(_HEAP_KEY(b), bi, start, b) for bi, b in enumerate(bases)]
    heapq.heapify(heap)
    seen = {(bi, start) for bi in range(len(heap))}
    fuel, walked = LIMITS.expand_fuel, 0
    while heap:
        top = heap[0][3]
        group = []
        while heap and heap[0][3] is top:
            group.append(heapq.heappop(heap))
        yield top, [v for _, _, v, _ in group]
        walked += len(group)
        if walked > fuel:
            raise BudgetExceededError(
                f"grid walk past {top.render()} exceeded {fuel} lattice "
                "points; the bound may lie beyond the grid's archimedean reach")
        for _, bi, v, m in group:
            for i, z in enumerate(ratios):
                w = v[:i] + (v[i] + 1,) + v[i + 1:]
                if (bi, w) not in seen:
                    seen.add((bi, w))
                    m2 = mono_mul(m, z)
                    heapq.heappush(heap, (_HEAP_KEY(m2), bi, w, m2))


def _region(cert: GridCertificate, bound: Monomial) -> dict:
    """{m: the most ratio factors of a lattice point giving m} over the grid
    points m >= bound; a base below the bound cannot reach it."""
    region = {}
    above = [b for b in cert.bases if mono_cmp(b, bound) >= 0]
    for m, vs in _walk(above, cert.ratios):
        if mono_cmp(m, bound) < 0:
            break
        region[m] = max(map(sum, vs))
    return region


def _escape(cert: GridCertificate, wanted: dict) -> Optional[Monomial]:
    """The largest monomial m of `wanted` that is not a grid point with at
    least wanted[m] ratio factors, or None; one walk down to the smallest."""
    if not wanted:
        return None
    region = _region(cert, max(wanted, key=_HEAP_KEY))  # the smallest
    out = [m for m, k in wanted.items() if m not in region or region[m] < k]
    return mono_max(out) if out else None


# -- the series type ----------------------------------------------------------


# term fuel of the quick probes for one or two leading terms: well below
# LIMITS.term_fuel, so that a probe that cannot decide fails fast
PROBE_FUEL = 64


class TransSeries:
    """A well-based series over the log-exp monomial group.

    `cert` bounds the support; `expand(cutoff)` returns the exact finite
    dict of all terms with monomial >= cutoff.  Values are immutable and
    results are memoized at the deepest cutoff seen so far.  The memo is
    unsynchronized: a series is for use by one thread at a time.
    """

    __slots__ = ("cert", "_expander", "_cutoff", "_cache", "_summands")

    def __init__(self, cert: GridCertificate, expander: Callable[[Monomial], dict]):
        self.cert = cert
        self._expander = expander
        self._cutoff = None
        self._cache = None
        self._summands = None     # the children of a flat sum node

    # -- exact expansion ---------------------------------------------------

    def expand(self, cutoff: Monomial) -> dict:
        """All terms with monomial >= cutoff, as {Monomial: coeff}, exact."""
        if self.cert.is_trivial:
            return {}
        if self._cutoff is not None and mono_cmp(cutoff, self._cutoff) >= 0:
            return {m: c for m, c in self._cache.items()
                    if mono_cmp(m, cutoff) >= 0}
        self._cache = {m: c for m, c in self._expander(cutoff).items() if c}
        self._cutoff = cutoff
        return dict(self._cache)

    # -- decreasing-term facade ---------------------------------------------

    def _candidates(self) -> Iterator[Monomial]:
        """Certificate grid monomials in strictly decreasing order."""
        for m, _ in _walk(self.cert.bases, self.cert.ratios):
            yield m

    def first_terms(self, n: int, fuel: Optional[int] = None) -> list:
        """The n largest terms (fewer if the support is smaller), exact.

        A grid position holds at most one term, so the search expands at
        position n, then n - j positions past an expansion holding j terms,
        through at most `fuel` positions (LIMITS.term_fuel by default).  Raises
        BudgetExceededError if those positions hold fewer than n terms and
        the grid goes on (supports with long zero-coefficient grid
        prefixes).
        """
        if n <= 0 or self.cert.is_trivial:
            return []
        fuel = LIMITS.term_fuel if fuel is None else fuel
        d, walker = _term_search(self, n, fuel)
        if len(d) < n and next(walker, None) is not None:
            raise BudgetExceededError(
                f"could not locate {n} terms within {fuel} candidate monomials")
        return [Term(d[m], m) for m in sort_monomials(d)[:n]]

    def leading_term(self, fuel: Optional[int] = None) -> Optional[Term]:
        """Dominant term, or None if the series is provably zero."""
        got = self.first_terms(1, fuel)
        return got[0] if got else None

    # -- arithmetic sugar, on series only --------------------------------------

    def __add__(self, other):
        if not isinstance(other, TransSeries):
            return NotImplemented
        return add(self, other)

    def __neg__(self):
        return scale(self, -1)

    def __sub__(self, other):
        if not isinstance(other, TransSeries):
            return NotImplemented
        return add(self, -other)

    def __mul__(self, other):
        if not isinstance(other, TransSeries):
            return NotImplemented
        return mul(self, other)

    def render(self, nterms: int = 8) -> str:
        return render_series(self, nterms)

    def __repr__(self):
        try:
            return f"TransSeries({self.render(4)})"
        except BudgetExceededError:
            return "TransSeries(<budget exceeded>)"


# -- constructors -------------------------------------------------------------


def from_terms(terms: Iterable) -> TransSeries:
    """Finite series from (coeff, monomial) pairs; merges and drops zeros,
    and stores an integral rational coefficient as an int."""
    acc: dict = {}
    for coeff, m in terms:
        acc[m] = acc.get(m, 0) + coeff
    acc = {m: _canon(c) for m, c in acc.items() if c}
    cert = GridCertificate.of(acc.keys())

    def expander(cutoff):
        return {m: c for m, c in acc.items() if mono_cmp(m, cutoff) >= 0}

    return TransSeries(cert, expander)


ZERO = from_terms([])


def const(c) -> TransSeries:
    return from_terms([(c, ONE)])


ONE_SERIES = const(1)


def mono_series(m: Monomial) -> TransSeries:
    return from_terms([(1, m)])


# -- linear operations ---------------------------------------------------------


def scale(s: TransSeries, c) -> TransSeries:
    c = _canon(c)
    if not c:
        return ZERO

    def expander(cutoff):
        return {m: c * v for m, v in s.expand(cutoff).items()}

    return TransSeries(s.cert, expander)


def add(s: TransSeries, t: TransSeries) -> TransSeries:
    return sum_family((s, t))


def sum_family(fam: Iterable[TransSeries]) -> TransSeries:
    """Sum of a finite family (regrouping-invariant) as one flat sum node: a
    summand that is a sum node contributes its own summands, so neither wide
    sums nor long chains of `add` cost recursion depth in expansion."""
    fam = list(fam)
    if not fam:
        return ZERO
    if len(fam) == 1:
        return fam[0]
    cert = fam[0].cert
    for s in fam[1:]:
        cert = cert.union(s.cert)
    summands = [u for s in fam for u in (s._summands or (s,))]

    def expander(cutoff):
        acc: dict = {}
        for s in summands:
            for m, c in s.expand(cutoff).items():
                acc[m] = acc.get(m, 0) + c
        return acc

    out = TransSeries(cert, expander)
    out._summands = summands
    return out


def mul(s: TransSeries, t: TransSeries) -> TransSeries:
    """Cauchy product; every coefficient is the full finite convolution."""
    cert = s.cert.product(t.cert)

    def expander(cutoff):
        # expand never calls the expander of a trivial product certificate
        ms, mt = s.cert.grid_max(), t.cert.grid_max()
        left = s.expand(mono_mul(cutoff, mt.inv()))
        right = t.expand(mono_mul(cutoff, ms.inv()))
        acc: dict = {}
        for u, a in left.items():
            for v, b in right.items():
                w = mono_mul(u, v)
                if mono_cmp(w, cutoff) >= 0:
                    acc[w] = acc.get(w, 0) + a * b
        return acc

    return TransSeries(cert, expander)


def dominant_decompose(s: TransSeries) -> tuple:
    """Unique (c, d, eps) with s = c*d*(1+eps) and eps infinitesimal."""
    lt = s.leading_term()
    if lt is None:
        raise DomainError("the zero series has no dominant decomposition")
    c, d = lt.coeff, lt.mono
    unit = mul(s, mono_series(d.inv()))
    eps = add(scale(unit, Fraction(1) / c), scale(ONE_SERIES, -1))
    return c, d, eps


# -- geometric and lazy summation machinery -----------------------------------


def _infinitesimal_bases(cert: GridCertificate, dom: Monomial) -> frozenset:
    """Rewrite the part of the grid at or below `dom` with bases <= dom: the
    bases at or below dom, and p*z at or below dom for each grid point p
    above dom and each ratio z.  Sound because the grid points above dom
    form a downward closed lattice region."""
    out = {b for b in cert.bases if mono_cmp(b, dom) <= 0}
    for p, _ in _walk(cert.bases - out, cert.ratios):
        if mono_cmp(p, dom) <= 0:
            break
        for z in cert.ratios:
            q = mono_mul(p, z)
            if mono_cmp(q, dom) <= 0:
                out.add(q)
    return frozenset(out)


def _level_cap(start: Monomial, rho: Monomial, cutoff: Monomial) -> int:
    """The number of j >= 0 with start*rho^j >= cutoff, for infinitesimal
    rho; BudgetExceededError once it would exceed LIMITS.level_fuel."""
    count = 0
    bound = start
    while mono_cmp(bound, cutoff) >= 0:
        count += 1
        if count > LIMITS.level_fuel:
            raise BudgetExceededError(
                f"level bound above {cutoff.render()} exceeded "
                f"{LIMITS.level_fuel} levels")
        bound = mono_mul(bound, rho)
    return count


def geometric_substitute(coeffs: Callable[[int], object],
                         eps: TransSeries) -> TransSeries:
    """Sum_k coeffs(k) eps^k for infinitesimal eps; coeffs(k) is called
    once for each k, in turn, and kept as an int when it is integral.

    Summability is the Neumann-series argument made constructive: the
    refined certificate of eps has infinitesimal bases, so each cutoff
    admits a finite power bound.
    """
    lt = eps.leading_term()
    if lt is None:
        return const(coeffs(0))
    if not lt.mono.is_small():
        raise PreconditionError(
            f"geometric substitution requires an infinitesimal series; "
            f"dominant monomial is {lt.mono.render()}")
    tight_bases = _infinitesimal_bases(eps.cert, lt.mono)
    tight = TransSeries(GridCertificate(tight_bases, eps.cert.ratios), eps.expand)
    rho = mono_max(tight_bases)    # lt.mono is one of the tight bases
    cert = GridCertificate(frozenset([ONE]),
                           frozenset(eps.cert.ratios) | tight_bases)
    # (coeffs(k), eps^k on the tight grid), each built once and kept
    powers = [(_canon(coeffs(0)), ONE_SERIES)]

    def expander(cutoff):
        last = _level_cap(rho, rho, cutoff)
        acc: dict = {}
        for k in range(last + 1):
            if len(powers) == k:
                powers.append((_canon(coeffs(k)), mul(powers[-1][1], tight)))
            ck, power = powers[k]
            if not ck:
                continue
            for m, v in power.expand(cutoff).items():
                acc[m] = acc.get(m, 0) + ck * v
        return acc

    return TransSeries(cert, expander)


def invert(s: TransSeries) -> TransSeries:
    """Multiplicative inverse via dominant decomposition and Neumann series."""
    lt = s.leading_term()
    if lt is None:
        raise DivisionByZeroSeries("cannot invert the zero series")
    c, d, eps = dominant_decompose(s)
    geo = geometric_substitute(lambda k: (-1) ** k, eps)
    return scale(mul(geo, mono_series(d.inv())), Fraction(1) / c)


def sum_lazy(summands: Iterable[TransSeries], cert: GridCertificate) -> TransSeries:
    """Sum of a lazy family sharing the grid certificate `cert`.

    Summand k has level k: its support must lie inside the declared grid
    with at least k ratio factors, so the grid needs a ratio.  Violations
    discovered during enumeration raise SummabilityViolationError naming
    the witness monomial.
    """
    if not cert.ratios:
        raise PreconditionError("sum_lazy needs a grid ratio to bound the levels")
    zmax = mono_max(cert.ratios)
    gmax = cert.grid_max()
    it = iter(summands)
    consumed: list = []
    checked: dict = {}    # monomial -> the most ratio factors it was checked for

    def expander(cutoff):
        cap = _level_cap(gmax, zmax, cutoff) - 1
        # window past the cap: those summands must be provably silent
        # above the cutoff, else the level contract was violated
        while len(consumed) <= cap + LIMITS.divergence_window + 1:
            if len(consumed) > LIMITS.level_fuel:
                raise BudgetExceededError("sum_lazy pulled too many summands")
            series = next(it, None)
            if series is None:
                break
            consumed.append(series)
        acc: dict = {}
        new: dict = {}    # unchecked monomial -> the ratio factors it needs
        for level, series in enumerate(consumed[:cap + 1]):
            for m, c in series.expand(cutoff).items():
                if checked.get(m, -1) < level:
                    new[m] = level
                acc[m] = acc.get(m, 0) + c
        m = _escape(cert, new)
        if m is not None:
            raise SummabilityViolationError(
                f"monomial {m.render()} of the level-{new[m]} summand "
                f"is outside the declared grid", witness=m)
        checked.update(new)
        for level in range(cap + 1, len(consumed)):
            stray = consumed[level].expand(cutoff)
            if stray:
                raise SummabilityViolationError(
                    f"level-{level} summand reaches above the cutoff "
                    f"bound with {next(iter(stray)).render()}",
                    witness=next(iter(stray)))
        return acc

    return TransSeries(cert, expander)


def extend_strongly_linear(image: Callable[[Monomial], TransSeries],
                           s: TransSeries, cert: GridCertificate,
                           source_cutoff: Callable[[Monomial], Monomial]) -> TransSeries:
    """The unique strongly linear extension sum_m s_m * image(m) of a
    Noetherian monomial map, on the image grid `cert` the caller certifies.

    An expansion at a cutoff expands s at source_cutoff(cutoff), which must
    reach every m whose image has a term at or above the cutoff; each image
    is built once, and an image monomial outside the grid raises
    SummabilityViolationError naming it."""
    images: dict = {}
    checked: set = set()

    def expander(cutoff):
        acc: dict = {}
        new: dict = {}    # unchecked image monomial -> its first source
        for m, coeff in s.expand(source_cutoff(cutoff)).items():
            img = images.get(m)
            if img is None:
                img = images[m] = image(m)
            for mi, ci in img.expand(cutoff).items():
                if mi not in checked:
                    new.setdefault(mi, m)
                acc[mi] = acc.get(mi, 0) + coeff * ci
        mi = _escape(cert, dict.fromkeys(new, 0))
        if mi is not None:
            raise SummabilityViolationError(
                f"image monomial {mi.render()} of {new[mi].render()} "
                f"escapes the declared image grid", witness=mi)
        checked.update(new)
        return acc

    return TransSeries(cert, expander)


# -- comparison and rendering --------------------------------------------------


def depth_cutoff(s: TransSeries, depth: int):
    """(cutoff, exhausted): the (depth+1)-th grid candidate of s, or the
    last one if the grid has fewer points; a negative depth is refused."""
    if depth < 0:
        raise PreconditionError(f"depth {depth} names no grid position")
    walked = list(itertools.islice(s._candidates(), min(depth + 1, sys.maxsize)))
    return (walked[-1] if walked else None), len(walked) <= depth


def _terms_to_depth(s: TransSeries, depth: int) -> tuple:
    """(terms, cutoff): the terms of s strictly above its depth cutoff, or
    all of them once the grid is exhausted, as {Monomial: coeff}; no terms
    and cutoff None when the grid is empty (expand never reads the cutoff
    of an empty grid)."""
    cutoff, exhausted = depth_cutoff(s, depth)
    d = s.expand(cutoff)
    if not exhausted:
        d = {m: c for m, c in d.items() if mono_cmp(m, cutoff) > 0}
    return d, cutoff


def compare_to_depth(s: TransSeries, t: TransSeries, depth: int):
    """Exact comparison through the first `depth` grid positions.

    Returns (equal, cutoff, discrepancies) where discrepancies are the
    terms of s - t above the positional cutoff, largest first.  A depth
    below 1 compares nothing and is refused.
    """
    if depth < 1:
        raise PreconditionError(f"depth {depth} compares no grid position")
    d, cutoff = _terms_to_depth(add(s, scale(t, -1)), depth)
    bad = [Term(d[m], m) for m in sort_monomials(d)]
    return not bad, cutoff, bad


def _term_search(s: TransSeries, want: int, budget: int) -> tuple:
    """(d, walker): the expansion of s at the first of its grid positions
    whose expansion holds `want` terms, searching at most `budget`
    positions, or at the last position searched; and the candidate walker,
    positioned after that position (a finished walker once the grid ends).

    A grid position holds at most one term, so after an expansion at position
    p (0 at first) holding j < want terms, the next is made at p + want - j."""
    walker = s._candidates()
    budget = min(budget, sys.maxsize)  # islice's limit; the walk's fuel ends it first
    d, done, pos, probe = {}, 0, 0, min(want, budget)
    for pos, cand in enumerate(itertools.islice(walker, budget), 1):
        if pos >= probe:
            d, done = s.expand(cand), pos
            if len(d) >= want:
                break
            probe = min(pos + want - len(d), budget)
    if done < pos:  # the grid ended before the next probe
        d = s.expand(cand)
    return d, walker


def shown_terms(s: TransSeries, nterms: int = 8) -> tuple:
    """(terms, omark): up to nterms nonzero Terms, largest first, and the
    O-monomial, or None when no term is left out.

    Searches at most 2*nterms+6 grid positions for nterms+1 nonzero
    coefficients; the O-monomial marks where knowledge ends (the next
    unexplored grid position, or the first unshown term)."""
    if s.cert.is_trivial:
        return [], None
    nterms = max(nterms, 0)
    d, walker = _term_search(s, nterms + 1, 2 * nterms + 6)
    order = sort_monomials(d)
    terms = [Term(d[m], m) for m in order[:nterms]]
    if len(order) > nterms:
        return terms, order[nterms]
    return terms, next(walker, None)


def format_shown(terms: list, omark: Optional[Monomial]) -> str:
    """`c1*m1 + ... + O(omark)`, the text of a `shown_terms` result."""
    body = format_term_sum(terms) if terms else ""
    if omark is None:
        return body or "0"
    tail = f"O({omark.render()})"
    return f"{body} + {tail}" if body else tail


def render_series(s: TransSeries, nterms: int = 8) -> str:
    """`c1*m1 + ... + O(mK)` with up to nterms nonzero terms."""
    return format_shown(*shown_terms(s, nterms))
