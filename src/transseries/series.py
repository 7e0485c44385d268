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
import math
import sys
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (BudgetExceededError, DivisionByZeroSeries, DomainError,
                     PartialConstantError, PreconditionError,
                     SummabilityViolationError)
from .monomial import (ONE, Monomial, _canon, format_term_sum, mono_cmp,
                       mono_inv, mono_max, mono_mul, sort_monomials)


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


class GridCertificate:
    """Finite bases and infinitesimal ratios, both decreasing without
    repeats; certified support is
    { b * prod z_i^{v_i} : b in bases, v in N^n }.

    `of` sorts its bases at once.  A product or a union keeps its parts
    and forms its bases only as far as a reader asks, in decreasing order:
    `base(i)` forms the first i + 1 of them, `bases` all of them, once.
    Certificates compare by value."""

    __slots__ = ("ratios", "_pulled", "_parts", "_next", "_heap", "_last")

    def __init__(self, bases, ratios: tuple, parts=None, successors=None):
        # the ratios decrease, so all are infinitesimal if the first is
        if ratios and not ratios[0].is_small():
            raise PreconditionError(
                f"certificate ratio {ratios[0].render()} is not infinitesimal")
        self.ratios = ratios
        self._pulled = bases        # the bases formed so far; a tuple once all are
        self._parts = parts         # the factors of a product, the parts of a union
        self._next = successors     # the heap rule while bases remain to form
        self._heap = None           # the pull's heap, from the first pull past base 0
        self._last = None           # the index of the entry the last pull popped

    @staticmethod
    def of(bases: Iterable[Monomial] = (), ratios: Iterable[Monomial] = ()) -> "GridCertificate":
        return GridCertificate(sort_monomials(bases), sort_monomials(ratios))

    def union(self, *others: "GridCertificate") -> "GridCertificate":
        """The bases of all, by a k-way merge of their chains; the parts of
        a union join as they are, so no union nests in another."""
        certs = (self,) + others
        parts = []
        for c in certs:
            if c._next is _union_successors:
                parts += c._parts
            elif not c.is_trivial:
                parts.append(c)
        ratios = _joined(*(c.ratios for c in certs))
        if not parts:
            return GridCertificate((), ratios)
        first = mono_max(c.base(0) for c in certs if not c.is_trivial)
        return GridCertificate([first], ratios, parts, _union_successors)

    def product(self, other: "GridCertificate") -> "GridCertificate":
        """The products a_i * b_j of the bases, by a heap over index pairs:
        (i, j) hands on (i, j + 1), and (i + 1, 0) when j = 0, so each pair
        comes from one larger pair, and a factor with one base keeps one
        entry on the heap (lazy sorting of X + Y, Frederickson and Johnson
        1982)."""
        if self.is_trivial or other.is_trivial:
            return _EMPTY
        return GridCertificate([mono_mul(self.base(0), other.base(0))],
                               _joined(self.ratios, other.ratios), (self, other),
                               _product_successors)

    def base(self, i: int) -> Optional[Monomial]:
        """The (i+1)-th largest base, or None past the last.

        A product or union pulls its next base from a heap of `_entry`s.
        Each popped entry pushes the entries its successor rule forms, all
        smaller than it, when the next pull begins, as the lattice walk
        does: so pulling base i reads only the first i + 1 bases of each
        part, and a pull that raises, at the recursion limit deep in a
        part, leaves the heap as it was.  Equal monomials leave the heap
        together, and the pull skips the repeats."""
        pulled = self._pulled
        while i >= len(pulled):
            if self._next is None:
                return None
            if self._heap is None:
                self._heap = []    # the start (index None) hands on the first entries
            heap = self._heap
            while True:
                for kid in self._next(self, self._last):
                    heapq.heappush(heap, kid)
                if not heap:
                    self._pulled, self._next, self._heap = tuple(pulled), None, None
                    return None
                _, self._last, m = heapq.heappop(heap)
                if m is not pulled[-1]:
                    pulled.append(m)
                    break
        return pulled[i]

    @property
    def bases(self) -> tuple:
        """Every base, decreasing; formed on the first read and kept."""
        while self._next is not None:
            self.base(len(self._pulled))
        return self._pulled

    @property
    def is_trivial(self) -> bool:
        # a product or union with a base holds it from the start
        return not self._pulled

    def grid_max(self) -> Optional[Monomial]:
        return self.base(0)

    def __eq__(self, other):
        if not isinstance(other, GridCertificate):
            return NotImplemented
        return self.ratios == other.ratios and self.bases == other.bases

    def __hash__(self):
        return hash((self.bases, self.ratios))

    def __repr__(self):
        return f"GridCertificate(bases={self.bases!r}, ratios={self.ratios!r})"


# the certificate of zero; it has nothing to form, so it is shared
_EMPTY = GridCertificate((), ())


def _joined(*tuples: tuple) -> tuple:
    """The union of decreasing monomial tuples, decreasing: one that is not
    empty, kept as it is when each other one is empty or the same tuple."""
    full = ()
    for t in tuples:
        if t and t is not full:
            if full:
                return sort_monomials([z for t in tuples for z in t])
            full = t
    return full


# -- the lattice walk -----------------------------------------------------------


_HEAP_KEY = cmp_to_key(lambda a, b: mono_cmp(b, a))  # max-heap on monomials


def _entry(m: Monomial, index: tuple) -> tuple:
    return (_HEAP_KEY(m), index, m)


def _product_successors(cert: GridCertificate, index) -> list:
    a, b = cert._parts
    if index is None:    # the start
        return [_entry(cert._pulled[0], (0, 0))]
    i, j = index
    out = []
    for p, q in ((i, j + 1), (i + 1, 0)) if j == 0 else ((i, j + 1),):
        u, w = a.base(p), b.base(q)
        if u is not None and w is not None:
            out.append(_entry(mono_mul(u, w), (p, q)))
    return out


def _union_successors(cert: GridCertificate, index) -> list:
    parts = cert._parts
    if index is None:    # the start: the first base of every part
        return [_entry(p.base(0), (k, 0)) for k, p in enumerate(parts)]
    k, i = index
    m = parts[k].base(i + 1)
    return [] if m is None else [_entry(m, (k, i + 1))]


# lattice points one grid walk moves past before it refuses
EXPAND_FUEL = 200_000


def _walk(cert: GridCertificate) -> Iterator[tuple]:
    """The grid points {b * z^v : b in bases, v in N^n} of `cert` in
    strictly decreasing order, each once, as (m, vs): vs are the lattice
    points v that give m.

    A frontier heap of lattice points and nothing more.  Each lattice point
    has one parent, the point with its last raised coordinate lowered by
    one, so a point raised last at coordinate i pushes children only at
    coordinates i and above.  Base i + 1 joins the heap when base i leaves
    it, so the walk forms the bases at or above its last point and one
    more.  The ratios are infinitesimal and the bases decrease, so a parent
    is larger than its children, and all lattice points of a grid point are
    on the heap when it reaches the top.  The walk moves past a grid point
    when it is resumed after yielding it: then each of the point's lattice
    points costs one unit of EXPAND_FUEL, shared by all bases, and
    its children are pushed.  So a caller that stops at the first point
    below a bound pays for the points at or above it only.
    """
    ratios = cert.ratios
    start = (0,) * len(ratios)
    b = cert.base(0)
    heap = [] if b is None else [(_HEAP_KEY(b), 0, start, 0, b)]
    fuel, walked = EXPAND_FUEL, 0
    while heap:
        top = heap[0][4]
        group = []
        while heap and heap[0][4] is top:
            group.append(heapq.heappop(heap))
        yield top, [v for _, _, v, _, _ in group]
        walked += len(group)
        if walked > fuel:
            raise BudgetExceededError(
                f"grid walk past {top.render()} exceeded {fuel} lattice "
                "points; the bound may lie beyond the grid's archimedean reach")
        for _, bi, v, last, m in group:
            if v is start:    # a base, not a raised lattice point
                b = cert.base(bi + 1)
                if b is not None:
                    heapq.heappush(heap, (_HEAP_KEY(b), bi + 1, start, 0, b))
            for i in range(last, len(ratios)):
                w = v[:i] + (v[i] + 1,) + v[i + 1:]
                m2 = mono_mul(m, ratios[i])
                heapq.heappush(heap, (_HEAP_KEY(m2), bi, w, i, m2))


def _escape(cert: GridCertificate, wanted: dict) -> Optional[Monomial]:
    """The largest monomial m of `wanted` that is not a grid point with at
    least wanted[m] ratio factors, or None; one walk down to the smallest,
    ticking off each monomial it meets."""
    if not wanted:
        return None
    bound = max(wanted, key=_HEAP_KEY)  # the smallest
    missing = dict(wanted)
    for m, vs in _walk(cert):
        if mono_cmp(m, bound) < 0:
            break
        if m in missing and max(map(sum, vs)) >= missing[m]:
            del missing[m]
    return mono_max(missing) if missing else None


# -- the series type ----------------------------------------------------------


# candidate monomials one term search walks by default
TERM_FUEL = 512
# term fuel of the quick probes for one or two leading terms: well below
# TERM_FUEL, so that a probe that cannot decide fails fast
PROBE_FUEL = 64
# summands past the level cap whose silence sum_lazy checks at each expansion
SILENT_SUMMANDS = 6


class TransSeries:
    """A well-based series over the log-exp monomial group.

    `cert` bounds the support; `expand(cutoff)` returns the exact finite
    map {Monomial: coeff} of all terms with monomial >= cutoff.  An
    expansion holds no zero, stores an integral coefficient as an int and
    any other as a Fraction, and has no key order: a reader that names one
    of its monomials names it by the monomial order.  The memo fill here
    and `holding` keep this for every node.  Values are immutable and
    results are memoized at the deepest cutoff seen so far, except in a
    series that holds all its terms, which keeps no cutoff.  The memo is
    unsynchronized: a series is for use by one thread at a time.
    """

    __slots__ = ("cert", "_expander", "_cutoff", "_cache", "_summands", "_held")

    def __init__(self, cert: GridCertificate, expander: Callable[[Monomial], dict]):
        self.cert = cert
        self._expander = expander
        self._cutoff = None
        self._cache = None
        self._summands = None     # the children of a flat sum node
        self._held = None         # all terms of a `holding` series

    # -- exact expansion ---------------------------------------------------

    def expand(self, cutoff: Monomial) -> dict:
        """All terms with monomial >= cutoff, as {Monomial: coeff}, exact."""
        if self.cert.is_trivial:
            return {}
        if self._held is not None:
            return self._expander(cutoff)
        if self._cutoff is not None and mono_cmp(cutoff, self._cutoff) >= 0:
            return {m: c for m, c in self._cache.items()
                    if mono_cmp(m, cutoff) >= 0}
        self._cache = {m: _canon(c) for m, c in self._expander(cutoff).items() if c}
        self._cutoff = cutoff
        return dict(self._cache)

    # -- decreasing-term facade ---------------------------------------------

    def _candidates(self) -> Iterator[Monomial]:
        """Certificate grid monomials in strictly decreasing order."""
        for m, _ in _walk(self.cert):
            yield m

    def first_terms(self, n: int, fuel: Optional[int] = None) -> list:
        """The n largest terms (fewer if the support is smaller), exact.

        A grid position holds at most one term, so the search expands at
        position n, then n - j positions past an expansion holding j terms,
        through at most `fuel` positions (TERM_FUEL by default).  Raises
        BudgetExceededError if those positions hold fewer than n terms and
        the grid goes on (supports with long zero-coefficient grid
        prefixes); a negative fuel is refused.
        """
        fuel = TERM_FUEL if fuel is None else fuel
        if fuel < 0:
            raise PreconditionError(f"term fuel {fuel} is negative")
        if n <= 0 or self.cert.is_trivial:
            return []
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
    """Finite series from (coeff, monomial) pairs, merged; its certificate
    bases are its nonzero support."""
    acc: dict = {}
    for coeff, m in terms:
        acc[m] = acc[m] + coeff if m in acc else coeff
    return holding(GridCertificate(sort_monomials(m for m, c in acc.items() if c), ()), acc)


def holding(cert: GridCertificate, terms: dict) -> TransSeries:
    """The finite series of `terms` {Monomial: coeff}, on `cert`, which must
    cover them; it holds them all, so it keeps no memo.  It drops the zeros
    and stores an integral coefficient as an int, as an expansion does."""
    terms = {m: _canon(c) for m, c in terms.items() if c}
    out = TransSeries(cert, lambda cutoff: {
        m: c for m, c in terms.items() if mono_cmp(m, cutoff) >= 0})
    out._held = terms
    return out


ZERO = from_terms([])


def const(c) -> TransSeries:
    return from_terms([(c, ONE)])


ONE_SERIES = const(1)


def mono_series(m: Monomial) -> TransSeries:
    return from_terms([(1, m)])


# -- linear operations ---------------------------------------------------------


def scale(s: TransSeries, c) -> TransSeries:
    """c*s; s itself when c is 1, and a series that holds its terms when
    s does."""
    c = _canon(c)
    if not c:
        return ZERO
    if c == 1:
        return s
    if s._held is not None:
        return holding(s.cert, {m: c * v for m, v in s._held.items()})

    def expander(cutoff):
        return {m: c * v for m, v in s.expand(cutoff).items()}

    return TransSeries(s.cert, expander)


def add(s: TransSeries, t: TransSeries) -> TransSeries:
    return sum_family((s, t))


def sum_family(fam: Iterable[TransSeries]) -> TransSeries:
    """Sum of a finite family (regrouping-invariant) as one flat sum node: a
    summand that is a lazy sum node contributes its own summands, so neither
    wide sums nor long chains of `add` cost recursion depth in expansion.  A
    sum of series that hold their terms holds its terms, on the same union
    certificate."""
    fam = list(fam)
    if not fam:
        return ZERO
    if len(fam) == 1:
        return fam[0]
    cert = fam[0].cert.union(*(s.cert for s in fam[1:]))
    summands = [u for s in fam for u in (s._summands or (s,))]
    if all(s._held is not None for s in summands):
        acc: dict = {}
        for s in summands:
            for m, c in s._held.items():
                acc[m] = acc[m] + c if m in acc else c
        return holding(cert, acc)

    def expander(cutoff):
        acc: dict = {}
        for s in summands:
            for m, c in s.expand(cutoff).items():
                acc[m] = acc[m] + c if m in acc else c
        return acc

    out = TransSeries(cert, expander)
    out._summands = summands
    return out


def mul(s: TransSeries, t: TransSeries) -> TransSeries:
    """Cauchy product; every coefficient is the full finite convolution.
    The product of two terms is one term.  A product with one term c*m is
    a shift, the other factor's terms each times c*m on the product
    certificate, and `scale` when m is 1.

    The general product convolves integers: it writes each factor's
    expansion as int numerators over one common denominator and divides
    each result once.  It sorts the right expansion, decreasing; u*v
    falls as v does, so each row of the left one ends at its first
    product below the cutoff and forms the pairs it keeps and one more."""
    s1, t1 = one_term(s), one_term(t)
    if s1 is not None and t1 is not None:
        return from_terms([(s1.coeff * t1.coeff, mono_mul(s1.mono, t1.mono))])
    if s1 is not None or t1 is not None:
        (c, m), f = (s1, t) if t1 is None else (t1, s)
        if m is ONE:
            return scale(f, c)
        shrink = mono_inv(m)
        return TransSeries(s.cert.product(t.cert), lambda cutoff: {
            mono_mul(u, m): a * c
            for u, a in f.expand(mono_mul(cutoff, shrink)).items()})
    cert = s.cert.product(t.cert)
    shrink = None    # the inverses of the factors' grid maxima

    def expander(cutoff):
        nonlocal shrink
        # expand never calls the expander of a trivial product certificate
        if shrink is None:
            shrink = (mono_inv(t.cert.grid_max()), mono_inv(s.cert.grid_max()))
        left = s.expand(mono_mul(cutoff, shrink[0]))
        right = t.expand(mono_mul(cutoff, shrink[1]))
        dl = math.lcm(*(a.denominator for a in left.values()))
        dr = math.lcm(*(b.denominator for b in right.values()))
        row = [(v, right[v].numerator * (dr // right[v].denominator))
               for v in sort_monomials(right)]
        acc: dict = {}
        for u, a in left.items():
            a = a.numerator * (dl // a.denominator)
            for v, b in row:
                w = mono_mul(u, v)
                if mono_cmp(w, cutoff) < 0:
                    break
                acc[w] = acc[w] + a * b if w in acc else a * b
        d = dl * dr
        return acc if d == 1 else {w: Fraction(n, d) for w, n in acc.items()}

    return TransSeries(cert, expander)


def dominant_decompose(s: TransSeries, lt: Optional[Term] = None) -> tuple:
    """Unique (c, d, eps) with s = c*d*(1+eps) and eps infinitesimal; `lt`
    is the leading term of s when the caller has it."""
    if lt is None:
        lt = s.leading_term()
    if lt is None:
        raise DomainError("the zero series has no dominant decomposition")
    c, d = lt.coeff, lt.mono
    unit = mul(s, mono_series(d.inv()))
    eps = add(scale(unit, Fraction(1) / c), scale(ONE_SERIES, -1))
    return c, d, eps


# -- geometric and lazy summation machinery -----------------------------------


def _infinitesimal_bases(cert: GridCertificate, dom: Monomial) -> tuple:
    """Rewrite the part of the grid at or below `dom` with bases <= dom, a
    decreasing tuple: the bases at or below dom, and p*z at or below dom
    for each grid point p above dom and each ratio z.  Sound because the
    grid points above dom form a downward closed lattice region."""
    out = [b for b in cert.bases if mono_cmp(b, dom) <= 0]
    for p, _ in _walk(cert):
        if mono_cmp(p, dom) <= 0:
            break
        for z in cert.ratios:
            q = mono_mul(p, z)
            if mono_cmp(q, dom) <= 0:
                out.append(q)
    return sort_monomials(out)


# level-bound iterations, and summands sum_lazy pulls, before a refusal
LEVEL_FUEL = 4_096


def _level_cap(start: Monomial, rho: Monomial, cutoff: Monomial) -> int:
    """The number of j >= 0 with start*rho^j >= cutoff, for infinitesimal
    rho; BudgetExceededError once it would exceed LEVEL_FUEL."""
    count = 0
    bound = start
    while mono_cmp(bound, cutoff) >= 0:
        count += 1
        if count > LEVEL_FUEL:
            raise BudgetExceededError(
                f"level bound above {cutoff.render()} exceeded "
                f"{LEVEL_FUEL} levels")
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
    tight = TransSeries(GridCertificate.of(tight_bases, eps.cert.ratios), eps.expand)
    rho = tight_bases[0]    # lt.mono, the largest of the tight bases
    cert = GridCertificate.of([ONE], eps.cert.ratios + tight_bases)
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
                acc[m] = acc[m] + ck * v if m in acc else ck * v
        return acc

    return TransSeries(cert, expander)


def one_term(s: TransSeries) -> Optional[Term]:
    """The term c*m of s when its certificate is the one base m and no
    ratio, else None (zero included).  The inverse, powers, log and exp of
    such a term have closed forms, with the certificates the general
    constructions would build."""
    cert = s.cert
    if cert.ratios or cert.is_trivial or cert.base(1) is not None:
        return None
    m = cert.base(0)
    c = s.expand(m).get(m)
    return None if c is None else Term(c, m)


def invert(s: TransSeries) -> TransSeries:
    """Multiplicative inverse: (1/c)*m^-1 of one term c*m, otherwise via
    dominant decomposition and Neumann series."""
    lt = one_term(s)
    if lt is not None:
        return from_terms([(Fraction(1) / lt.coeff, mono_inv(lt.mono))])
    lt = s.leading_term()
    if lt is None:
        raise DivisionByZeroSeries("cannot invert the zero series")
    c, d, eps = dominant_decompose(s, lt)
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
    zmax = cert.ratios[0]
    gmax = cert.grid_max()
    it = iter(summands)
    consumed: list = []
    checked: dict = {}    # monomial -> the most ratio factors it was checked for

    def expander(cutoff):
        cap = _level_cap(gmax, zmax, cutoff) - 1
        # the summands past the cap must be silent above the cutoff: a term
        # there needs more ratio factors than any grid point at or above
        # the cutoff has, so the audit refuses it
        while len(consumed) <= cap + SILENT_SUMMANDS:
            if len(consumed) > LEVEL_FUEL:
                raise BudgetExceededError("sum_lazy pulled too many summands")
            series = next(it, None)
            if series is None:
                break
            consumed.append(series)
        acc: dict = {}
        new: dict = {}    # unchecked monomial -> the ratio factors it needs
        for level, series in enumerate(consumed):
            for m, c in series.expand(cutoff).items():
                if checked.get(m, -1) < level:
                    new[m] = level
                acc[m] = acc[m] + c if m in acc else c
        m = _escape(cert, new)
        if m is not None:
            raise SummabilityViolationError(
                f"monomial {m.render()} of the level-{new[m]} summand "
                f"is outside the declared grid", witness=m)
        checked.update(new)
        return acc

    return TransSeries(cert, expander)


def extend_strongly_linear(image: Callable[[Monomial], TransSeries],
                           s: TransSeries, cert: GridCertificate,
                           source_cutoff: Callable[[Monomial], Monomial]) -> TransSeries:
    """The unique strongly linear extension sum_m s_m * image(m) of a
    Noetherian monomial map, on the image grid `cert` the caller certifies.

    An expansion at a cutoff expands s at source_cutoff(cutoff), which must
    reach every m whose image has a term at or above the cutoff; `image`
    is called once per source monomial and expansion (a caller that wants
    its images kept caches them), and an image monomial outside the grid
    raises SummabilityViolationError naming it."""
    checked: set = set()

    def expander(cutoff):
        terms = s.expand(source_cutoff(cutoff))
        images = {m: image(m).expand(cutoff) for m in terms}
        acc: dict = {}
        for m, img in images.items():
            coeff = terms[m]
            for mi, ci in img.items():
                acc[mi] = acc[mi] + coeff * ci if mi in acc else coeff * ci
        new = [mi for mi in acc if mi not in checked]
        _audit_images(cert, new, lambda mi: [m for m, img in images.items() if mi in img])
        checked.update(new)
        return acc

    return TransSeries(cert, expander)


def _audit_images(cert: GridCertificate, images: Iterable[Monomial],
                  sources: Callable[[Monomial], list]) -> None:
    """Refuse the largest of the image monomials `images` that lies outside
    the grid `cert`, naming the largest source monomial whose image holds
    it; `sources(mi)` lists those, and only a refusal calls it."""
    mi = _escape(cert, dict.fromkeys(images, 0))
    if mi is not None:
        raise SummabilityViolationError(
            f"image monomial {mi.render()} of {mono_max(sources(mi)).render()} "
            f"escapes the declared image grid", witness=mi)


# -- comparison and rendering --------------------------------------------------


def depth_cutoff(s: TransSeries, depth: int):
    """(cutoff, exhausted): the (depth+1)-th grid candidate of s, or the
    last one if the grid has fewer points; a negative depth is refused."""
    if depth < 0:
        raise PreconditionError(f"depth {depth} names no grid position")
    last, count = None, 0
    for last in itertools.islice(s._candidates(), min(depth + 1, sys.maxsize)):
        count += 1
    return last, count <= depth


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
