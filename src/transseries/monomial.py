"""The log-exp monomial group.

A monomial is  prod_k l_k^{r_k} * exp(L)  where l_0 = x, l_{k+1} = log l_k,
the r_k are exact rationals, and L (the exp argument) is a *finite* purely
large sum of coefficient/monomial pairs.  Integral exponents and exp
coefficients are stored as ints, the others as Fractions: both are exact,
and ints are cheaper to add and hash.  Finiteness of L is what makes the
group order decidable: comparison reduces to the sign of the leading term
of the pre-logarithm difference, a finite computation grounded by falling
exponential height.

Canonical form: exp arguments never contain a bare atom l_j with j >= 1
(such a term c*l_j is absorbed as l_{j-1}^c into the log-power part), so
structural identity coincides with equality in the group.  Instances are
interned; equality is identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Mapping

from .errors import ResourceError
from .limits import LIMITS

Rat = Fraction

_INTERN: dict = {}


class Monomial:
    __slots__ = ("log_powers", "exp_terms", "height", "log_depth",
                 "_dagger", "_pre_log", "_hash")

    log_powers: tuple  # ((atom_index, exponent), ...) ascending index
    exp_terms: tuple   # ((coeff, Monomial), ...) decreasing, all > 1
    height: int        # exponential height
    log_depth: int     # largest iterated-log index, exp arguments included

    def __init__(self, log_powers, exp_terms):
        # not for direct use: canonical instances come from make_monomial
        # and the group operations
        self.log_powers = log_powers
        self.exp_terms = exp_terms
        self.height = max((u.height + 1 for _, u in exp_terms), default=0)
        self.log_depth = max([k for k, _ in log_powers]
                             + [u.log_depth for _, u in exp_terms], default=0)
        self._dagger = None
        self._pre_log = None
        self._hash = hash((log_powers, exp_terms))

    def __hash__(self):
        return self._hash

    # interning makes identity the equality; inherit object.__eq__

    def __repr__(self):
        return f"Monomial({self.render()})"

    # -- ordering ---------------------------------------------------------

    def __lt__(self, other):
        return mono_cmp(self, other) < 0

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        return mono_mul(self, other)

    def inv(self) -> "Monomial":
        return mono_inv(self)

    # -- structure --------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return not self.log_powers and not self.exp_terms

    def atom_index(self):
        """Index j if this is the bare atom l_j, else None."""
        if not self.exp_terms and len(self.log_powers) == 1:
            k, r = self.log_powers[0]
            if r == 1:
                return k
        return None

    def is_large(self) -> bool:
        """m > 1 in the group order."""
        return mono_cmp(self, ONE) > 0

    def is_small(self) -> bool:
        """m < 1 (infinitesimal)."""
        return mono_cmp(self, ONE) < 0

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for k, r in self.log_powers:
            parts.append(_atom_name(k) + _power_suffix(r))
        if self.exp_terms:
            parts.append("exp(" + format_term_sum(self.exp_terms) + ")")
        return "*".join(parts)


def _atom_name(k: int) -> str:
    return "log(" * k + "x" + ")" * k


def _power_suffix(r: Rat) -> str:
    if r == 1:
        return ""
    if r.denominator == 1:
        return f"^{r.numerator}"
    return f"^({r})"


def format_term_sum(terms: Iterable[tuple]) -> str:
    """Render ((coeff, monomial), ...) as `a*m1 + b*m2 - ...` (parseable)."""
    out = []
    for coeff, mono in terms:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if mono.is_one:
            body = str(mag)
        elif mag == 1:
            body = mono.render()
        else:
            body = f"{mag}*{mono.render()}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out) if out else "0"


# -- construction ----------------------------------------------------------


def make_monomial(log_powers: Mapping[int, Rat],
                  exp_terms: Iterable = ()) -> Monomial:
    """Build the canonical, interned monomial with the given data.

    `log_powers` maps atom index to rational exponent; `exp_terms` is any
    iterable of (coeff, Monomial) pairs with every monomial > 1.  Bare-atom
    exp components are absorbed, zero entries dropped, terms merged.
    """
    powers: dict = {}
    for k, r in log_powers.items():
        if r:
            powers[k] = powers.get(k, 0) + _canon(Fraction(r))

    merged: dict = {}
    for c, u in exp_terms:
        if c:
            merged[u] = merged.get(u, 0) + _canon(Fraction(c))

    cleaned = []
    for u, c in merged.items():
        if not c:
            continue
        j = u.atom_index()
        if j is not None and j >= 1:
            powers[j - 1] = powers.get(j - 1, 0) + c
        else:
            cleaned.append((c, u))

    lp = tuple(sorted((k, _canon(r)) for k, r in powers.items() if r))
    et = tuple(sorted(((_canon(c), u) for c, u in cleaned),
                      key=lambda t: _MONO_KEY(t[1]), reverse=True))
    return _intern(lp, et)


def _canon(r):
    """An exact rational as an int when it is integral; an int as it is."""
    return r.numerator if r.__class__ is Fraction and r.denominator == 1 else r


def _intern(lp: tuple, et: tuple, checked: bool = True) -> Monomial:
    """The interned monomial with canonical data (lp, et), made if new.
    Unless `checked` is false, a monomial out of bounds is refused."""
    key = (lp, et)
    m = _INTERN.get(key)
    if m is None:
        for c, u in et:
            if not u.is_large():
                raise ValueError(f"exp argument term {u.render()} is not purely large")
        m = Monomial(lp, et)
        if checked:
            _check_bounds(m)
        _INTERN[key] = m
    elif checked:
        # checked on hits too: the bounds may have been lowered since then
        _check_bounds(m)
    return m


def _check_bounds(m: Monomial) -> None:
    if m.height > LIMITS.height_bound:
        raise ResourceError(
            f"monomial height {m.height} exceeds bound {LIMITS.height_bound}")
    if m.log_depth > LIMITS.log_depth_bound:
        raise ResourceError(
            f"log depth {m.log_depth} exceeds bound {LIMITS.log_depth_bound}")


ONE = make_monomial({})
X = make_monomial({0: 1})


def atom(k: int) -> Monomial:
    """The k-th iterated-log atom: atom(0) = x, atom(k) = log^k(x)."""
    return _intern(((k, 1),), ())


# -- group laws ------------------------------------------------------------


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    # Products of canonical monomials are merged directly; make_monomial
    # canonicalises untrusted data.  The merged exp terms keep their
    # monomials, so none needs absorbing and none stops being large.
    powers = dict(a.log_powers)
    for k, r in b.log_powers:
        r = powers.get(k, 0) + r
        if r:
            powers[k] = _canon(r)
        else:
            del powers[k]
    return _intern(tuple(sorted(powers.items())),
                   _merge_terms(a.exp_terms, b.exp_terms))


def _merge_terms(p: tuple, q: tuple) -> tuple:
    """The sum of two decreasing exp-term tuples, decreasing, without the
    terms that cancel."""
    if not p or not q:
        return p or q
    out = []
    i = j = 0
    while i < len(p) and j < len(q):
        (c, u), (e, v) = p[i], q[j]
        if u is v:
            s = c + e
            if s:
                out.append((_canon(s), u))
            i += 1
            j += 1
        elif mono_cmp(u, v) > 0:
            out.append(p[i])
            i += 1
        else:
            out.append(q[j])
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return tuple(out)


def mono_inv(a: Monomial) -> Monomial:
    # negation keeps the order and canonicity of both tuples
    return _intern(tuple((k, -r) for k, r in a.log_powers),
                   tuple((-c, u) for c, u in a.exp_terms))


def mono_pow(a: Monomial, r) -> Monomial:
    r = _canon(Fraction(r))
    if not r:
        return ONE
    # scaling by r != 0 keeps them too
    return _intern(tuple((k, _canon(p * r)) for k, p in a.log_powers),
                   tuple((_canon(c * r), u) for c, u in a.exp_terms))


# -- the group order -------------------------------------------------------


@lru_cache(maxsize=None)
def mono_cmp(a: Monomial, b: Monomial) -> int:
    """Total order on monomials: sign of ell(a) - ell(b).

    ell is the pre-logarithm; the difference is a finite series whose
    dominant coefficient decides.  Both pre-logarithms are decreasing, so
    one lockstep walk finds it.  Recursion on strictly smaller exponential
    height, grounded by the same walk over the atom indices at height zero.
    """
    if a is b:
        return 0
    if a.exp_terms or b.exp_terms:
        p, q = pre_log_terms(a), pre_log_terms(b)
        larger = _larger
    else:
        # l_j > l_k iff j < k; the pairs are (index, exponent), so swap
        p = [(r, k) for k, r in a.log_powers]
        q = [(r, k) for k, r in b.log_powers]
        larger = int.__lt__
    i = j = 0
    while i < len(p) and j < len(q):
        (c, u), (e, v) = p[i], q[j]
        if u == v:  # identity for interned monomials
            if c != e:
                return 1 if c > e else -1
            i += 1
            j += 1
        elif larger(u, v):
            return 1 if c > 0 else -1
        else:
            return -1 if e > 0 else 1
    if i < len(p):
        return 1 if p[i][0] > 0 else -1
    if j < len(q):
        return -1 if q[j][0] > 0 else 1
    return 0


def _larger(u: Monomial, v: Monomial) -> bool:
    return mono_cmp(u, v) > 0


_MONO_KEY = cmp_to_key(mono_cmp)


def mono_max(monos: Iterable[Monomial]) -> Monomial:
    return max(monos, key=_MONO_KEY)


def sort_monomials(monos: Iterable[Monomial]) -> list:
    return sorted(monos, key=_MONO_KEY, reverse=True)


# -- pre-logarithm and logarithmic derivative ------------------------------


def pre_log_terms(m: Monomial) -> tuple:
    """ell(m) as a finite tuple of (coeff, monomial) terms, decreasing.

    Its atoms are not bound-checked: comparing monomials within the bounds
    must not fail.  Cached for monomials with exp terms; at height zero the
    atoms already decrease, and building the tuple is cheap."""
    if m._pre_log is not None:
        return m._pre_log
    terms = tuple((r, _intern(((k + 1, 1),), (), checked=False)) for k, r in m.log_powers)
    if m.exp_terms:
        m._pre_log = tuple(sorted(terms + m.exp_terms, key=lambda t: _MONO_KEY(t[1]),
                                  reverse=True))
        return m._pre_log
    return terms


def dagger_terms(m: Monomial) -> tuple:
    """m-dagger = m'/m = (ell m)' as a finite merged term tuple.

    Atom rule: dagger(l_k) = (l_0 l_1 ... l_k)^{-1}; exp arguments
    differentiate termwise via u' = u * dagger(u).
    """
    if m._dagger is None:
        acc: dict = {}
        for k, r in m.log_powers:
            d = make_monomial({i: -1 for i in range(k + 1)})
            acc[d] = acc.get(d, 0) + r
        for c, u in m.exp_terms:
            for dc, dm in dagger_terms(u):
                key = mono_mul(u, dm)
                acc[key] = acc.get(key, 0) + c * dc
        m._dagger = tuple((c, mo) for mo, c in acc.items() if c)
    return m._dagger


def deriv_terms(m: Monomial) -> list:
    """m' = m * dagger(m) as a finite term list."""
    return [(c, mono_mul(m, d)) for c, d in dagger_terms(m)]


def pre_log(m: Monomial):
    """ell(m) as a TransSeries (purely large or zero); every monomial of it
    is checked against the bounds."""
    from .series import from_terms
    terms = pre_log_terms(m)
    for _, u in terms:
        _check_bounds(u)
    return from_terms(terms)
