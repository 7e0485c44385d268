"""Shared corpus builders and comparison helpers for the test suite.

Everything is seeded: the suite must be byte-reproducible run to run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import takewhile

from transseries import (ONE, X, ZERO, GridCertificate, PowerSeries,
                         PSJointCert, TransSeries, add, derive, from_terms,
                         invert, make_monomial, mono_cmp, mono_inv, mono_mul,
                         mono_pow, mul, sum_family)
from transseries.series import _walk, compare_to_depth

X_INV = mono_inv(X)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_fraction(r: random.Random, lo=-4, hi=4) -> Fraction:
    num = r.randint(lo, hi)
    den = r.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_log_monomial(r: random.Random, depth: int = 2):
    """A height-0 monomial: rational powers of x, log x, log log x."""
    powers = {}
    for k in range(depth + 1):
        if r.random() < 0.55:
            e = rand_fraction(r)
            if e:
                powers[k] = e
    return make_monomial(powers)


def rand_monomial(r: random.Random, allow_exp: bool = True):
    m = rand_log_monomial(r)
    if allow_exp and r.random() < 0.4:
        arg = rand_log_monomial(r, depth=1)
        while not arg.is_large():
            arg = rand_log_monomial(r, depth=1)
        coeff = Fraction(r.choice([-2, -1, 1, 2]))
        m = m * make_monomial({}, [(coeff, arg)])
    return m


def rand_finite_series(r: random.Random, nterms: int = 3,
                       allow_exp: bool = False) -> TransSeries:
    terms = []
    for _ in range(r.randint(1, nterms)):
        c = rand_fraction(r)
        if not c:
            c = Fraction(1)
        terms.append((c, rand_monomial(r, allow_exp)))
    return from_terms(terms)


def rand_grid_series(r: random.Random) -> TransSeries:
    """Finite or genuinely infinite-support series with a small grid,
    exponential monomials included."""
    base = rand_finite_series(r, 3, allow_exp=r.random() < 0.5)
    if r.random() < 0.5:
        return base
    # infinite tail: divide by 1 - z for a small monomial z
    z = mono_pow(X_INV, r.choice([1, 2]))
    unit = from_terms([(1, ONE), (Fraction(-1, r.choice([1, 2])), z)])
    return base * invert(unit)


def assert_depth_equal(s: TransSeries, t: TransSeries, depth: int, msg: str = ""):
    equal, cutoff, bad = compare_to_depth(s, t, depth)
    assert equal, (
        f"{msg or 'series differ'}: first discrepancy "
        f"{bad[0].coeff} * {bad[0].mono.render()} (cutoff "
        f"{cutoff.render() if cutoff else 'none'})")


def series_of(*terms) -> TransSeries:
    """from_terms with (coeff, monomial) argument pairs."""
    return from_terms(list(terms))


# -- oracles built from the kernel's primitives ---------------------------------


def points_above(cert: GridCertificate, bound) -> dict:
    """{m: vs} over the grid points m >= bound of `cert`, taken from one
    walk of the certificate while its points are at or above the bound;
    the walk is charged as `_escape` charges it."""
    return dict(takewhile(lambda p: mono_cmp(p[0], bound) >= 0, _walk(cert)))


def eager_product(a: GridCertificate, b: GridCertificate) -> GridCertificate:
    """The product of two certificates with every base product formed and
    sorted at once: the oracle of the bases a product pulls."""
    return GridCertificate.of([mono_mul(u, w) for u in a.bases for w in b.bases],
                              a.ratios + b.ratios)


def eager_union(*certs: GridCertificate) -> GridCertificate:
    """The union of certificates with every base sorted at once."""
    return GridCertificate.of([b for c in certs for b in c.bases],
                              [z for c in certs for z in c.ratios])


def equal_below(s: TransSeries, t: TransSeries, cutoff) -> bool:
    """Exact equality of all terms with monomial >= cutoff."""
    return s.expand(cutoff) == t.expand(cutoff)


def derive_n(s: TransSeries, n: int) -> TransSeries:
    """The n-th derivative, by n derivations."""
    for _ in range(n):
        s = derive(s)
    return s


def from_coeffs(coeffs) -> PowerSeries:
    """The polynomial with the given coefficients, joint certificate the
    union of their grids with the factor 1."""
    coeffs = list(coeffs)
    grid = GridCertificate.of(())
    for c in coeffs:
        grid = grid.union(c.cert)
    joint = PSJointCert(grid, frozenset([ONE]))
    return PowerSeries(lambda k: coeffs[k] if k < len(coeffs) else ZERO,
                       finite_degree=max(len(coeffs) - 1, 0), joint=joint)


def ps_add(p: PowerSeries, q: PowerSeries) -> PowerSeries:
    """P + Q coefficientwise, with the union of the joint certificates."""
    fin = None
    if p.is_finite and q.is_finite:
        fin = max(p.finite_degree, q.finite_degree)
    joint = None
    if p.joint and q.joint:
        joint = PSJointCert(p.joint.grid.union(q.joint.grid),
                            p.joint.factors + q.joint.factors)
    return PowerSeries(lambda k: add(p.coeff(k), q.coeff(k)),
                       finite_degree=fin, joint=joint)


def ps_mul(p: PowerSeries, q: PowerSeries) -> PowerSeries:
    """P * Q by the Cauchy product of coefficients; the joint bases are the
    products of the two base sets."""
    fin = None
    if p.is_finite and q.is_finite:
        fin = p.finite_degree + q.finite_degree
    joint = None
    if p.joint and q.joint:
        joint = PSJointCert(p.joint.grid.product(q.joint.grid),
                            p.joint.factors + q.joint.factors)
    return PowerSeries(
        lambda k: sum_family([mul(p.coeff(i), q.coeff(k - i)) for i in range(k + 1)]),
        finite_degree=fin, joint=joint)
