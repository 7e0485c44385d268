"""Series engine: arithmetic, dominance, summability machinery."""

import itertools
import sys
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from transseries import (ONE, ONE_SERIES, ZERO, BudgetExceededError,
                         DivisionByZeroSeries, compose, derive,
                         DomainError, GridCertificate, PreconditionError,
                         SummabilityViolationError, TransSeries, X, atom,
                         dominant_decompose, extend_strongly_linear,
                         from_terms, geometric_substitute, invert,
                         make_monomial, mono_cmp, mono_inv, mono_mul, mono_pow,
                         mono_series, mul, sum_family, sum_lazy)
from transseries.monomial import _canon, sort_monomials
from transseries.parser import parse_series
from transseries.series import (TERM_FUEL, _escape, _term_search, _walk,
                                compare_to_depth, depth_cutoff, one_term,
                                pow_const, render_series, scale)

from helpers import (assert_depth_equal, eager_product, eager_union,
                     points_above, rand_finite_series, rand_grid_series, rng)
from noetherian_oracle import check_product_noetherian

X_INV = mono_inv(X)
E_X = make_monomial({}, [(1, X)])
X2 = make_monomial({0: 2})


def xpow(k) -> "Monomial":
    return mono_pow(X, Fraction(k))


def geom() -> "TransSeries":
    """sum_k x^-k, the running infinite-support example."""
    return invert(from_terms([(1, ONE), (-1, X_INV)]))


# -- from_terms ---------------------------------------------------------------


def test_from_terms_merges():
    s = from_terms([(1, X), (1, X)])
    assert s.expand(X) == {X: Fraction(2)}


def test_from_terms_cancels_to_zero():
    s = from_terms([(1, X), (-1, X)])
    assert s.leading_term() is None


def test_from_terms_orders_terms():
    s = from_terms([(1, X_INV), (1, X)])
    assert sort_monomials(s.expand(X_INV)) == (X, X_INV)


# -- the representation of exact coefficients ------------------------------------
# an integral rational is an int, any other a Fraction, as for monomial exponents


def test_from_terms_stores_an_integral_fraction_as_an_int():
    c = from_terms([(Fraction(3), X)]).expand(X)[X]
    assert type(c) is int and c == 3
    merged = from_terms([(Fraction(1, 2), X), (Fraction(3, 2), X)]).expand(X)[X]
    assert type(merged) is int and merged == 2
    assert type(from_terms([(Fraction(1, 2), X)]).expand(X)[X]) is Fraction


def test_scale_stores_an_integral_factor_as_an_int():
    c = scale(mono_series(X), Fraction(2)).expand(X)[X]
    assert type(c) is int and c == 2


def test_invert_and_its_derivative_keep_integral_coefficients_int():
    inv = invert(from_terms([(1, ONE), (-1, X_INV)]))    # 1/(1 - 1/x)
    for s, want in ((inv, [1] * 13), (derive(inv), [0, 0] + list(range(-1, -12, -1)))):
        d = s.expand(xpow(-12))
        assert [d.get(xpow(-k), 0) for k in range(13)] == want
        assert all(type(c) is int for c in d.values())


def test_exact_backend_constants_are_int_when_integral():
    for got, want in ((pow_const(4, Fraction(1, 2)), 2),
                      (pow_const(Fraction(1, 2), -2), 4),
                      (_canon(Fraction(6, 3)), 2)):
        assert type(got) is int and got == want
    assert type(pow_const(2, -1)) is Fraction and pow_const(2, -1) == Fraction(1, 2)


# -- add ------------------------------------------------------------------------


def test_add_cancels_constants():
    s = from_terms([(1, X), (1, ONE)]) + from_terms([(-1, ONE)])
    assert s.expand(mono_pow(X_INV, 2)) == {X: Fraction(1)}


def test_add_interleaves_infinite_streams():
    # sum x^-k minus sum x^-2k leaves the odd exponents
    odd = geom() - invert(from_terms([(1, ONE), (-1, xpow(-2))]))
    d = odd.expand(xpow(-8))
    assert [(d[m], m) for m in sort_monomials(d)] == [
        (Fraction(1), xpow(-1)), (Fraction(1), xpow(-3)),
        (Fraction(1), xpow(-5)), (Fraction(1), xpow(-7))]


def test_long_add_chain_expands_without_deep_recursion():
    s = ZERO
    for k in range(1500):
        s = s + mono_series(xpow(-k))
    assert s.expand(xpow(-1499)) == {xpow(-k): 1 for k in range(1500)}
    assert render_series(s, 2) == "1 + x^-1 + O(x^-2)"


def test_operators_take_series_only():
    # a constant enters as const(c), a monomial as mono_series(m)
    with pytest.raises(TypeError):
        geom() + 1
    with pytest.raises(TypeError):
        1 - geom()
    with pytest.raises(TypeError):
        geom() * Fraction(2)


def test_add_zero_identity():
    s = rand_grid_series(rng(3))
    assert_depth_equal(s + ZERO, s, 8)


# -- mul -----------------------------------------------------------------------


def test_mul_difference_of_squares():
    lhs = mul(from_terms([(1, ONE), (1, X_INV)]),
              from_terms([(1, ONE), (-1, X_INV)]))
    assert lhs.expand(xpow(-3)) == {ONE: Fraction(1), xpow(-2): Fraction(-1)}


def test_mul_telescopes_geometric():
    prod = mul(geom(), from_terms([(1, ONE), (-1, X_INV)]))
    assert_depth_equal(prod, ONE_SERIES, 10)


def test_mul_monomials():
    s = mul(mono_series(X), mono_series(E_X))
    assert s.expand(ONE) == {mono_mul(X, E_X): Fraction(1)}


def test_mul_coefficients_match_fiber_convolution():
    # brute-force convolution via the Noetherian-lab fiber report
    r = rng(17)
    for _ in range(12):
        s = rand_finite_series(r, 3)
        t = rand_finite_series(r, 3)
        sd = s.expand(s.cert.bases[-1]) if s.cert.bases else {}
        td = t.expand(t.cert.bases[-1]) if t.cert.bases else {}
        if not sd or not td:
            continue
        fibers = check_product_noetherian(sd.keys(), td.keys(), mono_cmp).fibers
        prod = mul(s, t)
        for m, pairs in fibers.items():
            want = sum(sd[u] * td[v] for u, v in pairs)
            got = prod.expand(m).get(m, 0)
            assert got == want


def _pair_loop(s, t, cutoff) -> dict:
    """The terms of s*t at or above `cutoff` by the full double loop over
    the factors' expansions, in Fraction arithmetic, integral values as
    ints."""
    left = s.expand(mono_mul(cutoff, mono_inv(t.cert.grid_max())))
    right = t.expand(mono_mul(cutoff, mono_inv(s.cert.grid_max())))
    acc = {}
    for u, a in left.items():
        for v, b in right.items():
            w = mono_mul(u, v)
            if mono_cmp(w, cutoff) >= 0:
                acc[w] = acc.get(w, Fraction(0)) + Fraction(a) * Fraction(b)
    return {w: _canon(c) for w, c in acc.items() if c}


def _kernel_factors() -> list:
    """Factors with int and Fraction coefficients: factorial denominators,
    coprime prime denominators, terms whose pair products cancel, finite
    and infinite grids."""
    primes = (2, 3, 5, 7, 11, 13)
    out = [
        from_terms([(Fraction(1, factorial(k)), xpow(-k)) for k in range(9)]),
        from_terms([(Fraction(k + 1, p), xpow(-k)) for k, p in enumerate(primes)]),
        from_terms([(Fraction(p, q), xpow(-k)) for k, (p, q)
                    in enumerate(zip(primes, primes[1:] + primes[:1]))]),
        # (a + b*z)(a - b*z) = a^2 - b^2*z^2 and (1 + z)(1 - z + z^2) = 1 + z^3
        from_terms([(Fraction(2, 3), ONE), (Fraction(5, 7), X_INV)]),
        from_terms([(Fraction(2, 3), ONE), (Fraction(-5, 7), X_INV)]),
        from_terms([(1, ONE), (1, X_INV)]),
        from_terms([(1, ONE), (-1, X_INV), (1, xpow(-2))]),
        from_terms([(3, X), (-6, ONE), (Fraction(9, 2), X_INV)]),
    ]
    out += [parse_series(t) for t in ("exp(1/x)", "1/(1 - 2/x - 3/x^2)",
                                      "(1 + 3/x)^(1/2)", "log(x)/(1 - 1/x)",
                                      "exp(1/x)/(1 + 1/x)", "1/(3 - 1/x)")]
    return out


def test_integer_product_kernel_matches_the_pair_loop():
    r = rng(36)
    pool = _kernel_factors() + [rand_grid_series(rng(seed)) for seed in range(24)]
    general = [f for f in pool if one_term(f) is None]
    pairs = list(itertools.combinations_with_replacement(general[:14], 2))
    pairs += [(r.choice(general), r.choice(general)) for _ in range(60)]
    types = set()
    for s, t in pairs:
        p = mul(s, t)
        # three cutoffs, each deeper than the last, on the same node
        for depth in (3, 9, 20):
            cutoff = depth_cutoff(p, depth)[0]
            got = p.expand(cutoff)
            want = _pair_loop(s, t, cutoff)
            assert {w: (c, type(c)) for w, c in got.items()} == \
                {w: (c, type(c)) for w, c in want.items()}, (s, t, depth)
            types.update(map(type, got.values()))
    assert types == {int, Fraction}
    # pair products that cancel leave no term, and integral sums are ints
    f = _kernel_factors()
    assert mul(f[3], f[4]).expand(xpow(-3)) == {ONE: Fraction(4, 9), xpow(-2): Fraction(-25, 49)}
    got = mul(f[5], f[6]).expand(xpow(-4))
    assert got == {ONE: 1, xpow(-3): 1} and {type(c) for c in got.values()} == {int}


def test_ring_axioms_randomized():
    r = rng(29)
    for _ in range(40):
        a = rand_grid_series(r)
        b = rand_grid_series(r)
        c = rand_grid_series(r)
        assert_depth_equal(mul(a, b), mul(b, a), 6, "commutativity")
        assert_depth_equal(mul(a, mul(b, c)), mul(mul(a, b), c), 6,
                           "associativity")
        assert_depth_equal(mul(a, b + c), mul(a, b) + mul(a, c), 6,
                           "distributivity")
        assert_depth_equal(mul(a, ONE_SERIES), a, 6, "unit")


# -- dominance -------------------------------------------------------------------


def test_dominant_decompose_examples():
    c, d, eps = dominant_decompose(from_terms([(2, X), (1, ONE)]))
    assert (c, d) == (Fraction(2), X)
    assert eps.expand(xpow(-2)) == {X_INV: Fraction(1, 2)}

    c, d, eps = dominant_decompose(mono_series(X_INV))
    assert (c, d) == (Fraction(1), X_INV)
    assert eps.leading_term() is None

    c, d, eps = dominant_decompose(from_terms([(3, E_X), (1, X)]))
    assert (c, d) == (Fraction(3), E_X)
    want = mono_mul(X, make_monomial({}, [(-1, X)]))
    assert eps.expand(want) == {want: Fraction(1, 3)}


def test_dominant_decompose_zero_rejected():
    with pytest.raises(DomainError):
        dominant_decompose(ZERO)


# -- truncation -------------------------------------------------------------------


def _truncation(s, cutoff):
    """The finite series of the terms of s strictly above cutoff."""
    return from_terms([(c, m) for m, c in s.expand(cutoff).items()
                       if mono_cmp(m, cutoff) > 0])


def test_truncate_below_support_is_noop():
    s = geom()
    t = _truncation(s, xpow(-20))
    assert_depth_equal(s, t, 10)


def test_truncate_geometric():
    t = _truncation(geom(), xpow(-3))
    assert t.expand(xpow(-9)) == {ONE: Fraction(1), xpow(-1): Fraction(1),
                                  xpow(-2): Fraction(1)}


# -- families ---------------------------------------------------------------------


def test_sum_family_cancellation():
    s = sum_family([mono_series(X), mono_series(X_INV),
                    scale(mono_series(X), -1)])
    assert s.expand(xpow(-2)) == {X_INV: Fraction(1)}


def test_sum_family_partition_invariance():
    r = rng(53)
    fam = [rand_finite_series(r, 2) for _ in range(6)]
    total = sum_family(fam)
    for _ in range(5):
        shuffled = fam[:]
        r.shuffle(shuffled)
        k = r.randint(1, 5)
        part = sum_family([sum_family(shuffled[:k]), sum_family(shuffled[k:])])
        assert_depth_equal(total, part, 8, "partition invariance")


def test_sum_lazy_geometric_support():
    s = sum_lazy((mono_series(xpow(-k)) for k in range(100)),
                 GridCertificate.of([ONE], [X_INV]))
    assert s.expand(xpow(-2)) == {ONE: Fraction(1), X_INV: Fraction(1),
                                  xpow(-2): Fraction(1)}


def test_sum_lazy_arbitrary_coefficients():
    import math
    s = sum_lazy((scale(mono_series(xpow(-k)), math.factorial(k))
                  for k in range(64)),
                 GridCertificate.of([ONE], [X_INV]))
    got = s.expand(xpow(-4))
    assert got[xpow(-3)] == 6 and got[xpow(-4)] == 24


def test_sum_lazy_detects_certificate_violation():
    def produce():
        yield mono_series(ONE)
        yield mono_series(X)  # escapes the declared grid
    s = sum_lazy(produce(), GridCertificate.of([ONE], [X_INV]))
    with pytest.raises(SummabilityViolationError) as exc:
        s.expand(xpow(-1))
    assert exc.value.witness is X


def test_product_of_summable_families():
    # (s_i * t_j) sums to the product of the sums, finite scale
    r = rng(59)
    fam_s = [rand_finite_series(r, 2) for _ in range(4)]
    fam_t = [rand_finite_series(r, 2) for _ in range(4)]
    lhs = sum_family([mul(si, tj) for si in fam_s for tj in fam_t])
    rhs = mul(sum_family(fam_s), sum_family(fam_t))
    assert_depth_equal(lhs, rhs, 8)


def test_adding_finite_factors():
    # (s_i * delta^{f(i)}) stays summable for bounded delta
    r = rng(61)
    delta = from_terms([(1, ONE), (1, X_INV)])  # bounded, not infinitesimal
    fam = [rand_finite_series(r, 2) for _ in range(5)]
    fs = [r.randint(0, 3) for _ in fam]
    powers = {0: ONE_SERIES}
    for k in range(1, 4):
        powers[k] = mul(powers[k - 1], delta)
    total = sum_family([mul(s, powers[f]) for s, f in zip(fam, fs)])
    assert total.expand(xpow(-2)) is not None  # enumerates without violation


# -- geometric substitution -------------------------------------------------------


def test_geometric_all_ones_is_geometric_series():
    s = geometric_substitute(lambda k: 1, mono_series(X_INV))
    assert_depth_equal(s, geom(), 8)


def test_geometric_log_law():
    # the logarithm tail coefficient law: (-1)^(k-1)/k
    s = geometric_substitute(
        lambda k: Fraction(0) if k == 0 else Fraction((-1) ** (k - 1), k),
        mono_series(X_INV))
    assert s.expand(xpow(-3)) == {X_INV: Fraction(1),
                                  xpow(-2): Fraction(-1, 2),
                                  xpow(-3): Fraction(1, 3)}


def test_geometric_factorial_reciprocals():
    import math
    s = geometric_substitute(lambda k: Fraction(1, math.factorial(k)),
                             mono_series(X_INV))
    assert s.expand(xpow(-2)) == {ONE: Fraction(1), X_INV: Fraction(1),
                                  xpow(-2): Fraction(1, 2)}


def test_geometric_requires_infinitesimal():
    with pytest.raises(PreconditionError):
        geometric_substitute(lambda k: 1, mono_series(X))


def test_geometric_matches_invert():
    r = rng(67)
    for _ in range(10):
        s = rand_finite_series(r, 2)
        eps = mul(s, mono_series(xpow(-5)))  # force infinitesimal
        lt = eps.leading_term()
        if lt is None or not lt.mono.is_small():
            continue
        lhs = geometric_substitute(lambda k: 1, eps)
        rhs = invert(ONE_SERIES - eps)
        assert_depth_equal(lhs, rhs, 8)


def test_finite_coefficient_sequences():
    # coefficients that vanish past index 2: the sum stops at eps^2
    want = {ONE: 1, X_INV: 2, xpow(-2): 3}
    got = geometric_substitute(lambda k: k + 1 if k <= 2 else 0,
                               mono_series(X_INV))
    assert got.expand(xpow(-6)) == want


# -- inversion ---------------------------------------------------------------------


def test_invert_monomial():
    assert invert(mono_series(X)).expand(xpow(-2)) == {X_INV: Fraction(1)}


def test_invert_geometric():
    assert_depth_equal(invert(from_terms([(1, ONE), (-1, X_INV)])), geom(), 10)


def test_invert_exponential_case():
    s = scale(mul(mono_series(E_X), from_terms([(1, ONE), (1, X_INV)])), 2)
    inv = invert(s)
    e_neg = make_monomial({}, [(-1, X)])
    d = inv.expand(mono_mul(e_neg, xpow(-2)))
    assert d[e_neg] == Fraction(1, 2)
    assert d[mono_mul(e_neg, X_INV)] == Fraction(-1, 2)
    assert d[mono_mul(e_neg, xpow(-2))] == Fraction(1, 2)


def test_invert_zero_rejected():
    with pytest.raises(DivisionByZeroSeries):
        invert(ZERO)


def test_invert_roundtrip_corpus():
    r = rng(71)
    checked = 0
    for _ in range(50):
        s = rand_grid_series(r)
        if s.leading_term() is None:
            continue
        assert_depth_equal(mul(s, invert(s)), ONE_SERIES, 10, "s * 1/s")
        checked += 1
    assert checked >= 40


# -- strongly linear extension -------------------------------------------------------


def _shrink_by(growth):
    """The source cutoff of an image family whose supports stay at or below
    m * growth for every source monomial m."""
    return lambda cutoff: mono_mul(cutoff, growth.inv())


def test_extend_identity():
    s = geom()
    out = extend_strongly_linear(lambda m: mono_series(m), s, s.cert, _shrink_by(ONE))
    assert_depth_equal(out, s, 8)


def test_extend_shift_by_xinv():
    s = from_terms([(1, ONE), (1, X_INV)])
    out = extend_strongly_linear(
        lambda m: mono_series(mono_mul(m, X_INV)), s,
        GridCertificate.of([X_INV], [X_INV]), _shrink_by(X_INV))
    assert out.expand(xpow(-2)) == {X_INV: Fraction(1), xpow(-2): Fraction(1)}


def test_extend_square_morphism_is_multiplicative():
    s = from_terms([(1, ONE), (1, X_INV)])
    cert = GridCertificate.of([ONE], [xpow(-2)])
    sq = extend_strongly_linear(lambda m: mono_series(mono_mul(m, m)), s,
                                cert, _shrink_by(ONE))
    sq_of_square = extend_strongly_linear(
        lambda m: mono_series(mono_mul(m, m)), mul(s, s), cert, _shrink_by(ONE))
    assert_depth_equal(sq_of_square, mul(sq, sq), 8)


def test_extend_flags_escaping_images():
    s = from_terms([(1, ONE), (1, X_INV)])
    out = extend_strongly_linear(
        lambda m: mono_series(X2), s,
        GridCertificate.of([ONE], [X_INV]), _shrink_by(ONE))
    with pytest.raises(SummabilityViolationError):
        out.expand(ONE)
    # both sources reach the escaping image: the refusal names the larger,
    # in either order of the terms
    for terms in ([(1, ONE), (1, X_INV)], [(1, X_INV), (1, ONE)]):
        out = extend_strongly_linear(
            lambda m: mono_series(X2), from_terms(terms),
            GridCertificate.of([ONE], [X_INV]), _shrink_by(ONE))
        with pytest.raises(SummabilityViolationError,
                           match="^image monomial x\\^2 of 1 escapes"):
            out.expand(X_INV)


def _typed(terms: dict) -> dict:
    return {m: (c, type(c)) for m, c in terms.items()}


def test_an_expansion_stores_an_integral_coefficient_as_an_int():
    # whatever node adds the values, the memo fill stores them so
    assert _typed(parse_series("log(1+2/x)").expand(xpow(-4))) == {
        X_INV: (2, int), xpow(-2): (-2, int), xpow(-3): (Fraction(8, 3), Fraction),
        xpow(-4): (-4, int)}
    assert _typed(parse_series("exp(1/x)/2 + exp(1/x)/2").expand(ONE)) == {ONE: (1, int)}
    half = Fraction(1, 2)
    levels = sum_lazy([from_terms([(half, X_INV)]), from_terms([(half, X_INV)])],
                      GridCertificate.of([ONE], [X_INV]))
    assert _typed(levels.expand(X_INV)) == {X_INV: (1, int)}
    image = extend_strongly_linear(lambda m: ONE_SERIES,
                                   from_terms([(half, ONE), (half, X_INV)]),
                                   GridCertificate.of([ONE]), lambda cutoff: X_INV)
    assert _typed(image.expand(ONE)) == {ONE: (1, int)}


def test_compose_flags_images_outside_its_certificate(monkeypatch):
    import transseries.calculus as calculus
    image_grid = calculus._image_grid

    def losing_a_ratio(image, cert):
        grid, rho = image_grid(image, cert)
        assert X_INV in grid.ratios
        return GridCertificate.of(grid.bases, [z for z in grid.ratios if z is not X_INV]), rho

    monkeypatch.setattr(calculus, "_image_grid", losing_a_ratio)
    # 1/(1 - 1/x) o (x + 1) = 1 + x^-1 + 0*x^-2 + ...: without the ratio
    # x^-1 its certificate is the lone base 1, which x^-1 escapes
    out = compose(geom(), parse_series("x + 1"))
    with pytest.raises(SummabilityViolationError,
                       match="image monomial x\\^-1 of x\\^-1 escapes") as exc:
        out.expand(xpow(-3))
    assert exc.value.witness is X_INV


# -- refusals of lazy summation ----------------------------------------------------


def test_sum_lazy_refuses_a_stray_level_above_the_cutoff():
    # at cutoff x^-1 only levels 0 and 1 can reach; a level-3 summand that
    # still does breaks the level contract
    s = sum_lazy([ONE_SERIES, ZERO, ZERO, ONE_SERIES], GridCertificate.of([ONE], [X_INV]))
    with pytest.raises(SummabilityViolationError,
                       match="monomial 1 of the level-3 summand is outside the declared grid"
                       ) as exc:
        s.expand(X_INV)
    assert exc.value.witness is ONE


def test_sum_lazy_pulls_at_most_level_fuel_summands(monkeypatch):
    from itertools import repeat
    s = sum_lazy(repeat(ZERO), GridCertificate.of([ONE], [X_INV]))
    monkeypatch.setattr("transseries.series.LEVEL_FUEL", 3)
    with pytest.raises(BudgetExceededError, match="pulled too many summands"):
        s.expand(ONE)


def test_sum_lazy_refuses_an_empty_ratio_set():
    # summand k has level k, and without a ratio no level bounds anything:
    # even a finite family is refused, at construction
    with pytest.raises(PreconditionError, match="needs a grid ratio"):
        sum_lazy([ONE_SERIES, ONE_SERIES], GridCertificate.of([ONE]))


def test_sum_lazy_pull_count_and_budget_threshold(monkeypatch):
    from itertools import count
    from transseries.series import SILENT_SUMMANDS
    pulled = []

    def summands():
        for k in count():
            pulled.append(k)
            yield mono_series(xpow(-k))

    # at cutoff x^-3 levels 0..3 reach (cap 3), then the silent summands
    assert SILENT_SUMMANDS == 6
    s = sum_lazy(summands(), GridCertificate.of([ONE], [X_INV]))
    assert s.expand(xpow(-3)) == {xpow(-k): 1 for k in range(4)}
    assert len(pulled) == 3 + 1 + SILENT_SUMMANDS
    # a cutoff x^-c needs c + 1 + SILENT_SUMMANDS summands; the fuel L allows L + 1
    fuel = 10
    monkeypatch.setattr("transseries.series.LEVEL_FUEL", fuel)
    c = fuel - SILENT_SUMMANDS
    fits = sum_lazy(summands(), GridCertificate.of([ONE], [X_INV]))
    assert fits.expand(xpow(-c)) == {xpow(-k): 1 for k in range(c + 1)}
    over = sum_lazy(summands(), GridCertificate.of([ONE], [X_INV]))
    with pytest.raises(BudgetExceededError, match="pulled too many summands"):
        over.expand(xpow(-c - 1))


def test_certificate_refuses_a_ratio_that_is_not_infinitesimal():
    with pytest.raises(PreconditionError,
                       match="certificate ratio x is not infinitesimal"):
        GridCertificate.of([ONE], [X])


def test_certificate_points_above():
    cert = GridCertificate.of([X], [X_INV])
    got = set(points_above(cert, xpow(-2)))
    assert got == {X, ONE, X_INV, xpow(-2)}
    assert _escape(cert, {xpow(-1): 2}) is None       # x * x^-1 * x^-1
    assert _escape(cert, {xpow(-1): 3}) is xpow(-1)
    assert _escape(cert, {X2: 0}) is X2


def _lattice_box(cert, size):
    """(base, v, base*z^v) for every v in {0..size-1}^n: the brute force
    the region walk must agree with on regions inside the box."""
    from itertools import product
    ratios = sorted(cert.ratios, key=lambda z: z.render())
    for b in cert.bases:
        for v in product(range(size), repeat=len(ratios)):
            m = b
            for z, k in zip(ratios, v):
                m = mono_mul(m, mono_pow(z, k))
            yield b, v, ratios, m


# two bases each; the second certificate's ratios are dependent
# (x^-2 = x^-1 * x^-1), so one monomial sits at several lattice points
REGION_CERTS = [
    GridCertificate.of([X, atom(1)], [X_INV, mono_mul(X_INV, atom(1))]),
    GridCertificate.of([ONE, xpow(Fraction(1, 2))], [X_INV, xpow(-2)]),
]


@pytest.mark.parametrize("cert", REGION_CERTS, ids=["independent", "dependent"])
def test_region_walk_matches_brute_force(cert):
    from transseries.series import _infinitesimal_bases
    box = list(_lattice_box(cert, 8))
    for cutoff in (X, ONE, xpow(-1), xpow(Fraction(-5, 2)), xpow(-3)):
        want = {m for _, _, _, m in box if mono_cmp(m, cutoff) >= 0}
        assert set(points_above(cert, cutoff)) == want, cutoff

    for m in {m for _, _, _, m in box if mono_cmp(m, xpow(-3)) >= 0}:
        most = max(sum(v) for _, v, _, p in box if p is m)
        for k in range(most + 2):
            assert (_escape(cert, {m: k}) is None) == (k <= most), (m, k)
    assert _escape(cert, {xpow(Fraction(-1, 3)): 0}) is not None

    for dom in (ONE, xpow(-1), xpow(-2)):
        # bases at or below dom, and the lattice points at or below dom
        # one ratio step from a point above it
        want = set()
        for b, v, ratios, m in box:
            if mono_cmp(m, dom) > 0:
                continue
            if not any(v):
                want.add(m)
            for i, z in enumerate(ratios):
                if v[i] and mono_cmp(mono_mul(m, mono_inv(z)), dom) > 0:
                    want.add(m)
        assert set(_infinitesimal_bases(cert, dom)) == want, dom


L1 = atom(1)
# x^c (log x)^d bases and ratios x^-a (log x)^b, a > 0, keyed by a: a
# point b * z^v above x^-e has v_i <= (e + 1) / a_i for every base <= x log x
WALK_BASES = [mono_mul(xpow(c), mono_pow(L1, d))
              for c in (-1, 0, Fraction(1, 2), 1) for d in (-1, 0, 1)]
WALK_RATIOS = {mono_mul(xpow(-a), mono_pow(L1, b)): a
               for a in (Fraction(1, 2), 1, 2) for b in (-1, 0, 1)}


def test_walk_matches_brute_force():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hyp.given(st.lists(st.sampled_from(WALK_BASES), min_size=1, max_size=3, unique=True),
               st.lists(st.sampled_from(list(WALK_RATIOS)), min_size=1, max_size=3,
                        unique=True),
               st.sampled_from([0, 1, Fraction(5, 2), 3]))
    def check(bases, ratios, e):
        bound = xpow(-e)
        bases, ratios = sort_monomials(bases), sort_monomials(ratios)
        want: dict = {}
        for v in itertools.product(*(range(int((e + 1) / WALK_RATIOS[z]) + 1)
                                     for z in ratios)):
            for bi, b in enumerate(bases):
                m = b
                for z, k in zip(ratios, v):
                    m = mono_mul(m, mono_pow(z, k))
                if mono_cmp(m, bound) >= 0:
                    want.setdefault(m, []).append((bi, v))
        got = itertools.takewhile(lambda p: mono_cmp(p[0], bound) >= 0,
                                  _walk(GridCertificate.of(bases, ratios)))
        assert list(got) == [(m, [v for _, v in sorted(want[m])])
                             for m in sort_monomials(want)]

    check()


# monomials of height at most one: certificate bases of any size, and
# infinitesimal ratios from two comparability classes
CERT_BASES = WALK_BASES + [E_X, mono_mul(X, mono_inv(E_X)),
                           make_monomial({0: -1}, [(Fraction(1, 2), xpow(Fraction(1, 2)))])]
CERT_RATIOS = list(WALK_RATIOS) + [mono_inv(E_X)]


def test_pulled_bases_match_the_eager_oracle():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    certs = st.builds(GridCertificate.of,
                      st.lists(st.sampled_from(CERT_BASES), min_size=1, max_size=3,
                               unique=True),
                      st.lists(st.sampled_from(CERT_RATIOS), max_size=2, unique=True))

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @hyp.given(certs, certs, certs)
    def check(a, b, c):
        ab, bc = eager_product(a, b), eager_product(b, c)
        want = {"product": ab, "nested": eager_product(ab, c),
                "union": eager_union(a, ab, c, bc)}

        def pulled():
            # fresh certificates that have formed nothing but their first
            # bases; the nested product and the union share the product
            ab, bc = a.product(b), b.product(c)
            return {"product": ab, "nested": ab.product(c),
                    "union": a.union(ab).union(c, bc)}

        for name, cert in pulled().items():
            assert (list(itertools.islice(_walk(cert), 30))
                    == list(itertools.islice(_walk(want[name]), 30))), name
        for name, cert in pulled().items():
            assert cert.base(2) is (want[name].bases[2:3] or [None])[0], name
            assert cert == want[name], name
            assert (cert.bases, cert.ratios) == (want[name].bases, want[name].ratios)
            assert cert.base(len(cert.bases)) is None

    check()


def test_a_long_union_chain_nests_no_union():
    cert = GridCertificate.of([ONE])
    for k in range(1, 2000):
        cert = cert.union(GridCertificate.of([xpow(-k)]))
    assert len(cert._parts) == 2000
    assert cert.base(1999) is xpow(-1999)


def test_a_pull_cut_by_the_recursion_limit_leaves_the_certificate_whole():
    # pulling from a chain of 250 products takes about two frames a link;
    # begun near the recursion limit it raises, and every product of the
    # chain can still form all of its bases
    chain = want = GridCertificate.of([ONE, X_INV])
    for _ in range(250):
        step = GridCertificate.of([ONE, X_INV])
        chain, want = chain.product(step), eager_product(want, step)

    def deep(n):
        return chain.base(3) if n == 0 else deep(n - 1)

    with pytest.raises(RecursionError):
        deep(sys.getrecursionlimit() - 200)
    assert chain.bases == want.bases == tuple(xpow(-k) for k in range(252))


def _count_mono_mul(monkeypatch) -> list:
    """A one-element list that counts the `mono_mul` calls from now on."""
    import transseries.calculus as calculus
    import transseries.monomial as monomial
    import transseries.series as series
    calls = [0]
    inner = monomial.mono_mul

    def counting(a, b):
        calls[0] += 1
        return inner(a, b)

    for module in (monomial, series, calculus):
        monkeypatch.setattr(module, "mono_mul", counting)
    return calls


def test_building_a_product_forms_one_base_product(monkeypatch):
    s = from_terms([(k + 1, xpow(-k)) for k in range(30)])
    t = from_terms([(1, xpow(Fraction(-k, 3))) for k in range(30)])
    calls = _count_mono_mul(monkeypatch)
    p = mul(s, t)
    assert calls[0] == 1    # the grid maximum; all 900 are formed on demand
    assert p.cert == eager_product(s.cert, t.cert)


def test_a_large_power_renders_its_first_terms_from_few_bases(monkeypatch):
    calls = _count_mono_mul(monkeypatch)
    s = parse_series("(1+1/x)^4096")
    built = calls[0]
    assert built < 50
    assert render_series(s, 3) == "1 + 4096*x^-1 + 8386560*x^-2 + O(x^-3)"
    assert calls[0] - built < 1000


def test_a_product_forms_the_pairs_it_keeps_and_one_more_per_row(monkeypatch):
    # a row of the pair loop ends at its first product below the cutoff;
    # forming every pair took 11,002 and 4,613 calls
    power = parse_series("(1+1/x)^4096")
    big = parse_series("exp(1/x)*log(x)/(1-1/x)")
    calls = _count_mono_mul(monkeypatch)
    render_series(power, 30)
    assert calls[0] <= 8_000
    calls[0] = 0
    render_series(big, 64)
    assert calls[0] <= 2_600


def _traced_peak(fn) -> int:
    """The peak of the memory `fn()` allocates, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ratios", [[X_INV], [X_INV, mono_mul(X_INV, mono_inv(L1))]],
                         ids=["one-ratio", "two-ratio"])
def test_refusing_escape_keeps_only_the_frontier(ratios, monkeypatch):
    # exp(-x) lies below every grid point, so the walk runs until the fuel
    # refuses; what it holds is its frontier, however far it walked
    cert = GridCertificate.of([ONE], ratios)

    def refuse():
        with pytest.raises(BudgetExceededError):
            _escape(cert, {make_monomial({}, [(-1, X)]): 0})

    peaks = []
    for fuel in (2_000, 8_000):
        monkeypatch.setattr("transseries.series.EXPAND_FUEL", fuel)
        peaks.append(_traced_peak(refuse))
    assert max(peaks) < 1_000_000, peaks
    assert peaks[1] < peaks[0] + 250_000, peaks


def test_depth_cutoff_keeps_only_the_last_candidate():
    s = geom()
    assert depth_cutoff(s, 20_000) == (xpow(-20_000), False)
    assert _traced_peak(lambda: depth_cutoff(s, 20_000)) < 1_000_000


def test_level_cap_counts_levels_up_to_the_fuel(monkeypatch):
    from transseries.series import _level_cap
    assert _level_cap(ONE, X_INV, xpow(-3)) == 4
    assert _level_cap(X_INV, X_INV, ONE) == 0
    monkeypatch.setattr("transseries.series.LEVEL_FUEL", 5)
    assert _level_cap(ONE, X_INV, xpow(-4)) == 5
    with pytest.raises(BudgetExceededError):
        _level_cap(ONE, X_INV, xpow(-5))


def test_level_cap_threshold_in_geometric_substitute(monkeypatch):
    monkeypatch.setattr("transseries.series.LEVEL_FUEL", 5)
    eps = mono_series(X_INV)
    # powers eps^1 .. eps^5 reach x^-5: five levels, exactly the fuel
    got = geometric_substitute(lambda k: 1, eps).expand(xpow(-5))
    assert got == {xpow(-k): 1 for k in range(6)}
    with pytest.raises(BudgetExceededError):
        geometric_substitute(lambda k: 1, eps).expand(xpow(-6))


def test_level_cap_threshold_in_compose(monkeypatch):
    from transseries.calculus import compose
    monkeypatch.setattr("transseries.series.LEVEL_FUEL", 5)
    # composing with x is the identity and walks no level
    f = geom()
    assert compose(f, mono_series(X)) is f
    # the ratio x^-1 maps to x^-1/2: levels x^0 .. x^-4 lie above x^-4
    got = compose(geom(), from_terms([(2, X)])).expand(xpow(-4))
    assert got == {xpow(-k): Fraction(1, 2 ** k) for k in range(5)}
    with pytest.raises(BudgetExceededError, match=r"^level bound above x\^-5 exceeded 5 levels$"):
        compose(geom(), from_terms([(2, X)])).expand(xpow(-5))


# -- the term search -------------------------------------------------------------


def test_first_terms_expands_once_at_position_n(monkeypatch):
    s = parse_series("1/(1 - 1/x)")
    expand = TransSeries.expand
    cutoffs = []

    def counting(self, cutoff):
        if self is s:
            cutoffs.append(cutoff)
        return expand(self, cutoff)

    monkeypatch.setattr(TransSeries, "expand", counting)
    got = s.first_terms(16)
    # 16 grid positions hold at most 16 terms: nothing above x^-15 can end
    # the search, so the top node is expanded once, at x^-15
    assert cutoffs == [xpow(-15)]
    assert got == [(1, xpow(-k)) for k in range(16)]


def test_first_terms_match_a_deeper_expansion():
    for seed in range(30):
        for n in range(1, 13):
            s = rand_grid_series(rng(700 + seed))
            got = s.first_terms(n)
            cutoff, exhausted = depth_cutoff(s, 2 * n + 5)
            d = s.expand(cutoff)
            ref = [(d[m], m) for m in sort_monomials(d)]
            assert len(ref) >= n or exhausted, (seed, n)
            assert got == ref[:n], (seed, n)


def test_comparison_refuses_a_depth_that_compares_nothing():
    # depth 0 compares no grid position: x and 1 would be reported equal
    x, one = parse_series("x"), parse_series("1")
    assert compare_to_depth(x, one, 1) == (False, ONE, [(1, X)])
    for depth in (0, -3):
        with pytest.raises(PreconditionError,
                           match=f"depth {depth} compares no grid position"):
            compare_to_depth(x, one, depth)
    # depth 0 names the first grid position, a negative depth none
    assert depth_cutoff(x, 0) == (X, False)
    with pytest.raises(PreconditionError, match="depth -3 names no grid position"):
        depth_cutoff(x, -3)


def test_first_terms_fuel_below_n():
    with pytest.raises(BudgetExceededError):
        geom().first_terms(5, fuel=3)
    s = from_terms([(1, X), (2, ONE), (3, X_INV)])
    want = [(1, X), (2, ONE), (3, X_INV)]
    assert s.first_terms(5, fuel=4) == want
    assert s.first_terms(5, fuel=3) == want
    with pytest.raises(BudgetExceededError):
        from_terms([(1, X), (2, ONE), (3, X_INV)]).first_terms(5, fuel=2)


def test_first_terms_refuses_a_negative_fuel():
    # a fuel of 0 walks no position and runs out; a negative one names no
    # budget and is refused, as a negative depth is
    with pytest.raises(BudgetExceededError, match="within 0 candidate monomials"):
        geom().first_terms(2, fuel=0)
    for s in (geom(), ZERO, parse_series("1/(1-1/x)")):
        with pytest.raises(PreconditionError, match="^term fuel -1 is negative$"):
            s.first_terms(2, fuel=-1)
        with pytest.raises(PreconditionError, match="^term fuel -1 is negative$"):
            s.leading_term(fuel=-1)


def _cancelling_composites():
    """Series whose grids are infinite but whose coefficients are zero past
    the first few positions: 1/(1-5/x) and (1-1/x)/(1-5/x) at x + 5 are
    1 + 5/x and 1 + 4/x, and the difference is x^-2 + x^-4 + ... - x^-1."""
    x5 = parse_series("x+5")
    return [compose(parse_series("1/(1-5/x)"), x5),
            compose(parse_series("(1-1/x)/(1-5/x)"), x5),
            parse_series("1/(1-1/x) - 1/(1-1/x^2)")]


def _one_position_search(s, want, budget):
    """The reference term search: an expansion at every grid position until
    one holds `want` terms, through at most `budget` positions."""
    walker = s._candidates()
    d = {}
    for cand in itertools.islice(walker, budget):
        d = s.expand(cand)
        if len(d) >= want:
            break
    return d, walker


def _probe_positions(s, nterms):
    """The grid positions at which render_series(s, nterms) expands s."""
    position = {m: k for k, m in enumerate(itertools.islice(s._candidates(), 64), 1)}
    expander, probes = s._expander, []

    def recording(cutoff):
        probes.append(position[cutoff])
        return expander(cutoff)

    s._expander = recording
    render_series(s, nterms)
    return probes


def test_term_search_skips_positions_that_cannot_end_it():
    # 1 + 5/x on an infinite grid: at n = 8 the search wants 9 terms within
    # 22 positions; 2 terms at position 9 leave 7 to find, so the next
    # position that can end the search is 16, and after it the budget's end
    assert _probe_positions(_cancelling_composites()[0], 8) == [9, 16, 22]
    assert _probe_positions(_cancelling_composites()[0], 4) == [5, 8, 11, 14]


def test_term_search_matches_the_one_position_search():
    def check(s, budgets):
        for want in range(1, 11):
            for budget in budgets(want):
                d, walker = _term_search(s, want, budget)
                ref, ref_walker = _one_position_search(s, want, budget)
                assert d == ref, (want, budget)
                assert next(walker, None) == next(ref_walker, None), (want, budget)

    for seed in range(50):
        check(rand_grid_series(rng(900 + seed)),
              lambda want: (want, 2 * want + 6, TERM_FUEL))
    # the composites cost about k^3.3 per expansion at grid position k
    for s in _cancelling_composites():
        check(s, lambda want: (want, 2 * want + 6))


def test_first_terms_refuses_within_a_lowered_term_fuel(monkeypatch):
    s = _cancelling_composites()[0]
    monkeypatch.setattr("transseries.series.TERM_FUEL", 20)
    assert [t.mono for t in s.first_terms(2)] == [ONE, X_INV]
    with pytest.raises(BudgetExceededError,
                       match="^could not locate 3 terms within 20 candidate monomials$"):
        s.first_terms(3)


# -- rendering ---------------------------------------------------------------------


def test_render_geometric():
    assert render_series(geom(), 4) == "1 + x^-1 + x^-2 + x^-3 + O(x^-4)"


def test_render_exact_fractions():
    s = from_terms([(Fraction(3, 2), X), (Fraction(-1, 3), ONE)])
    assert render_series(s, 4) == "3/2*x - 1/3"


def test_render_zero():
    assert render_series(ZERO, 4) == "0"
