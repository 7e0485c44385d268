"""Series engine: arithmetic, dominance, summability machinery."""

import itertools
from fractions import Fraction

import pytest

from transseries import (LIMITS, ONE, ONE_SERIES, ZERO, BudgetExceededError,
                         DivisionByZeroSeries, compose, derive,
                         DomainError, GridCertificate, PreconditionError,
                         SummabilityViolationError, TransSeries, X, atom,
                         dominant_decompose, extend_strongly_linear,
                         from_terms, geometric_substitute, invert,
                         make_monomial, mono_cmp, mono_inv, mono_mul, mono_pow,
                         mono_series, mul, sum_family, sum_lazy)
from transseries.monomial import _canon, sort_monomials
from transseries.parser import parse_series
from transseries.series import (_escape, _region, _term_search,
                                compare_to_depth, depth_cutoff, pow_const,
                                render_series, scale)

from helpers import assert_depth_equal, rand_finite_series, rand_grid_series, rng
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
    assert sort_monomials(s.expand(X_INV)) == [X, X_INV]


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
        sd = s.expand(min(s.cert.bases)) if s.cert.bases else {}
        td = t.expand(min(t.cert.bases)) if t.cert.bases else {}
        if not sd or not td:
            continue
        fibers = check_product_noetherian(sd.keys(), td.keys(), mono_cmp).fibers
        prod = mul(s, t)
        for m, pairs in fibers.items():
            want = sum(sd[u] * td[v] for u, v in pairs)
            got = prod.expand(m).get(m, 0)
            assert got == want


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


def test_compose_flags_images_outside_its_certificate(monkeypatch):
    import transseries.calculus as calculus
    image_grid = calculus._image_grid

    def losing_a_ratio(image, cert):
        grid, rho = image_grid(image, cert)
        assert X_INV in grid.ratios
        return GridCertificate(grid.bases, grid.ratios - {X_INV}), rho

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
                       match="level-3 summand reaches above the cutoff bound with 1"
                       ) as exc:
        s.expand(X_INV)
    assert exc.value.witness is ONE


def test_sum_lazy_pulls_at_most_level_fuel_summands(monkeypatch):
    from itertools import repeat
    from transseries.limits import LIMITS
    s = sum_lazy(repeat(ZERO), GridCertificate.of([ONE], [X_INV]))
    monkeypatch.setattr(LIMITS, "level_fuel", 3)
    with pytest.raises(BudgetExceededError, match="pulled too many summands"):
        s.expand(ONE)


def test_sum_lazy_refuses_an_empty_ratio_set():
    # summand k has level k, and without a ratio no level bounds anything:
    # even a finite family is refused, at construction
    with pytest.raises(PreconditionError, match="needs a grid ratio"):
        sum_lazy([ONE_SERIES, ONE_SERIES], GridCertificate.of([ONE]))


def test_sum_lazy_pull_count_and_budget_threshold(monkeypatch):
    from itertools import count
    from transseries.limits import LIMITS
    window = LIMITS.divergence_window
    pulled = []

    def summands():
        for k in count():
            pulled.append(k)
            yield mono_series(xpow(-k))

    # at cutoff x^-3 levels 0..3 reach (cap 3), then the window and one more
    s = sum_lazy(summands(), GridCertificate.of([ONE], [X_INV]))
    assert s.expand(xpow(-3)) == {xpow(-k): 1 for k in range(4)}
    assert len(pulled) == 3 + window + 2
    # a cutoff x^-c needs c + window + 2 summands; the fuel L allows L + 1
    fuel = 10
    monkeypatch.setattr(LIMITS, "level_fuel", fuel)
    c = fuel - 1 - window
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
    got = set(_region(cert, xpow(-2)))
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
        assert set(_region(cert, cutoff)) == want, cutoff

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
        assert _infinitesimal_bases(cert, dom) == want, dom


def test_level_cap_counts_levels_up_to_the_fuel(monkeypatch):
    from transseries.limits import LIMITS
    from transseries.series import _level_cap
    assert _level_cap(ONE, X_INV, xpow(-3)) == 4
    assert _level_cap(X_INV, X_INV, ONE) == 0
    monkeypatch.setattr(LIMITS, "level_fuel", 5)
    assert _level_cap(ONE, X_INV, xpow(-4)) == 5
    with pytest.raises(BudgetExceededError):
        _level_cap(ONE, X_INV, xpow(-5))


def test_level_cap_threshold_in_geometric_substitute(monkeypatch):
    from transseries.limits import LIMITS
    monkeypatch.setattr(LIMITS, "level_fuel", 5)
    eps = mono_series(X_INV)
    # powers eps^1 .. eps^5 reach x^-5: five levels, exactly the fuel
    got = geometric_substitute(lambda k: 1, eps).expand(xpow(-5))
    assert got == {xpow(-k): 1 for k in range(6)}
    with pytest.raises(BudgetExceededError):
        geometric_substitute(lambda k: 1, eps).expand(xpow(-6))


def test_level_cap_threshold_in_compose(monkeypatch):
    from transseries.calculus import compose
    from transseries.limits import LIMITS
    monkeypatch.setattr(LIMITS, "level_fuel", 5)
    # the ratio x^-1 maps to x^-1: levels x^0 .. x^-4 lie above x^-4
    got = compose(geom(), mono_series(X)).expand(xpow(-4))
    assert got == {xpow(-k): 1 for k in range(5)}
    with pytest.raises(BudgetExceededError):
        compose(geom(), mono_series(X)).expand(xpow(-5))


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
              lambda want: (want, 2 * want + 6, LIMITS.term_fuel))
    # the composites cost about k^3.3 per expansion at grid position k
    for s in _cancelling_composites():
        check(s, lambda want: (want, 2 * want + 6))


def test_first_terms_refuses_within_a_lowered_term_fuel(monkeypatch):
    s = _cancelling_composites()[0]
    monkeypatch.setattr(LIMITS, "term_fuel", 20)
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
