"""Derivation, logarithm, exponential, composition, Faà di Bruno."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

import pytest

from transseries import (ONE, ONE_SERIES, ZERO, BudgetExceededError,
                         CompositionHandle, DomainError, PartialConstantError,
                         PreconditionError, X, atom, compose,
                         dagger, derive, exp_series, faa_di_bruno_coeff,
                         from_terms, invert, log_series, make_monomial,
                         mono_cmp, mono_inv, mono_mul, mono_pow, mono_series,
                         mul, pow_series, ps_compose)
from transseries.calculus import _image_grid
from transseries.cli import main
from transseries.parser import parse_series
from transseries.series import add, depth_cutoff, scale, shown_terms
from transseries.taylor import is_flat, spec_condition_check

from helpers import (assert_depth_equal, derive_n, from_coeffs,
                     rand_finite_series, rand_grid_series, rng)

X_INV = mono_inv(X)
L1 = atom(1)
E_X = make_monomial({}, [(1, X)])
X2 = make_monomial({0: 2})
X_SERIES = mono_series(X)


def xpow(k):
    return mono_pow(X, Fraction(k))


def geom():
    return invert(from_terms([(1, ONE), (-1, X_INV)]))


# -- dagger ---------------------------------------------------------------------


def test_dagger_examples():
    assert dagger(E_X).expand(ONE) == {ONE: Fraction(1)}
    assert dagger(X).expand(xpow(-1)) == {X_INV: Fraction(1)}
    inv_xl1 = make_monomial({0: -1, 1: -1})
    assert dagger(L1).expand(inv_xl1) == {inv_xl1: Fraction(1)}


def test_dagger_additive():
    r = rng(3)
    from helpers import rand_monomial
    for _ in range(15):
        a, b = rand_monomial(r), rand_monomial(r)
        assert_depth_equal(dagger(mono_mul(a, b)), dagger(a) + dagger(b), 8)


# -- derive ---------------------------------------------------------------------


def test_derive_polynomial():
    s = from_terms([(1, X2), (1, X)])
    assert derive(s).expand(xpow(-1)) == {X: Fraction(2), ONE: Fraction(1)}


def test_derive_exp_square():
    got = derive(mono_series(make_monomial({}, [(1, X2)])))
    want = mono_mul(X, make_monomial({}, [(1, X2)]))
    assert got.expand(want) == {want: Fraction(2)}


def test_derive_infinite_series_termwise():
    got = derive(geom())
    want = {xpow(-k - 1): Fraction(-k) for k in range(1, 6)}
    assert got.expand(xpow(-6)) == want


def test_leibniz_randomized():
    r = rng(7)
    for _ in range(30):
        s = rand_grid_series(r)
        t = rand_grid_series(r)
        lhs = derive(mul(s, t))
        rhs = mul(derive(s), t) + mul(s, derive(t))
        assert_depth_equal(lhs, rhs, 6, "Leibniz")


def test_derive_log_is_logarithmic_derivative():
    r = rng(13)
    for _ in range(12):
        s = rand_grid_series(r)
        lt = s.leading_term()
        if lt is None or not lt.coeff > 0 or lt.coeff != 1:
            continue
        lhs = derive(log_series(s))
        rhs = mul(derive(s), invert(s))
        assert_depth_equal(lhs, rhs, 6, "(log s)' = s'/s")


# -- log ------------------------------------------------------------------------


def test_log_of_x():
    assert log_series(X_SERIES).expand(mono_inv(L1)) == {L1: Fraction(1)}


def test_log_coefficient_law():
    s = mul(mono_series(X2), from_terms([(1, ONE), (1, X_INV)]))
    got = log_series(s).expand(xpow(-3))
    assert got == {L1: Fraction(2), X_INV: Fraction(1),
                   xpow(-2): Fraction(-1, 2), xpow(-3): Fraction(1, 3)}


def test_log_of_exp_monomial_with_tail():
    s = mul(mono_series(E_X), from_terms([(1, ONE), (1, X_INV)]))
    got = log_series(s).expand(xpow(-2))
    assert got == {X: Fraction(1), X_INV: Fraction(1), xpow(-2): Fraction(-1, 2)}


def test_log_requires_positive():
    with pytest.raises(DomainError):
        log_series(scale(X_SERIES, -1))


def test_log_of_nonunit_constant_is_partial():
    with pytest.raises(PartialConstantError):
        log_series(scale(X_SERIES, 2))


# -- exp ------------------------------------------------------------------------


def test_exp_of_x():
    assert exp_series(X_SERIES).expand(E_X) == {E_X: Fraction(1)}


def test_exp_of_infinitesimal():
    got = exp_series(mono_series(X_INV)).expand(xpow(-3))
    assert got == {ONE: Fraction(1), X_INV: Fraction(1),
                   xpow(-2): Fraction(1, 2), xpow(-3): Fraction(1, 6)}


def test_exp_splits_large_and_small():
    s = from_terms([(1, X2), (1, X_INV)])
    got = exp_series(s)
    ex2 = make_monomial({}, [(1, X2)])
    d = got.expand(mono_mul(ex2, xpow(-2)))
    assert d == {ex2: Fraction(1), mono_mul(ex2, X_INV): Fraction(1),
                 mono_mul(ex2, xpow(-2)): Fraction(1, 2)}


def test_exp_log_roundtrip():
    r = rng(19)
    for _ in range(10):
        s = rand_grid_series(r)
        lt = s.leading_term()
        if lt is None or lt.coeff != 1 or not lt.mono.is_large():
            continue
        assert_depth_equal(exp_series(log_series(s)), s, 6, "exp(log s) = s")


def test_log_exp_roundtrip_on_purely_large():
    s = from_terms([(2, X2), (-3, X)])
    assert_depth_equal(log_series(exp_series(s)), s, 6)


def test_exp_of_nonzero_constant_is_partial():
    with pytest.raises(PartialConstantError):
        exp_series(ONE_SERIES)


# -- powers ----------------------------------------------------------------------


def test_integer_power():
    s = from_terms([(1, X), (1, ONE)])
    assert pow_series(s, 2).expand(ONE) == {X2: Fraction(1),
                                            X: Fraction(2), ONE: Fraction(1)}
    assert_depth_equal(pow_series(s, -1), invert(s), 8)


def test_binomial_half_power():
    got = pow_series(from_terms([(1, X), (1, ONE)]), Fraction(1, 2))
    sq = mul(got, got)
    assert_depth_equal(sq, from_terms([(1, X), (1, ONE)]), 8, "sqrt squared")


def test_exp_series_coefficients_are_int_while_integral():
    d = exp_series(mono_series(X_INV)).expand(xpow(-2))
    assert type(d[ONE]) is int and type(d[X_INV]) is int
    assert type(d[xpow(-2)]) is Fraction and d[xpow(-2)] == Fraction(1, 2)


def test_pow_series_keeps_non_integral_binomials_fractions():
    d = pow_series(parse_series("1 + 1/x"), Fraction(1, 2)).expand(xpow(-4))
    assert type(d[ONE]) is int and d[ONE] == 1
    binomials = [Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128)]
    assert [d[xpow(-k)] for k in range(1, 5)] == binomials
    assert all(type(d[xpow(-k)]) is Fraction for k in range(1, 5))


@pytest.mark.parametrize("seed", range(8))
def test_exact_coefficients_are_never_floats_or_bools(seed):
    """Random grid series through mul, invert, derive, log and exp: every
    coefficient the kernel computes is an int or a Fraction (an int / int
    or an int ** -n would make a float)."""
    r = rng(2000 + seed)
    s, t = rand_grid_series(r), rand_grid_series(r)

    def small_part():
        return s - from_terms([(c, m) for m, c in s.expand(ONE).items()])

    ops = (lambda: mul(s, t), lambda: invert(s), lambda: derive(s),
           lambda: log_series(add(ONE_SERIES, small_part())),
           lambda: exp_series(small_part()))
    coeffs = []
    for op in ops:
        try:
            res = op()
            coeffs += [c for c, _ in shown_terms(res, 6)[0]]
            coeffs += res.expand(depth_cutoff(res, 10)[0]).values()
        except BudgetExceededError:    # a refusal computes no coefficient
            continue
    assert len(coeffs) >= 20
    assert all(type(c) in (int, Fraction) for c in coeffs), coeffs


def test_fractional_power_of_nonsquare_constant_is_partial():
    with pytest.raises(PartialConstantError):
        pow_series(scale(X_SERIES, 2), Fraction(1, 2))
    got = pow_series(scale(X_SERIES, 4), Fraction(1, 2))
    assert got.expand(xpow(Fraction(1, 2))) == {mono_pow(X, Fraction(1, 2)): Fraction(2)}


# -- composition -----------------------------------------------------------------


def test_compose_log_with_exp():
    assert compose(mono_series(L1), mono_series(E_X)).expand(ONE) == \
        {X: Fraction(1)}


def test_compose_monomial_powers():
    assert compose(mono_series(X_INV), mono_series(X2)).expand(xpow(-2)) == \
        {xpow(-2): Fraction(1)}


def test_compose_geometric_with_shift():
    got = compose(geom(), from_terms([(1, X), (1, ONE)]))
    want = add(ONE_SERIES, mono_series(X_INV))  # exact closed form 1 + 1/x
    assert_depth_equal(got, want, 8)


def test_compose_requires_positive_infinite():
    with pytest.raises(PreconditionError):
        CompositionHandle(mono_series(X_INV))
    with pytest.raises(PreconditionError):
        CompositionHandle(scale(X_SERIES, -1))


def test_compose_associative():
    f = from_terms([(1, X_INV), (2, xpow(-2))])
    g = from_terms([(1, X2)])
    h = from_terms([(1, X), (1, ONE)])
    lhs = compose(compose(f, g), h)
    gh = compose(g, h)
    rhs = compose(f, gh)
    assert_depth_equal(lhs, rhs, 6, "(f o g) o h = f o (g o h)")


def test_composition_chain_rule():
    g = from_terms([(1, X2), (1, X)])
    dg = derive(g)
    # deep log atoms in f would need log of a non-unit constant (log 2 at
    # the second atom image); stick to exactly representable cases
    for f in [mono_series(X_INV), from_terms([(1, X), (3, ONE)]),
              from_terms([(Fraction(1, 2), X2), (-2, X_INV)]), geom()]:
        lhs = derive(compose(f, g))
        rhs = mul(compose(derive(f), g), dg)
        assert_depth_equal(lhs, rhs, 6, "(f o g)' = (f' o g) g'")


def test_log_commutes_with_composition():
    g = from_terms([(1, X2), (1, X)])
    for f in [X_SERIES, mono_series(X2),
              mul(mono_series(X), from_terms([(1, ONE), (1, X_INV)]))]:
        lhs = log_series(compose(f, g))
        rhs = compose(log_series(f), g)
        assert_depth_equal(lhs, rhs, 6, "log(f o g) = (log f) o g")


def test_exp_is_additive():
    r = rng(83)
    for _ in range(8):
        # arguments with no constant part are exactly exponentiable
        s = from_terms([(2, X2), (1, X_INV)])
        t = rand_finite_series(r, 2)
        lt = t.leading_term()
        if lt is None or not lt.mono.is_small():
            t = mul(t, mono_series(xpow(-4)))
        assert_depth_equal(exp_series(s + t),
                           mul(exp_series(s), exp_series(t)), 6,
                           "exp(s+t) = exp(s) exp(t)")


def test_log_of_products():
    a = mul(mono_series(X2), from_terms([(1, ONE), (1, X_INV)]))
    b = mul(mono_series(E_X), from_terms([(1, ONE), (-2, xpow(-2))]))
    assert_depth_equal(log_series(mul(a, b)),
                       log_series(a) + log_series(b), 6,
                       "log(ab) = log a + log b")


def test_compose_is_ring_morphism():
    g = from_terms([(1, X2), (1, X)])
    f1 = from_terms([(1, X_INV), (2, ONE)])
    f2 = geom()
    lhs = compose(mul(f1, f2), g)
    rhs = mul(compose(f1, g), compose(f2, g))
    assert_depth_equal(lhs, rhs, 6, "(f1 f2) o g = (f1 o g)(f2 o g)")
    lhs2 = compose(f1 + f2, g)
    rhs2 = compose(f1, g) + compose(f2, g)
    assert_depth_equal(lhs2, rhs2, 6, "additivity of composition")


def _chain_image(h, m):
    """The image of a monomial with integer log powers, as the chain of
    one product per unit of each power."""
    out = ONE_SERIES
    for k, r in m.log_powers:
        base = h.atom_image(k) if r > 0 else invert(h.atom_image(k))
        for _ in range(abs(r.numerator)):
            out = mul(out, base)
    return out


@pytest.mark.parametrize("g", ["x + 5", "x*log(x)"])
def test_images_by_morphism_keep_the_chain_certificates(g):
    h = CompositionHandle(parse_series(g))
    # images of x^-k follow x^-(k-1); that of log(x)^3/x^2 follows
    # log(x)^3/x, whose image is built first
    for text in ("1/(1-5/x)", "log(x)^3/x", "log(x)^3/x^2"):
        f = parse_series(text)
        composite = compose(f, h)
        composite.expand(xpow(-8))
        grid, _ = _image_grid(lambda m: _chain_image(h, m), f.cert)
        assert composite.cert == grid
        for m in f.expand(xpow(-6)):
            assert h.mono_image(m).cert == _chain_image(h, m).cert
            assert_depth_equal(h.mono_image(m), _chain_image(h, m), 4, m.render())


@pytest.mark.parametrize("argv, want", [
    (["eval", "(1+1/x)^600", "--terms", "3"],
     "1 + 600*x^-1 + 179700*x^-2 + O(x^-3)\n"),
    (["compose", "x^-600", "x+1", "--terms", "3"],
     "x^-600 - 600*x^-601 + 180300*x^-602 + O(x^-603)\n"),
], ids=["eval", "compose"])
def test_high_integer_powers_stay_shallow(argv, want):
    # a chain of 600 products would exhaust Python's stack on expansion
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert (code, buf.getvalue()) == (0, want)


# -- Faà di Bruno -----------------------------------------------------------------


def _derivative_lists(f, g, k):
    h = CompositionHandle(g)
    composed = [compose(derive_n(f, n), h) for n in range(k + 1)]
    inner = [g] + [derive_n(g, j) for j in range(1, k + 1)]
    return composed, inner


def test_faa_order_zero_and_one():
    f, g = mono_series(X2), from_terms([(1, X), (1, X_INV)])
    composed, inner = _derivative_lists(f, g, 1)
    assert_depth_equal(faa_di_bruno_coeff(composed, inner, 0), composed[0], 6)
    assert_depth_equal(faa_di_bruno_coeff(composed, inner, 1),
                       mul(composed[1], inner[1]), 6)


def test_faa_order_two_matches_double_derivative():
    f, g = mono_series(X2), from_terms([(1, X), (1, X_INV)])
    composed, inner = _derivative_lists(f, g, 2)
    got = faa_di_bruno_coeff(composed, inner, 2)
    want = scale(derive_n(compose(f, CompositionHandle(g)), 2), Fraction(1, 2))
    assert_depth_equal(got, want, 6)


@pytest.mark.parametrize("f_text, g_text", [("exp(x)", "x + 1/x"),
                                             ("log(x)", "x^2 + x")])
def test_faa_orders_three_to_five(f_text, g_text):
    # two references: the k-th derivative of the composite over k!, and
    # coefficient k of P o Q with P_n = (f^(n) o g)/n!, Q_j = g^(j)/j!, Q_0 = 0
    f, g = parse_series(f_text), parse_series(g_text)
    composed, inner = _derivative_lists(f, g, 5)
    fg = compose(f, CompositionHandle(g))
    p = from_coeffs(
        [scale(c, Fraction(1, factorial(n))) for n, c in enumerate(composed)])
    q = from_coeffs(
        [ZERO] + [scale(inner[j], Fraction(1, factorial(j))) for j in range(1, 6)])
    pq = ps_compose(p, q)
    for k in (3, 4, 5):
        got = faa_di_bruno_coeff(composed, inner, k)
        assert_depth_equal(got, scale(derive_n(fg, k), Fraction(1, factorial(k))), 6)
        assert_depth_equal(got, pq.coeff(k), 6)


def test_faa_order_bound():
    from transseries import ResourceError
    f, g = mono_series(X2), from_terms([(1, X), (1, X_INV)])
    composed, inner = _derivative_lists(f, g, 1)
    with pytest.raises(ResourceError):
        faa_di_bruno_coeff(composed, inner, 7)


# -- structural conditions ----------------------------------------------------------


def test_spec_condition_corpus():
    corpus = [X2, make_monomial({}, [(1, X2)]), make_monomial({}, [(-1, X)]),
              L1, E_X, mono_pow(X, Fraction(-3, 2)), mono_mul(X2, L1),
              make_monomial({}, [(1, mono_mul(X, L1))]),
              mono_inv(make_monomial({}, [(1, X2)])), atom(2)]
    for m in corpus:
        result = spec_condition_check(m)
        assert result["ok"], f"derivative-support dichotomy failed at {m.render()}"


def test_spec_condition_flat_classification():
    assert is_flat(X2)
    assert is_flat(L1)
    assert not is_flat(E_X)
    assert not is_flat(make_monomial({}, [(1, X2)]))


def test_flatness_of_pre_logs():
    # every monomial in supp(ell(m)) has dagger strictly below dagger(m)
    r = rng(31)
    from helpers import rand_monomial
    from transseries.monomial import pre_log_terms
    checked = 0
    for _ in range(40):
        m = rand_monomial(r)
        if m is ONE:
            continue
        dm = dagger(m).leading_term()
        for _, n in pre_log_terms(m):
            dn = dagger(n).leading_term()
            assert dm is not None and (dn is None or mono_cmp(dn.mono, dm.mono) < 0), \
                f"pre-log support {n.render()} of {m.render()} is not flat"
            checked += 1
    assert checked >= 30
