"""Derivation, logarithm, exponential, composition, Faà di Bruno."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

import pytest

from transseries import (ONE, ONE_SERIES, ZERO, BudgetExceededError,
                         CompositionHandle, DivisionByZeroSeries, DomainError,
                         GridCertificate, KernelError, PartialConstantError,
                         PreconditionError, X, atom, compose, dagger,
                         dagger_support_closure, derive, exp_series,
                         faa_di_bruno_coeff, from_terms, invert, log_series,
                         make_monomial, mono_cmp, mono_inv, mono_mul,
                         mono_pow, mono_series, mul, pow_series, pre_log,
                         ps_compose)
from transseries.calculus import _image_grid
from transseries.cli import main
from transseries.monomial import dagger_terms, sort_monomials
from transseries.parser import parse_series
from transseries.series import (TransSeries, add, depth_cutoff, one_term, scale,
                                shown_terms, sum_family)
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


# exp arguments, all > 1, of heights 0 and 1: the monomials built on them
# have height at most 2
EXP_ARGS = [X, X2, mono_pow(X, Fraction(1, 2)), mono_mul(X, mono_inv(L1)),
            mono_pow(L1, 2), E_X, mono_mul(make_monomial({}, [(1, X2)]), X_INV),
            make_monomial({1: 1}, [(Fraction(1, 2), X)])]


def test_dagger_support_closure_is_closed():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rats = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2)])
    monos = st.builds(
        make_monomial,
        st.dictionaries(st.integers(0, 2), rats, max_size=3),
        st.lists(st.tuples(st.sampled_from([-2, -1, Fraction(1, 2), 1]),
                           st.sampled_from(EXP_ARGS)), max_size=2))

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hyp.given(st.lists(monos, min_size=1, max_size=3))
    def check(gens):
        closure = dagger_support_closure(gens)
        assert closure == sort_monomials(closure)
        members = set(closure)
        for m in gens + list(closure):
            assert {d for _, d in dagger_terms(m)} <= members, m.render()

    check()


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


def test_integral_powers_build_on_the_previous_image(monkeypatch):
    # the ring-morphism shortcut of mono_image: x^k is the image of x^(k-1)
    # times that of x, so only x itself and x^-1 need a power series
    import transseries.calculus as calculus
    exponents = []

    def spy(s, r):
        exponents.append(r)
        return pow_series(s, r)

    monkeypatch.setattr(calculus, "pow_series", spy)
    h = CompositionHandle(parse_series("x + 1"))
    h.mono_image(X)
    built = len(exponents)
    for k in range(2, 7):
        h.mono_image(xpow(k))
    assert len(exponents) == built
    for k in range(1, 4):
        h.mono_image(xpow(-k))
    assert exponents[built:] == [-1]


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


# one-term operands c*m: c in +-1..4 and +-1/2, m of height at most one
ONE_TERM_COEFFS = [Fraction(sign * k) for k in (1, 2, 3, 4) for sign in (1, -1)] \
    + [Fraction(1, 2), Fraction(-1, 2)]
ONE_TERM_MONOS = [ONE, X, X_INV, L1, mono_inv(L1), xpow(Fraction(1, 2)),
                  mono_mul(X2, mono_inv(L1)), E_X, mono_inv(E_X),
                  make_monomial({0: -1}, [(Fraction(1, 2), xpow(Fraction(1, 2)))])]
ONE_TERM_POWERS = [Fraction(k) for k in (-3, -1, 2, 3)] \
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


MINUS_3_L1 = from_terms([(-3, L1)])


def _general(s, m):
    """s plus a zero that gives its certificate a second base: the same
    value, through the general constructions."""
    w = mono_series(mono_mul(m, X_INV))
    return s + (w - scale(w, 1))


def _outcome(op, s):
    try:
        return op(s)
    except KernelError as err:
        return type(err), str(err)


def _single(m, c):
    """The certificate ({m}, ()) and the expansion {m: c} of one term."""
    return GridCertificate.of([m]), {m: c}


def test_one_term_operands_fold_to_their_closed_form():
    # (operation, its closed form on c*m as (certificate, terms), or None
    # where the operation does not fold)
    folds = [
        (invert, lambda c, m: _single(mono_inv(m), 1 / c)),
        (log_series, lambda c, m: (pre_log(m).cert, pre_log(m).expand(ONE))),
        (exp_series, lambda c, m: _single(make_monomial({}, [(c, m)]), 1)
         if m.is_large() else None),
        # the general path multiplies two general operands: a product with
        # one term is a shift, and that fold is checked below
        (lambda s: mul(s, MINUS_3_L1 if one_term(s) else _general(MINUS_3_L1, L1)),
         lambda c, m: _single(mono_mul(m, L1), -3 * c)),
    ] + [(lambda s, r=r: pow_series(s, r), lambda c, m, r=r: _single(mono_pow(m, r), c ** r))
         for r in ONE_TERM_POWERS]
    folded = refused = 0
    for c in ONE_TERM_COEFFS:
        for m in ONE_TERM_MONOS:
            s = from_terms([(c, m)])
            assert one_term(s) == (c, m)
            assert one_term(_general(s, m)) is None
            for k, (op, closed) in enumerate(folds):
                got, ref = _outcome(op, s), _outcome(op, _general(s, m))
                if isinstance(ref, tuple):      # refused: as the general path refuses
                    assert got == ref, (k, c, m.render())
                    refused += 1
                    continue
                want = closed(c, m)
                if want is None:
                    continue
                cert, terms = want
                assert got.cert == cert, (k, c, m.render())
                low = mono_mul(cert.bases[-1], X_INV) if cert.bases else ONE
                assert got.expand(low) == terms == ref.expand(low), (k, c, m.render())
                folded += 1
    assert (folded, refused) == (720, 350)


def test_one_term_refusals_keep_their_texts():
    assert one_term(ZERO) is None
    assert one_term(mul(from_terms([(2, X)]), from_terms([(3, X_INV)]))) == (6, ONE)
    with pytest.raises(DivisionByZeroSeries, match="^cannot invert the zero series$"):
        invert(ZERO)
    with pytest.raises(DivisionByZeroSeries, match="^cannot invert the zero series$"):
        pow_series(ZERO, -1)
    with pytest.raises(DomainError, match="^the zero series has no dominant decomposition$"):
        log_series(ZERO)
    with pytest.raises(PartialConstantError, match=r"^log\(2\) is irrational"):
        log_series(from_terms([(2, X)]))
    with pytest.raises(DomainError, match="^log of a series with non-positive"):
        log_series(from_terms([(-1, X)]))
    with pytest.raises(PartialConstantError, match=r"^exp\(1\) is irrational"):
        exp_series(ONE_SERIES)
    with pytest.raises(PartialConstantError, match=r"^2\^\(1/2\) is irrational$"):
        pow_series(from_terms([(2, X)]), Fraction(1, 2))
    with pytest.raises(DomainError, match=r"^negative base -4 with fractional exponent 1/2$"):
        pow_series(from_terms([(-4, X)]), Fraction(1, 2))


# the f of the Taylor identity queries, and series on larger grids
TAYLOR_FS = ["1/x", "log(x)", "exp(x)", "1/(1-1/x)", "x^2+3*x", "x^-2", "x^(3/2)",
             "1/x-2*x^-3", "x/2+1+1/x", "1/(1-2/x)", "(1-1/x)/(1-2/x)"]
GRID_TEXTS = ["exp(1/x)*log(x)/(1-1/x)", "exp(x + 1/x)/(1 - 1/log(x))",
              "1/(1 - 2/x - 3/x^2)", "(1 + 3/x)^(1/2)", "log(x)/(1 - 1/log(x))"]


def _fold_corpus():
    return [parse_series(t) for t in TAYLOR_FS + GRID_TEXTS] \
        + [rand_grid_series(rng(seed)) for seed in range(6)]


def _assert_expansions_agree(got, ref, where) -> int:
    """got and ref agree at the twelfth grid position of ref and, on a
    finite grid, one monomial below the last base of got's certificate,
    wherever ref answers, in value and type; the number of these cutoffs
    where ref refuses and got answers."""
    cert = got.cert
    cutoffs = [depth_cutoff(ref, 12)[0] or ONE]
    if cert.bases and not cert.ratios:
        cutoffs.append(mono_mul(cert.bases[-1], X_INV))
    answered = 0
    for cutoff in cutoffs:
        want = _outcome(ref.expand, cutoff)
        if isinstance(want, tuple):
            got.expand(cutoff)
            answered += 1
        else:
            typed = {m: (c, type(c)) for m, c in got.expand(cutoff).items()}
            assert typed == {m: (c, type(c)) for m, c in want.items()}, (where, cutoff.render())
    return answered


def _general_x():
    """A handle that composes through the general path with the images of
    x: its `g` is x plus a zero that gives it a second base."""
    h = CompositionHandle(X_SERIES)
    h.g = _general(X_SERIES, X)
    return h


def test_composing_with_x_returns_the_operand():
    fs = _fold_corpus() + [from_terms([(c, m)]) for c in ONE_TERM_COEFFS
                           for m in ONE_TERM_MONOS]
    answered = 0
    for f in fs:
        assert compose(f, X_SERIES) is f and compose(f, CompositionHandle(X_SERIES)) is f
        ref = compose(f, _general_x())
        assert ref.cert == f.cert, f
        answered += _assert_expansions_agree(f, ref, f)
    assert compose(ZERO, X_SERIES) is ZERO
    # at the twelfth grid position of exp(x + 1/x)/(1 - 1/log(x)) the
    # general path expands f at exp(x)*x^-13, below all log(x)^-k*exp(x),
    # and refuses
    assert answered == 1


def test_a_product_with_one_term_is_a_shift():
    terms = [from_terms([(c, m)]) for c in ONE_TERM_COEFFS[::3] for m in ONE_TERM_MONOS]
    checked = 0
    for s in _fold_corpus():
        if one_term(s) is not None:
            continue
        general_s = _general(s, s.cert.base(0))
        for t in terms:
            # the pair loop over two general operands
            ref = mul(general_s, _general(t, t.cert.base(0)))
            for got in (mul(s, t), mul(t, s)):
                assert got.cert == s.cert.product(t.cert), (s, t)
                _assert_expansions_agree(got, ref, (s, t))
            checked += 1
    assert checked == 15 * len(terms)


def _lazy(s):
    """s as a node that does not hold its terms, so that `derive` takes
    the lazy strongly linear path on the same certificate."""
    return TransSeries(s.cert, s.expand)


def test_a_held_series_differentiates_once():
    held = [from_terms([(c, m)]) for c in ONE_TERM_COEFFS[::3] for m in ONE_TERM_MONOS]
    held += [parse_series(t) for t in ("1/x", "log(x)", "exp(x)", "x^-2", "x^(3/2)")]
    held += [rand_finite_series(rng(seed), 4, allow_exp=True) for seed in range(12)]
    for f in held:
        got, ref = f, _lazy(f)
        for k in range(1, 4):
            got, ref = derive(got), derive(ref)
            assert got._held is not None or got is ZERO, (f, k)
            assert ref._held is None or ref is ZERO, (f, k)
            assert got.cert == ref.cert, (f, k)
            _assert_expansions_agree(got, ref, (f, k))
    # a product that is not expanded yet stays lazy
    assert derive(mul(parse_series("1+1/x"), parse_series("1+2/x")))._held is None


def test_a_held_sum_differentiates_once():
    # the Taylor f's written as sums and differences of held terms
    for text, parts in (("x^2+3*x", ["x^2", "3*x"]), ("x/2+1+1/x", ["x/2", "1", "1/x"]),
                        ("1/x-2*x^-3", ["1/x", "-2*x^-3"])):
        f = parse_series(text)
        held = [parse_series(p) for p in parts]
        assert f._held is not None, text
        # the union certificate of the lazy sum, so every grid position stays
        assert f.cert == sum_family([_lazy(p) for p in held]).cert, text
        got, ref = derive(f), derive(_lazy(f))
        assert got._held is not None and ref._held is None, text
        assert got.cert == ref.cert, text
        _assert_expansions_agree(got, ref, text)
    # summands that cancel leave no term, and an integral sum is an int
    s = sum_family([parse_series("x/2 + 1/3"), parse_series("x/2 - 1/3")])
    assert s._held == {X: 1} and type(s._held[X]) is int
    # one summand that does not hold its terms keeps the sum lazy
    assert sum_family([X_SERIES, _lazy(ONE_SERIES)])._held is None
    # a term that cancels inside a held sum and comes back in an enclosing
    # one: the held and the lazy sum agree in value and in type
    inner = [parse_series(t) for t in ("exp(x)", "x", "-exp(x)")]
    held = sum_family([sum_family(inner), parse_series("exp(x)")])
    lazy = sum_family([sum_family([_lazy(p) for p in inner]), _lazy(parse_series("exp(x)"))])
    assert held._held is not None
    for got in (held.expand(X_INV), lazy.expand(X_INV)):
        assert {m: (c, type(c)) for m, c in got.items()} == {E_X: (1, int), X: (1, int)}


def test_a_held_derivative_is_audited_against_its_grid(monkeypatch):
    from transseries import SummabilityViolationError, calculus
    # a grid without the base x: the derivative 2*x of x^2 escapes it
    monkeypatch.setattr(calculus, "_derivation_grid",
                        lambda cert, gens: ((X_INV,), GridCertificate.of([X_INV])))
    f = from_terms([(1, X2)])
    message = "^image monomial x of x\\^2 escapes the declared image grid$"
    with pytest.raises(SummabilityViolationError, match=message):
        derive(f)
    with pytest.raises(SummabilityViolationError, match=message):
        derive(_lazy(f)).expand(ONE)
    # two sources whose derivatives hold the escaping x: the refusal names
    # the larger, x^2*log(x), in either order of the terms
    grid = GridCertificate.of([mono_mul(X, L1)])
    monkeypatch.setattr(calculus, "_derivation_grid", lambda cert, gens: ((X_INV,), grid))
    message = "^image monomial x of x\\^2\\*log\\(x\\) escapes the declared image grid$"
    for terms in ([(1, X2), (1, mono_mul(X2, L1))], [(1, mono_mul(X2, L1)), (1, X2)]):
        with pytest.raises(SummabilityViolationError, match=message):
            derive(from_terms(terms))
        with pytest.raises(SummabilityViolationError, match=message):
            derive(_lazy(from_terms(terms))).expand(ONE)


def test_a_derivative_stores_an_integral_coefficient_as_an_int():
    f = parse_series("x^2/2")
    for got in (derive(f).expand(ONE), derive(_lazy(f)).expand(ONE)):
        assert {m: (c, type(c)) for m, c in got.items()} == {X: (1, int)}
