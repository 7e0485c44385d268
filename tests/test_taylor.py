"""Taylor deformation: locus decisions, the main identity, and its
commutation/chain-rule corollaries."""

from fractions import Fraction
from math import comb

import pytest

from transseries import (ONE, ONE_SERIES, ZERO, CompositionHandle, DomainError,
                         LocusSpec, IDENTITY, PreconditionError, X,
                         analytic_commutation_check, atom,
                         chain_rule_transport_check, compose, dagger, derive,
                         exp_series, faa_di_bruno_coeff, from_terms, invert,
                         lift_coefficientwise, locus_contains, make_monomial,
                         mono_inv, mono_mul, mono_pow, mono_series, mul,
                         taylor_deform, taylor_identity_check, taylor_series)
from transseries.series import add
from transseries.parser import parse_series
from transseries.taylor import _check_descent, _compare, spec_condition_check

from helpers import assert_depth_equal, derive_n, from_coeffs, rng

X_INV = mono_inv(X)
L1 = atom(1)
E_X = make_monomial({}, [(1, X)])
X2 = make_monomial({0: 2})
X_SERIES = mono_series(X)
ID_AT_1 = LocusSpec(IDENTITY, ONE_SERIES)


def xpow(k):
    return mono_pow(X, Fraction(k))


def geom():
    return invert(from_terms([(1, ONE), (-1, X_INV)]))


# -- the operator interface ------------------------------------------------------


@pytest.mark.parametrize("op", [IDENTITY, CompositionHandle(mono_series(X2))],
                         ids=["identity", "compose_x2"])
def test_operators_share_one_interface(op):
    for m in (X, X_INV, L1, E_X, mono_mul(xpow(Fraction(3, 2)), mono_inv(E_X))):
        img = op.mono_image(m)
        assert_depth_equal(op.apply(mono_series(m)), img, 6)
    assert_depth_equal(op.g, op.mono_image(X), 6)
    p = taylor_series(geom(), ID_AT_1)
    lifted = lift_coefficientwise(op, p)
    for k in range(4):
        assert_depth_equal(lifted.coeff(k), op.apply(p.coeff(k)), 6)


# -- locus -----------------------------------------------------------------------


def test_locus_geometric_certified():
    rep = locus_contains(ID_AT_1, geom())
    assert rep.convergent


def test_locus_exponential_diverges_at_one():
    rep = locus_contains(ID_AT_1, mono_series(E_X))
    assert rep.verdict == "certified_divergent"
    assert rep.witnesses[0][0] is E_X


def test_locus_exponential_after_composition():
    spec = LocusSpec(CompositionHandle(mono_series(X2)),
                     mono_series(X_INV))
    assert locus_contains(spec, mono_series(E_X)).convergent


def test_locus_zero_delta_short_circuits():
    rep = locus_contains(LocusSpec(IDENTITY, ZERO),
                         mono_series(E_X))
    assert rep.convergent
    out = taylor_deform(mono_series(E_X),
                        LocusSpec(IDENTITY, ZERO))
    assert_depth_equal(out, mono_series(E_X), 4)


def test_locus_equals_generator_conjunction_on_finite_support():
    # brute force: the verdict for finite-support f is the conjunction of
    # the per-monomial verdicts
    r = rng(3)
    from helpers import rand_monomial
    for _ in range(15):
        monos = {rand_monomial(r) for _ in range(3)} - {ONE}
        if not monos:
            continue
        f = from_terms([(1, m) for m in monos])
        rep = locus_contains(ID_AT_1, f)
        per = [locus_contains(ID_AT_1, mono_series(m)) for m in monos]
        if all(p.convergent for p in per):
            assert rep.convergent
        if rep.convergent:
            assert all(p.convergent for p in per)


def test_generator_reduction_matches_support_enumeration():
    # design-decision oracle: on random grid series, the generator-level
    # certificate must agree with brute force over the first 50 support
    # monomials (zero disagreements allowed)
    r = rng(77)
    from helpers import rand_grid_series
    from transseries.series import depth_cutoff
    checked = 0
    for _ in range(20):
        f = rand_grid_series(r)
        rep = locus_contains(ID_AT_1, f)
        if not rep.convergent:
            continue
        cutoff, _ = depth_cutoff(f, 50)
        if cutoff is None:
            continue
        for m in f.expand(cutoff):
            if m is ONE:
                continue
            lt = dagger(m).leading_term()
            if lt is not None:
                assert mono_mul(lt.mono, ONE).is_small(), \
                    f"generator certificate lied at {m.render()}"
        checked += 1
    assert checked >= 8


def test_certified_monomials_form_a_group():
    spec = ID_AT_1

    def certified(m):
        return locus_contains(spec, mono_series(m)).convergent

    corpus = [X, X_INV, X2, L1, mono_mul(X2, L1), xpow(Fraction(3, 2))]
    for a in corpus:
        assert certified(a)
        assert certified(mono_inv(a))
        for b in corpus:
            assert certified(mono_mul(a, b))


def test_differential_stability():
    # derivatives of certified monomials stay certified
    spec = ID_AT_1
    corpus = [X2, L1, mono_mul(X_INV, L1), xpow(Fraction(-5, 2))]
    for m in corpus:
        assert locus_contains(spec, mono_series(m)).convergent
        d = derive(mono_series(m))
        assert locus_contains(spec, d).convergent


# -- the Taylor morphism ------------------------------------------------------------


def test_taylor_series_of_x():
    t = taylor_series(X_SERIES, ID_AT_1)
    assert_depth_equal(t.coeff(0), X_SERIES, 4)
    assert_depth_equal(t.coeff(1), ONE_SERIES, 4)
    assert_depth_equal(t.coeff(2), ZERO, 4)


def test_taylor_series_of_x_squared():
    t = taylor_series(mono_series(X2), ID_AT_1)
    assert t.coeff(1).expand(ONE) == {X: Fraction(2)}
    assert t.coeff(2).expand(ONE) == {ONE: Fraction(1)}
    assert_depth_equal(t.coeff(3), ZERO, 4)


def _geom_taylor_oracle(k: int, nterms: int = 8):
    """Independent closed form: the k-th Taylor coefficient of
    1/(1 - 1/x) = 1 + (x-1)^{-1} is (-1)^k (x-1)^{-(k+1)}, expanded by the
    binomial series with exact rationals."""
    terms = []
    for j in range(nterms):
        coeff = Fraction((-1) ** k) * comb(k + j, j)
        terms.append((coeff, xpow(-(k + 1) - j)))
    if k == 0:
        terms.append((Fraction(1), ONE))
    return from_terms(terms)


def test_taylor_series_matches_symbolic_derivatives():
    t = taylor_series(geom(), ID_AT_1)
    for k in range(6):
        want = _geom_taylor_oracle(k)
        got = t.coeff(k)
        assert got.expand(xpow(-(k + 6))) == want.expand(xpow(-(k + 6))), \
            f"Taylor coefficient {k} disagrees with the closed form"


def test_taylor_morphism_multiplicative():
    f = from_terms([(1, X_INV), (1, xpow(-2))])
    h = from_terms([(2, ONE), (1, X_INV)])
    tf = taylor_series(f, ID_AT_1)
    th = taylor_series(h, ID_AT_1)
    tfh = taylor_series(mul(f, h), ID_AT_1)
    for k in range(5):
        want = ZERO
        for i in range(k + 1):
            want = add(want, mul(tf.coeff(i), th.coeff(k - i)))
        assert_depth_equal(tfh.coeff(k), want, 6, f"order {k}")


# -- deformation ---------------------------------------------------------------------


def test_deform_inverse_shift():
    got = taylor_deform(mono_series(X_INV), ID_AT_1)
    assert_depth_equal(got, invert(from_terms([(1, X), (1, ONE)])), 8)


def test_deform_x_gives_shift():
    got = taylor_deform(X_SERIES, ID_AT_1)
    assert_depth_equal(got, from_terms([(1, X), (1, ONE)]), 6)


def test_deform_exp_through_composition():
    spec = LocusSpec(CompositionHandle(mono_series(X2)),
                     mono_series(X_INV))
    got = taylor_deform(mono_series(E_X), spec)
    want = exp_series(from_terms([(1, X2), (1, X_INV)]))
    assert_depth_equal(got, want, 8)


def test_deform_is_ring_morphism():
    f = from_terms([(1, X_INV), (2, xpow(-2))])
    h = from_terms([(1, ONE), (-1, X_INV)])
    lhs = taylor_deform(mul(f, h), ID_AT_1)
    rhs = mul(taylor_deform(f, ID_AT_1), taylor_deform(h, ID_AT_1))
    assert_depth_equal(lhs, rhs, 8, "T(fh) = T(f) T(h)")


def test_deform_descent_chain():
    # computed terms fall strictly: T(f) > T(f') d > T(f'') d^2
    spec = ID_AT_1
    for f in [geom(), mono_series(X_INV), from_terms([(1, L1)])]:
        t = taylor_series(f, spec)
        prev = None
        power = ONE_SERIES
        for k in range(3):
            term = mul(t.coeff(k), power) if k else t.coeff(0)
            lt = term.leading_term()
            if lt is None:
                break
            if prev is not None:
                assert lt.mono < prev
            prev = lt.mono
            power = mul(power, spec.delta)


def test_descent_check_refuses_rising_terms():
    # terms P_k delta^k = x^k rise, which a certified locus rules out
    rising = from_coeffs([mono_series(xpow(k)) for k in range(3)])
    with pytest.raises(DomainError, match="descent chain violated"):
        _check_descent(rising, ONE_SERIES, orders=3)
    falling = from_coeffs([mono_series(xpow(-k)) for k in range(3)])
    assert _check_descent(falling, ONE_SERIES, orders=3) is None


def test_deform_refuses_outside_locus():
    # the Taylor morphism on its own refuses too, each with its own message
    for fn, what in ((taylor_deform, "Taylor deformation"),
                     (taylor_series, "Taylor series")):
        with pytest.raises(PreconditionError,
                           match=f"^{what} refused: locus is certified_divergent"):
            fn(mono_series(E_X), ID_AT_1)


def test_identity_check_decides_the_locus_once(monkeypatch):
    import transseries.taylor as taylor
    calls = []

    def counting(spec, f):
        calls.append(f)
        return locus_contains(spec, f)

    monkeypatch.setattr(taylor, "locus_contains", counting)
    f = geom()
    rep = taylor_identity_check(f, X_SERIES, ONE_SERIES, depth=4)
    assert rep.status == "EQUAL"
    assert calls == [f]


# -- the main identity ---------------------------------------------------------------


def test_identity_inverse():
    r = taylor_identity_check(mono_series(X_INV), X_SERIES, ONE_SERIES, 8)
    assert r.status == "EQUAL"


def test_identity_log():
    r = taylor_identity_check(mono_series(L1), X_SERIES, ONE_SERIES, 6)
    assert r.status == "EQUAL"


def test_identity_exp_skipped_at_one():
    r = taylor_identity_check(mono_series(E_X), X_SERIES, ONE_SERIES, 6)
    assert r.status == "SKIPPED"
    assert r.conv_report.verdict == "certified_divergent"


def test_identity_exp_composed_with_square():
    r = taylor_identity_check(mono_series(E_X), mono_series(X2),
                              mono_series(X_INV), 8)
    assert r.status == "EQUAL"


def test_identity_corpus():
    g_x = X_SERIES
    g_sq = mono_series(X2)
    cases = [
        (mono_series(X_INV), g_x, ONE_SERIES),
        (mono_series(L1), g_x, ONE_SERIES),
        (mono_series(E_X), g_sq, mono_series(X_INV)),
        (geom(), g_x, ONE_SERIES),
        (from_terms([(1, X2), (3, X)]), g_x, ONE_SERIES),
        (mono_series(xpow(-2)), g_x, ONE_SERIES),
        (from_terms([(1, X_INV), (-2, xpow(-3))]), g_sq, X_SERIES),
        (mono_series(L1), g_sq, X_SERIES),
        (geom(), g_sq, mono_series(X_INV)),
        (from_terms([(Fraction(1, 2), X), (1, ONE), (1, X_INV)]), g_x,
         ONE_SERIES),
        (mono_series(xpow(Fraction(3, 2))), g_x, ONE_SERIES),
    ]
    for f, g, d in cases:
        r = taylor_identity_check(f, g, d, 8)
        assert r.status == "EQUAL", f"{r.status}: {r.detail}"


def test_sharpness_divergent_cases_skip():
    cases = [
        (mono_series(E_X), X_SERIES, ONE_SERIES),
        (mono_series(make_monomial({}, [(1, X2)])), X_SERIES, ONE_SERIES),
        (mono_series(make_monomial({}, [(-1, X)])), X_SERIES, ONE_SERIES),
        (from_terms([(1, E_X), (1, X)]), X_SERIES, ONE_SERIES),
        (mono_series(E_X), X_SERIES, mono_series(X)),
        (mono_series(make_monomial({}, [(2, X)])), X_SERIES, ONE_SERIES),
    ]
    for f, g, d in cases:
        rep = locus_contains(LocusSpec(CompositionHandle(g), d), f)
        assert rep.verdict == "certified_divergent", \
            f"expected divergence for {f.render(2)}"
        r = taylor_identity_check(f, g, d, 6)
        assert r.status == "SKIPPED"


def test_commutation_corpus():
    spec1 = ID_AT_1
    spec2 = LocusSpec(CompositionHandle(mono_series(X2)),
                      mono_series(X_INV))
    cases = [
        (X_SERIES, spec1),
        (mono_series(X2), spec1),
        (mul(mono_series(E_X), from_terms([(1, ONE), (1, X_INV)])), spec2),
        (from_terms([(1, X), (1, ONE)]), spec1),
        (mono_series(xpow(3)), spec1),
        (mono_series(L1), spec1),
        (geom(), spec1),
        (mono_series(X2), spec2),
        (X_SERIES, spec2),
        (from_terms([(1, X2), (1, X)]), spec2),
    ]
    for f, spec in cases:
        r = analytic_commutation_check(f, spec, 6)
        assert r.status == "EQUAL", f"{r.status}: {r.detail}"


def test_chain_rule_corpus():
    spec2 = LocusSpec(CompositionHandle(mono_series(X2)),
                      mono_series(X_INV))
    spec1 = ID_AT_1
    cases = [
        (mono_series(X2), spec2), (X_SERIES, spec2),
        (mono_series(X_INV), spec2), (geom(), spec2),
        (mono_series(L1), spec2), (from_terms([(1, X2), (-1, X)]), spec2),
        (mono_series(X2), spec1), (geom(), spec1),
        (mono_series(xpow(-2)), spec1), (from_terms([(2, X), (1, X_INV)]), spec1),
    ]
    for f, spec in cases:
        r = chain_rule_transport_check(f, spec, 6)
        assert r.status == "EQUAL", f"{r.status}: {r.detail}"


# -- Faà di Bruno consistency ---------------------------------------------------------


def test_taylor_coefficients_match_faa_di_bruno():
    g = from_terms([(1, X2), (1, X)])
    h = CompositionHandle(g)
    for f in [mono_series(X_INV), from_terms([(1, X), (2, ONE)])]:
        comp = compose(f, h)
        t = taylor_series(comp, ID_AT_1)
        composed = [compose(derive_n(f, n), h) for n in range(6)]
        inner = [g] + [derive_n(g, j) for j in range(1, 6)]
        for k in range(6):
            want = faa_di_bruno_coeff(composed, inner, k)
            assert_depth_equal(t.coeff(k), want, 5, f"order {k}")


# -- spec condition ---------------------------------------------------------------------


def test_spec_condition_examples():
    r = spec_condition_check(X2)
    assert r["ok"] and r["flat"]
    r = spec_condition_check(make_monomial({}, [(1, X2)]))
    assert r["ok"] and not r["flat"]
    # e^{1/x} is not a canonical monomial (exp of an infinitesimal is a
    # series); the properly-flat branch is exercised by iterated logs
    r = spec_condition_check(L1)
    assert r["ok"] and r["flat"]


def test_spec_condition_rejects_unit():
    with pytest.raises(PreconditionError):
        spec_condition_check(ONE)


def test_compare_reports_the_first_discrepancy():
    lhs = parse_series("1/(1-1/x)")
    rep = _compare(lhs, parse_series("1/(1-1/x) + x^-3"), 6)
    assert rep.status == "UNEQUAL"
    assert rep.detail == "first discrepancy -1 * x^-3"
    assert [(t.coeff, t.mono) for t in rep.discrepancy] == [(-1, mono_pow(X, -3))]
    assert _compare(lhs, lhs, 6).status == "EQUAL"


def test_report_keeps_the_checked_cutoff():
    # a vacuous EQUAL: the check stops at x^-4*exp(x^2), the fifth position
    # of the difference's grid, and the report says so
    rep = taylor_identity_check(parse_series("exp(x^2)"), parse_series("x"),
                                parse_series("1/exp(x)"), depth=4)
    assert rep.status == "EQUAL"
    assert rep.cutoff is mono_mul(xpow(-4), make_monomial({}, [(1, X2)]))
    lhs = parse_series("1/(1-1/x)")
    assert _compare(lhs, parse_series("1/(1-1/x) + x^-3"), 6).cutoff is xpow(-6)


@pytest.mark.parametrize("check,f,detail", [
    (analytic_commutation_check, "2*x",
     "log(2) is irrational; only log(1) is rational"),
    (chain_rule_transport_check, "exp(x)",
     "Taylor deformation refused: locus is certified_divergent ("),
])
def test_corollary_checks_skip_on_refusal(check, f, detail):
    rep = check(parse_series(f), ID_AT_1)
    assert rep.status == "SKIPPED" and rep.detail.startswith(detail)
    assert rep.cutoff is None


@pytest.mark.parametrize("depth", [0, -1])
def test_identity_at_depth_below_1_compares_nothing(depth):
    # the comparison would stop at the first grid position, above which
    # nothing lies: an EQUAL there would be vacuous
    rep = taylor_identity_check(mono_series(X_INV), X_SERIES, ONE_SERIES, depth=depth)
    assert rep.status == "SKIPPED"
    assert rep.detail == f"depth {depth} compares no grid position"
    assert rep.conv_report.convergent and rep.cutoff is None
