"""Power series over the transseries field: convergence, cuts, evaluation."""

from fractions import Fraction
from math import comb

import pytest

from transseries import (ONE, ONE_SERIES, ZERO, CutSpec,
                         EvaluationRefusedError, GridCertificate, PowerSeries,
                         PreconditionError, PSJointCert, X, conv_contains,
                         cut_eval, cut_member,
                         exp_series, from_terms, invert, lift_coefficientwise,
                         make_monomial, mono_cmp, mono_inv, mono_pow,
                         mono_series, monomial_geometric, mul, ps_compose,
                         ps_derive, ps_eval, ps_translate)
from transseries.calculus import DERIVATION, IDENTITY, CompositionHandle
from transseries.powerseries import _in_negative_cone
from transseries.series import add, scale, sum_family

from helpers import assert_depth_equal, from_coeffs, ps_add, ps_mul, rng

X_INV = mono_inv(X)
X2 = make_monomial({0: 2})


def xpow(k):
    return mono_pow(X, Fraction(k))


def xs(k):
    return mono_series(xpow(k))


def const_family():
    """P = sum X^k with coefficient 1."""
    return PowerSeries(lambda k: ONE_SERIES,
                       joint=PSJointCert(GridCertificate.of([ONE]), frozenset([ONE])))


def inv_factorial_family():
    import math
    return PowerSeries(lambda k: scale(ONE_SERIES, Fraction(1, math.factorial(k))),
                       joint=PSJointCert(GridCertificate.of([ONE]), frozenset([ONE])))


def lacunary_family():
    """P = sum x^{-2^k} X^k: converges everywhere, not a polynomial."""
    return PowerSeries(lambda k: xs(-(2 ** k)),
                       joint=PSJointCert(GridCertificate.of([ONE]), frozenset([X_INV])))


def test_joint_certificate_refuses_a_ratio_that_is_not_infinitesimal():
    # the factors may be large, and only the small ones become ratios of the
    # coefficient grid; the grid's own ratios must be infinitesimal
    joint = PSJointCert(GridCertificate.of([ONE]), frozenset([X_INV, X]))
    assert joint.coefficient_grid() == GridCertificate.of([ONE], [X_INV])
    with pytest.raises(PreconditionError,
                       match="certificate ratio x is not infinitesimal"):
        PSJointCert(GridCertificate.of([ONE], [X]), frozenset([X_INV]))


# -- ps_derive -------------------------------------------------------------------


def test_ps_derive_polynomial():
    p = from_coeffs([ONE_SERIES, ZERO, ONE_SERIES])  # 1 + X^2
    d = ps_derive(p)
    assert_depth_equal(d.coeff(0), ZERO, 4)
    assert d.coeff(1).expand(ONE) == {ONE: Fraction(2)}
    assert d.finite_degree == 1


def test_ps_derive_shift_law():
    p = const_family()
    d = ps_derive(p)
    for k in range(5):
        assert d.coeff(k).expand(ONE) == {ONE: Fraction(k + 1)}


def test_ps_derive_coefficient_series():
    p = PowerSeries(lambda k: xs(-k), joint=PSJointCert(GridCertificate.of([ONE]),
                                                        frozenset([X_INV])))
    d = ps_derive(p)
    for k in range(4):
        assert d.coeff(k).expand(xpow(-k - 1)) == {xpow(-k - 1): Fraction(k + 1)}


# -- ps_compose -------------------------------------------------------------------


def test_ps_compose_identity():
    p = from_coeffs([xs(1), xs(-1), ONE_SERIES])
    ident = from_coeffs([ZERO, ONE_SERIES])
    q = ps_compose(p, ident)
    for k in range(3):
        assert_depth_equal(q.coeff(k), p.coeff(k), 6)


def test_ps_compose_polynomial():
    # P = X^2, Q = X + X^2: P o Q = X^2 + 2X^3 + X^4
    p = from_coeffs([ZERO, ZERO, ONE_SERIES])
    q = from_coeffs([ZERO, ONE_SERIES, ONE_SERIES])
    r = ps_compose(p, q)
    want = [0, 0, 1, 2, 1, 0]
    for k, c in enumerate(want):
        got = r.coeff(k).expand(ONE).get(ONE, 0)
        assert got == c


def test_ps_compose_geometric_in_x_squared():
    p = const_family()
    q = from_coeffs([ZERO, ZERO, ONE_SERIES])  # X^2
    r = ps_compose(p, q)
    for k in range(8):
        want = Fraction(1) if k % 2 == 0 else Fraction(0)
        assert r.coeff(k).expand(ONE).get(ONE, 0) == want


def test_ps_compose_requires_zero_constant_term():
    with pytest.raises(PreconditionError):
        ps_compose(const_family(), from_coeffs([ONE_SERIES]))


def test_ps_compose_associative():
    p = from_coeffs([ONE_SERIES, xs(-1), xs(-2)])
    q = from_coeffs([ZERO, ONE_SERIES, ONE_SERIES])
    r = from_coeffs([ZERO, xs(-1)])
    lhs = ps_compose(ps_compose(p, q), r)
    rhs = ps_compose(p, ps_compose(q, r))
    for k in range(7):
        assert_depth_equal(lhs.coeff(k), rhs.coeff(k), 6, f"order {k}")


# -- convergence -----------------------------------------------------------------


def test_conv_geometric_at_infinitesimal():
    assert conv_contains(const_family(), xs(-1)).convergent


def test_conv_geometric_at_one_diverges():
    rep = conv_contains(const_family(), ONE_SERIES)
    assert rep.verdict == "certified_divergent"
    assert rep.witnesses


def test_conv_lacunary_beats_cut_duality():
    p = lacunary_family()
    assert conv_contains(p, mono_series(X)).convergent
    assert cut_member(p, CutSpec.empty()).kind == "non_member"


def test_conv_polynomial_everywhere():
    p = from_coeffs([xs(1), xs(2)])
    assert conv_contains(p, mono_series(X2)).convergent


def test_conv_convexity():
    # certified at delta and eps <= delta implies certified at eps
    p = const_family()
    deltas = [xs(-1), xs(-2), scale(xs(-1), 3)]
    for d in deltas:
        assert conv_contains(p, d).convergent
    p2 = PowerSeries(lambda k: xs(k), joint=PSJointCert(GridCertificate.of([ONE]),
                                                        frozenset([X])))
    # needs delta below x^-1
    assert conv_contains(p2, xs(-2)).convergent
    assert conv_contains(p2, xs(-3)).convergent
    assert not conv_contains(p2, xs(-1)).convergent


def test_conv_convexity_randomized():
    # certified at delta plus eps <= delta implies certified at eps
    r = rng(97)
    families = [const_family(), inv_factorial_family(), lacunary_family(),
                monomial_geometric(X_INV),
                PowerSeries(lambda k: mono_series(xpow(k)),
                            joint=PSJointCert(GridCertificate.of([ONE]), frozenset([X])))]
    deltas = [mono_series(X2), mono_series(X), ONE_SERIES, xs(-1), xs(-2),
              from_terms([(2, X_INV), (1, xpow(-3))])]
    for p in families:
        certified = [d for d in deltas if conv_contains(p, d).convergent]
        for d in certified:
            for e in deltas:
                if mono_cmp(e.leading_term().mono, d.leading_term().mono) <= 0:
                    assert conv_contains(p, e).convergent, \
                        "convexity violated"


def test_conv_algebra_sum_product():
    p, q = const_family(), inv_factorial_family()
    d = xs(-1)
    assert conv_contains(p, d).convergent and conv_contains(q, d).convergent
    assert conv_contains(ps_add(p, q), d).convergent
    assert conv_contains(ps_mul(p, q), d).convergent


def test_conv_agrees_with_derivative():
    corpus = [const_family(), inv_factorial_family(), lacunary_family(),
              PowerSeries(lambda k: xs(-k), joint=PSJointCert(GridCertificate.of([ONE]),
                                                              frozenset([X_INV]))),
              PowerSeries(lambda k: scale(xs(-k), (-1) ** k),
                          joint=PSJointCert(GridCertificate.of([ONE]),
                                            frozenset([X_INV])))]
    deltas = [xs(-1), ONE_SERIES, xs(-2)]
    for p in corpus:
        dp = ps_derive(p)
        for d in deltas:
            assert conv_contains(p, d).verdict == conv_contains(dp, d).verdict


# -- evaluation ------------------------------------------------------------------


def test_ps_eval_geometric():
    got = ps_eval(const_family(), xs(-1))
    assert_depth_equal(got, invert(from_terms([(1, ONE), (-1, X_INV)])), 8)


def test_ps_eval_exponential():
    got = ps_eval(inv_factorial_family(), xs(-1))
    assert_depth_equal(got, exp_series(xs(-1)), 8)


def test_ps_eval_identity_series():
    p = from_coeffs([ZERO, ONE_SERIES])
    s = from_terms([(2, X), (1, X_INV)])
    assert_depth_equal(ps_eval(p, s), s, 6)


def test_ps_eval_refuses_divergent():
    with pytest.raises(EvaluationRefusedError) as exc:
        ps_eval(const_family(), ONE_SERIES)
    assert exc.value.report.verdict == "certified_divergent"


def test_eval_refuses_a_joint_certificate_that_does_not_bound_the_coefficients():
    # P = 1 + x^20 X^20 fits the joint certificate ({1}, {x^-1}, {x}) and
    # converges at x^-1 with value 2, but the factor x times x^-1 is 1: the
    # certificate bounds no level of P_20 delta^20, and a sum that dropped
    # that ratio would render 1 + O(x^-8)
    p = PowerSeries(lambda k: {0: ONE_SERIES, 20: xs(20)}.get(k, ZERO),
                    joint=PSJointCert(GridCertificate.of([ONE], [X_INV]), frozenset([X])))
    d = xs(-1)
    assert conv_contains(p, d).convergent
    for evaluate in (lambda: ps_eval(p, d),
                     lambda: cut_eval(p, d, CutSpec.above(ONE)),
                     lambda: ps_translate(p, d)):
        with pytest.raises(EvaluationRefusedError, match="grid ratio 1 is not"):
            evaluate()


def test_ev_is_multiplicative():
    p, q = const_family(), inv_factorial_family()
    d = xs(-1)
    lhs = ps_eval(ps_mul(p, q), d)
    rhs = mul(ps_eval(p, d), ps_eval(q, d))
    assert_depth_equal(lhs, rhs, 8, "ev(PQ) = ev(P) ev(Q)")
    lhs2 = ps_eval(ps_add(p, q), d)
    rhs2 = add(ps_eval(p, d), ps_eval(q, d))
    assert_depth_equal(lhs2, rhs2, 8, "ev(P+Q) = ev(P) + ev(Q)")


# -- translation -----------------------------------------------------------------


def test_translate_by_zero_is_identity():
    p = const_family()
    t = ps_translate(p, ZERO)
    for k in range(4):
        assert_depth_equal(t.coeff(k), p.coeff(k), 6)


def test_translate_geometric_head():
    t = ps_translate(const_family(), xs(-1))
    assert_depth_equal(t.coeff(0), invert(from_terms([(1, ONE), (-1, X_INV)])), 8)


def test_translate_polynomial():
    eps = from_terms([(1, X_INV), (2, xpow(-2))])
    p = from_coeffs([ONE_SERIES, ONE_SERIES])  # 1 + X
    t = ps_translate(p, eps)
    assert_depth_equal(t.coeff(0), ONE_SERIES + eps, 6)
    assert_depth_equal(t.coeff(1), ONE_SERIES, 6)


def test_translate_group_law():
    cubic = from_coeffs(
        [ONE_SERIES, xs(-1), ONE_SERIES + xs(1), scale(xs(-2), 3)])
    d, e = xs(-1), xs(-2)
    for p in (const_family(), cubic):
        both = ps_translate(p, add(d, e))
        stepped = ps_translate(ps_translate(p, d), e)
        for k in range(7):
            assert_depth_equal(both.coeff(k), stepped.coeff(k), 6, f"order {k}")


def test_translate_then_eval_is_shifted_eval():
    p = const_family()
    e, d = xs(-1), xs(-2)
    lhs = ps_eval(ps_translate(p, e), d)
    rhs = ps_eval(p, add(e, d))
    assert_depth_equal(lhs, rhs, 8)


def test_translate_past_three_factors_to_the_eighth():
    # P_k = x^-k under the factors {x^-1, x^-2, x^-3}: coefficient k of P
    # shifted by x^-1 is sum_i C(k+i, k) x^-(k+2i); k factors from three
    # make 3^k ordered products, but only 2k + 1 distinct shifted bases
    p = PowerSeries(lambda k: xs(-k),
                    joint=PSJointCert(GridCertificate.of([ONE]),
                                      frozenset([xpow(-1), xpow(-2), xpow(-3)])))
    t = ps_translate(p, xs(-1))
    for k in (8, 12):
        want = {xpow(-(k + 2 * i)): Fraction(comb(k + i, k)) for i in range(6)}
        assert t.coeff(k).expand(xpow(-(k + 10))) == want


def test_translate_matches_binomial_sums():
    # oracle outside the derivative route: coefficient k of a polynomial P
    # shifted by eps is sum_i C(k+i, k) P_{k+i} eps^i
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rats = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2)])
    series = st.lists(st.tuples(rats, rats), max_size=2).map(
        lambda terms: from_terms([(c, xpow(e)) for c, e in terms]))

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hyp.given(st.lists(series, min_size=1, max_size=4), series)
    def check(coeffs, eps):
        t = ps_translate(from_coeffs(coeffs), eps)
        powers = [ONE_SERIES]
        while len(powers) < len(coeffs):
            powers.append(mul(powers[-1], eps))
        for k in range(len(coeffs)):
            want = sum_family([scale(mul(coeffs[k + i], powers[i]), comb(k + i, k))
                               for i in range(len(coeffs) - k)])
            assert_depth_equal(t.coeff(k), want, 4, f"order {k}")

    check()


def test_translate_requires_convergence():
    with pytest.raises(PreconditionError):
        ps_translate(const_family(), mono_series(X))


# -- composition-evaluation -------------------------------------------------------


def test_compose_eval_identity_under_side_condition():
    # Q_m eps^m strictly below eps_P for all m > 0
    cases = []
    p = const_family()
    q = from_coeffs([ZERO, ONE_SERIES, ONE_SERIES])
    cases.append((p, q, xs(-1)))
    q2 = from_coeffs([ZERO, xs(-1)])
    cases.append((p, q2, xs(-1)))
    q3 = from_coeffs([ZERO, ZERO, ONE_SERIES])
    cases.append((inv_factorial_family(), q3, xs(-1)))
    for p_, q_, eps in cases:
        lhs = ps_eval(ps_compose(p_, q_), eps)
        inner = ps_eval(q_, eps)
        rhs = ps_eval(p_, inner)
        assert_depth_equal(lhs, rhs, 6, "eval of composite")


# -- cuts ------------------------------------------------------------------------


# m*X^k < n*X^k' in the cut ordering iff (m/n)*X^(k-k') lies in the
# negative cone, the test `cut_member` applies to per-degree grid maxima


def test_cut_compare_boundary_witness():
    # u^-3 X^3 vs u^-2 X^2, a ratio of u^-1 X: comparable above a cut
    # containing u, incomparable below
    u = xpow(-1)
    small_cut = CutSpec.above(xpow(-2))     # contains u = x^-1
    big_cut = CutSpec.above(ONE)            # u is below this segment
    w = mono_pow(u, -1)
    assert _in_negative_cone(w, 1, small_cut)
    assert not _in_negative_cone(w, 1, big_cut)


def test_cut_member_polynomials_everywhere():
    p = from_coeffs([xs(5), xs(-5)])
    for cut in [CutSpec.all(), CutSpec.empty(), CutSpec.above(ONE),
                CutSpec.above_eq(xpow(-3))]:
        assert cut_member(p, cut).kind == "member"


def test_cut_member_separator_both_sides():
    # the separating series for u between two boundaries
    u = X  # separator: coefficients u^-k = x^-k
    p = monomial_geometric(mono_inv(u))
    assert cut_member(p, CutSpec.above(xpow(-1))).kind == "member"
    assert cut_member(p, CutSpec.above_eq(u)).kind == "member"
    verdict = cut_member(p, CutSpec.above(u))
    assert verdict.kind == "non_member"
    assert verdict.witnesses
    assert cut_member(p, CutSpec.above(X2)).kind == "non_member"


def test_cut_monotone_in_the_segment():
    u = X
    p = monomial_geometric(mono_inv(u))
    # smaller boundary = larger segment: membership is monotone
    assert cut_member(p, CutSpec.above(xpow(-2))).kind == "member"
    assert cut_member(p, CutSpec.above(xpow(-1))).kind == "member"
    assert cut_member(p, CutSpec.above(X2)).kind == "non_member"


def test_cut_member_is_inconclusive_on_loose_maxima_with_a_descending_pair():
    # P_k = x^-k, but from degree 6 on the certificate of P_k also holds
    # x^k, whose cancelled terms leave grid maxima that fail the descent
    # test; the verified dominants x^-k descend, so nothing is decided
    def coeff(k):
        if k < 6:
            return xs(-k)
        return add(from_terms([(1, xpow(k)), (1, xpow(-k))]), scale(xs(k), -1))

    verdict = cut_member(PowerSeries(coeff), CutSpec.above(ONE))
    assert verdict.kind == "inconclusive"
    assert verdict.witnesses == ()


def test_negative_coefficient_index_is_refused():
    with pytest.raises(PreconditionError, match="negative coefficient index"):
        const_family().coeff(-1)


def test_cut_eval_matches_direct_sum():
    # S = monomials > 1, P = sum X^k, delta = x^-1
    p = const_family()
    got = cut_eval(p, xs(-1), CutSpec.above(ONE))
    assert_depth_equal(got, invert(from_terms([(1, ONE), (-1, X_INV)])), 8)


def test_cut_eval_geometric_with_monomial_coefficients():
    # P = sum u^-k X^k with u = x^-1 (coefficients x^k), delta = x^-2
    p = monomial_geometric(X)
    got = cut_eval(p, xs(-2), CutSpec.above(xpow(-1)))
    want = invert(from_terms([(1, ONE), (-1, X_INV)]))
    assert_depth_equal(got, want, 8)


def test_cut_eval_of_x_is_delta():
    p = from_coeffs([ZERO, ONE_SERIES])
    d = from_terms([(3, X_INV), (1, xpow(-2))])
    assert_depth_equal(cut_eval(p, d, CutSpec.above(ONE)), d, 6)


def test_cut_eval_rejects_delta_inside_segment():
    p = const_family()
    with pytest.raises(PreconditionError):
        cut_eval(p, mono_series(X), CutSpec.above(ONE))


def test_cut_eval_at_the_boundary():
    # delta may sit on the boundary of a strict segment, not of a closed one
    p = monomial_geometric(X_INV)
    got = cut_eval(p, xs(-1), CutSpec.above(X_INV))
    assert_depth_equal(got, invert(add(ONE_SERIES, scale(xs(-2), -1))), 8)
    with pytest.raises(PreconditionError, match="not below the final segment"):
        cut_eval(p, ONE_SERIES, CutSpec.above(X_INV))
    with pytest.raises(PreconditionError, match="not below the final segment"):
        cut_eval(p, mono_series(X), CutSpec.above_eq(X))


# -- coefficientwise lifting -------------------------------------------------------


def test_lift_identity():
    p = const_family()
    q = lift_coefficientwise(IDENTITY, p)
    for k in range(4):
        assert_depth_equal(q.coeff(k), p.coeff(k), 6)


def test_lift_derivation():
    p = PowerSeries(lambda k: xs(-k), joint=PSJointCert(GridCertificate.of([ONE]),
                                                        frozenset([X_INV])))
    q = lift_coefficientwise(DERIVATION, p,
                             s_source=CutSpec.above(xpow(-1)),
                             s_target=CutSpec.above(xpow(-1)))
    for k in range(1, 5):
        assert q.coeff(k).expand(xpow(-k - 1)) == {xpow(-k - 1): Fraction(-k)}
    assert cut_member(q, CutSpec.above(xpow(-1))).kind == "member"


def test_lift_composition_substitutes_monomials():
    p = PowerSeries(lambda k: xs(-k), joint=PSJointCert(GridCertificate.of([ONE]),
                                                        frozenset([X_INV])))
    op = CompositionHandle(mono_series(X2))
    q = lift_coefficientwise(op, p)
    for k in range(4):
        assert q.coeff(k).expand(xpow(-2 * k)) == {xpow(-2 * k): Fraction(1)}


def test_lift_checks_target_membership():
    from transseries import SummabilityViolationError
    p = monomial_geometric(X)  # coefficients x^k
    with pytest.raises(SummabilityViolationError):
        lift_coefficientwise(IDENTITY, p,
                             s_target=CutSpec.above(X2))


def test_lift_checks_the_source_cut_is_the_pullback():
    # under x -> x^2 the cut above x^-1 pulls back to the cut above x^-2
    op = CompositionHandle(mono_series(X2))
    target = CutSpec.above(xpow(-1))
    p = monomial_geometric(xpow(-3))
    q = lift_coefficientwise(op, p, s_source=CutSpec.above(xpow(-2)),
                             s_target=target)
    assert q.coeff(2).render() == "x^-12"
    with pytest.raises(PreconditionError) as exc:
        lift_coefficientwise(op, p, s_source=target, s_target=target)
    assert str(exc.value) == ("source cut must be the pullback of the target "
                              "cut (monomials > x^-2)")


def test_pullback_cut_via_dominant_images():
    from transseries import pullback_cut
    op = CompositionHandle(mono_series(X2))
    got = pullback_cut(op, CutSpec.above(xpow(-1)))
    assert got.variant == "above" and got.boundary is xpow(-2)

