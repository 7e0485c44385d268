"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  Tolerances are exact coefficient equality at the stated
depths; runtime budgets are wall-clock."""

import time
from fractions import Fraction

from transseries import (ONE, ONE_SERIES, ZERO, CompositionHandle, CutSpec,
                         GridCertificate, LocusSpec, IDENTITY, PowerSeries,
                         PSJointCert, X, analytic_commutation_check, atom,
                         chain_rule_transport_check, compose, conv_contains,
                         cut_member, dagger, derive,
                         faa_di_bruno_coeff, from_terms,
                         invert, locus_contains, make_monomial, mono_cmp,
                         mono_inv, mono_mul, mono_pow, mono_series,
                         monomial_geometric, mul, ps_compose, ps_derive,
                         ps_eval, ps_translate, taylor_identity_check,
                         taylor_series)
from transseries.series import add, scale
from transseries.taylor import spec_condition_check

from helpers import (assert_depth_equal, derive_n, from_coeffs, ps_add,
                     ps_mul, rand_finite_series, rand_grid_series, rng)
from noetherian_oracle import (FinitePoset, check_product_noetherian,
                               check_star_closure, find_bad_sequence)

X_INV = mono_inv(X)
L1 = atom(1)
E_X = make_monomial({}, [(1, X)])
X2 = make_monomial({0: 2})
X_SERIES = mono_series(X)


def xpow(k):
    return mono_pow(X, Fraction(k))


def geom():
    return invert(from_terms([(1, ONE), (-1, X_INV)]))


def report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def test_acceptance_taylor_identity():
    """Main identity on >= 10 certified triples, 8 terms, < 10 s."""
    start = time.monotonic()
    g_x, g_sq = X_SERIES, mono_series(X2)
    triples = [
        (mono_series(X_INV), g_x, ONE_SERIES),          # 1/x around x
        (mono_series(L1), g_x, ONE_SERIES),             # log x around x
        (mono_series(E_X), g_sq, mono_series(X_INV)),   # e^x around x^2
        (geom(), g_x, ONE_SERIES),
        (geom(), g_sq, mono_series(X_INV)),
        (from_terms([(1, X2), (3, X)]), g_x, ONE_SERIES),
        (mono_series(xpow(-2)), g_x, ONE_SERIES),
        (mono_series(xpow(Fraction(3, 2))), g_x, ONE_SERIES),
        (from_terms([(1, X_INV), (-2, xpow(-3))]), g_sq, X_SERIES),
        (mono_series(L1), g_sq, X_SERIES),
        (from_terms([(Fraction(1, 2), X), (1, ONE), (1, X_INV)]), g_x,
         ONE_SERIES),
    ]
    assert len(triples) >= 10
    for f, g, d in triples:
        r = taylor_identity_check(f, g, d, depth=8)
        assert r.status == "EQUAL", f"{r.status}: {r.detail}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"identity corpus took {elapsed:.1f}s"
    report(f"taylor-identity ({len(triples)} triples, {elapsed:.2f}s)")


def test_acceptance_sharpness():
    """Non-flat monomials with non-shrinking transformed daggers must be
    certified divergent and the identity check must skip."""
    cases = [
        (mono_series(E_X), X_SERIES, ONE_SERIES),
        (mono_series(make_monomial({}, [(1, X2)])), X_SERIES, ONE_SERIES),
        (mono_series(make_monomial({}, [(-1, X)])), X_SERIES, ONE_SERIES),
        (from_terms([(1, E_X), (1, X)]), X_SERIES, ONE_SERIES),
        (mono_series(E_X), X_SERIES, mono_series(X)),
        (mono_series(make_monomial({}, [(2, X)])), X_SERIES, ONE_SERIES),
    ]
    assert len(cases) >= 5
    for f, g, d in cases:
        rep = locus_contains(LocusSpec(CompositionHandle(g), d), f)
        assert rep.verdict == "certified_divergent", \
            f"wanted divergence for {f.render(2)}"
        check = taylor_identity_check(f, g, d, 6)
        assert check.status == "SKIPPED"
    report(f"sharpness ({len(cases)} cases)")


def test_acceptance_ring_and_derivation_laws():
    """200 random pairs: Leibniz, distributivity, convolution-vs-fibers to
    8 terms; 50 inversions (infinite supports included) to 10 terms."""
    r = rng(1009)
    for trial in range(200):
        if trial % 2 == 0:
            s, t = rand_grid_series(r), rand_grid_series(r)
        else:
            s, t = rand_finite_series(r, 3), rand_finite_series(r, 3)
        assert_depth_equal(derive(mul(s, t)),
                           mul(derive(s), t) + mul(s, derive(t)), 8,
                           "Leibniz")
        u = rand_finite_series(r, 2)
        assert_depth_equal(mul(s, t + u), mul(s, t) + mul(s, u), 8,
                           "distributivity")
        _convolution_matches_fibers(s, t, depth=8)

    inverted = 0
    infinite = 0
    while inverted < 50:
        s = rand_grid_series(r)
        if s.leading_term() is None:
            continue
        assert_depth_equal(mul(s, invert(s)), ONE_SERIES, 10, "s * 1/s")
        inverted += 1
        if s.cert.ratios:
            infinite += 1
    assert infinite >= 10
    report("ring-derivation-laws (200 pairs, 50 inversions)")


def _convolution_matches_fibers(s, t, depth):
    from transseries.series import depth_cutoff
    prod = mul(s, t)
    cutoff, _ = depth_cutoff(prod, depth)
    if cutoff is None:
        return
    ms, mt = s.cert.grid_max(), t.cert.grid_max()
    if ms is None or mt is None:
        return
    su = s.expand(mono_mul(cutoff, mt.inv()))
    tv = t.expand(mono_mul(cutoff, ms.inv()))
    if not su or not tv:
        return
    fibers = check_product_noetherian(su.keys(), tv.keys(), mono_cmp).fibers
    got = prod.expand(cutoff)
    for m, pairs in fibers.items():
        if mono_cmp(m, cutoff) < 0:
            continue
        want = sum(su[u] * tv[v] for u, v in pairs)
        assert got.get(m, 0) == want, f"convolution mismatch at {m.render()}"


def test_acceptance_power_series_laws():
    """Translation group law to order 6, Conv(P) = Conv(P') on a 20-series
    corpus, composition-evaluation identity on 10 cases."""
    const_fam = PowerSeries(lambda k: ONE_SERIES,
                            joint=PSJointCert(GridCertificate.of([ONE]),
                                              frozenset([ONE])))
    import math
    expfam = PowerSeries(lambda k: scale(ONE_SERIES, Fraction(1, math.factorial(k))),
                         joint=PSJointCert(GridCertificate.of([ONE]), frozenset([ONE])))

    d, e = mono_series(X_INV), mono_series(xpow(-2))
    both = ps_translate(const_fam, add(d, e))
    stepped = ps_translate(ps_translate(const_fam, d), e)
    for k in range(7):
        assert_depth_equal(both.coeff(k), stepped.coeff(k), 6,
                           f"group law order {k}")

    corpus = [const_fam, expfam,
              PowerSeries(lambda k: mono_series(xpow(-(2 ** k))),
                          joint=PSJointCert(GridCertificate.of([ONE]),
                                            frozenset([X_INV]))),
              monomial_geometric(X_INV), monomial_geometric(X),
              monomial_geometric(xpow(-2)),
              PowerSeries(lambda k: scale(mono_series(xpow(-k)), (-1) ** k),
                          joint=PSJointCert(GridCertificate.of([ONE]),
                                            frozenset([X_INV]))),
              from_coeffs([ONE_SERIES, mono_series(X)]),
              from_coeffs([mono_series(X2), ZERO, ONE_SERIES]),
              PowerSeries(lambda k: scale(mono_series(xpow(-k)),
                                          math.factorial(k)),
                          joint=PSJointCert(GridCertificate.of([ONE]),
                                            frozenset([X_INV]))),
              ]
    corpus += [ps_add(corpus[0], corpus[3]), ps_mul(corpus[0], corpus[1]),
               ps_derive(corpus[2]), ps_derive(corpus[3]),
               ps_add(corpus[7], corpus[8]), ps_mul(corpus[7], corpus[7]),
               ps_derive(corpus[0]), ps_add(corpus[1], corpus[6]),
               ps_mul(corpus[3], corpus[3]), ps_derive(corpus[6])]
    assert len(corpus) >= 20
    deltas = [mono_series(X_INV), ONE_SERIES, mono_series(X)]
    for p in corpus:
        dp = ps_derive(p)
        for delta in deltas:
            assert conv_contains(p, delta).verdict == \
                conv_contains(dp, delta).verdict

    comp_cases = [
        (const_fam, from_coeffs([ZERO, ONE_SERIES, ONE_SERIES]),
         mono_series(X_INV)),
        (const_fam, from_coeffs([ZERO, mono_series(X_INV)]),
         mono_series(X_INV)),
        (expfam, from_coeffs([ZERO, ZERO, ONE_SERIES]),
         mono_series(X_INV)),
        (const_fam, from_coeffs([ZERO, ONE_SERIES]),
         mono_series(xpow(-2))),
        (expfam, from_coeffs([ZERO, ONE_SERIES, ONE_SERIES]),
         mono_series(xpow(-2))),
        (const_fam, from_coeffs([ZERO, ZERO, mono_series(X_INV)]),
         mono_series(X_INV)),
        (expfam, from_coeffs([ZERO, mono_series(xpow(-2))]),
         mono_series(X_INV)),
        (const_fam, from_coeffs([ZERO, ONE_SERIES, mono_series(X_INV)]),
         mono_series(xpow(-2))),
        (expfam, from_coeffs([ZERO, ONE_SERIES]),
         mono_series(xpow(-3))),
        (const_fam, from_coeffs([ZERO, scale(ONE_SERIES, Fraction(1, 2))]),
         mono_series(X_INV)),
    ]
    assert len(comp_cases) >= 10
    for p, q, eps in comp_cases:
        lhs = ps_eval(ps_compose(p, q), eps)
        rhs = ps_eval(p, ps_eval(q, eps))
        assert_depth_equal(lhs, rhs, 6, "composition-evaluation")
    report("power-series-laws (translation, Conv(P)=Conv(P'), composition)")


def test_acceptance_cut_algebra():
    """The separating family is classified on both sides of its generator,
    and the lacunary series converges everywhere yet is no polynomial."""
    u = X  # separator u: coefficients u^-k = x^-k
    sep = monomial_geometric(mono_inv(u))
    assert cut_member(sep, CutSpec.above(xpow(-1))).kind == "member"  # u above
    assert cut_member(sep, CutSpec.above_eq(u)).kind == "member"
    assert cut_member(sep, CutSpec.above(u)).kind == "non_member"   # u on the edge
    assert cut_member(sep, CutSpec.above(X2)).kind == "non_member"  # u below
    assert cut_member(sep, CutSpec.above(X2)).witnesses

    lac = PowerSeries(lambda k: mono_series(xpow(-(2 ** k))),
                      joint=PSJointCert(GridCertificate.of([ONE]), frozenset([X_INV])))
    for delta in [mono_series(X), ONE_SERIES, mono_series(X_INV),
                  mono_series(X2), from_terms([(3, X), (1, ONE)])]:
        assert conv_contains(lac, delta).convergent
    assert cut_member(lac, CutSpec.empty()).kind == "non_member"
    report("cut-algebra (separator both sides, lacunary example)")


def test_acceptance_faa_di_bruno():
    """Taylor coefficients of composites match the combinatorial formula
    through order 5 on 10 pairs, exactly."""
    spec = LocusSpec(IDENTITY, ONE_SERIES)
    g1 = from_terms([(1, X2), (1, X)])
    g2 = from_terms([(1, X), (1, ONE), (1, X_INV)])
    fs = [mono_series(X_INV), from_terms([(1, X), (2, ONE)]),
          mono_series(xpow(-2)), from_terms([(1, X2), (-1, X)]),
          from_terms([(Fraction(1, 2), X_INV), (1, xpow(-2))])]
    pairs = [(f, g1) for f in fs] + [(f, g2) for f in fs]
    assert len(pairs) >= 10
    for f, g in pairs:
        h = CompositionHandle(g)
        comp = compose(f, h)
        t = taylor_series(comp, spec)
        composed = [compose(derive_n(f, n), h) for n in range(6)]
        inner = [g] + [derive_n(g, j) for j in range(1, 6)]
        for k in range(6):
            want = faa_di_bruno_coeff(composed, inner, k)
            assert_depth_equal(t.coeff(k), want, 5, f"order {k}")
    report("faa-di-bruno (10 pairs, orders 0-5)")


def test_acceptance_spec_condition():
    """The derivative-support dichotomy on a 30-monomial corpus of flat and
    non-flat monomials; any failure blocks release."""
    corpus = [X, X2, xpow(-1), xpow(Fraction(3, 2)), xpow(Fraction(-5, 2)),
              L1, atom(2), mono_inv(L1), mono_mul(X2, L1),
              mono_mul(X_INV, mono_inv(L1)),
              E_X, mono_inv(E_X), make_monomial({}, [(1, X2)]),
              make_monomial({}, [(-1, X2)]), make_monomial({}, [(2, X)]),
              make_monomial({}, [(1, mono_mul(X, L1))]),
              mono_mul(E_X, X), mono_mul(E_X, mono_inv(X2)),
              mono_mul(make_monomial({}, [(1, X2)]), L1),
              make_monomial({}, [(1, X2), (1, X)]),
              make_monomial({}, [(1, X2), (-1, X)]),
              make_monomial({}, [(Fraction(1, 2), X)]),
              mono_mul(xpow(5), mono_pow(L1, 3)),
              mono_pow(L1, Fraction(1, 2)), mono_mul(atom(2), X),
              make_monomial({}, [(1, mono_mul(X, mono_inv(L1)))]),
              mono_mul(make_monomial({}, [(-1, X)]), xpow(7)),
              mono_pow(atom(2), -3), mono_mul(X2, mono_pow(atom(2), 2)),
              make_monomial({}, [(3, mono_mul(X2, L1))])]
    assert len(corpus) >= 30
    flats = nonflats = 0
    for m in corpus:
        result = spec_condition_check(m)
        assert result["ok"], f"derivative-support dichotomy failed at {m.render()}"
        if result["flat"]:
            flats += 1
        else:
            nonflats += 1
    assert flats >= 5 and nonflats >= 5
    report(f"spec-condition (30 monomials, {flats} flat / {nonflats} non-flat)")


def test_acceptance_log_commutation():
    """Deformation commutes with log to 6 terms on 10 certified cases."""
    id1 = LocusSpec(IDENTITY, ONE_SERIES)
    sq = LocusSpec(CompositionHandle(mono_series(X2)),
                   mono_series(X_INV))
    cases = [
        (X_SERIES, id1), (mono_series(X2), id1),
        (from_terms([(1, X), (1, ONE)]), id1),
        (mono_series(xpow(3)), id1), (mono_series(L1), id1), (geom(), id1),
        (mul(mono_series(E_X), from_terms([(1, ONE), (1, X_INV)])), sq),
        (mono_series(X2), sq), (X_SERIES, sq),
        (from_terms([(1, X2), (1, X)]), sq),
    ]
    assert len(cases) >= 10
    for f, spec in cases:
        r = analytic_commutation_check(f, spec, 6)
        assert r.status == "EQUAL", f"{r.status}: {r.detail}"
    report("log-commutation (10 cases, depth 6)")


def test_acceptance_chain_rule_transport():
    """d(T(f)) = d(T(x)) T(f') to 6 terms on 10 certified cases."""
    id1 = LocusSpec(IDENTITY, ONE_SERIES)
    sq = LocusSpec(CompositionHandle(mono_series(X2)),
                   mono_series(X_INV))
    cases = [
        (mono_series(X2), sq), (X_SERIES, sq), (mono_series(X_INV), sq),
        (geom(), sq), (mono_series(L1), sq),
        (from_terms([(1, X2), (-1, X)]), sq),
        (mono_series(X2), id1), (geom(), id1), (mono_series(xpow(-2)), id1),
        (from_terms([(2, X), (1, X_INV)]), id1),
    ]
    assert len(cases) >= 10
    for f, spec in cases:
        r = chain_rule_transport_check(f, spec, 6)
        assert r.status == "EQUAL", f"{r.status}: {r.detail}"
    report("chain-rule-transport (10 cases, depth 6)")


def test_acceptance_noetherian_oracles():
    """Random posets through the bad-sequence scan plus the star/product
    closures; the generator-level locus reduction agrees with brute-force
    support enumeration with zero disagreements."""
    r = rng(4096)
    for _ in range(50):
        n = r.randint(2, 5)
        labels = [f"p{i}" for i in range(n)]
        rel = set()
        for i in range(n):
            for j in range(i + 1, n):
                if r.random() < 0.45:
                    rel.add((labels[i], labels[j]))
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for c, d in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        poset = FinitePoset.of(labels, rel)
        multiset = [r.choice(labels) for _ in range(4)]
        w = find_bad_sequence(poset, multiset, max_len=6)
        has_bad_pair = any(not poset.leq(multiset[a], multiset[b])
                           for a in range(4) for b in range(4) if a != b)
        assert w.found == has_bad_pair

    assert check_star_closure([X_INV], mono_cmp, depth=5).verdict == "ok"
    assert check_product_noetherian([X_INV, xpow(-2)], [X_INV, xpow(-2)],
                                    mono_cmp).verdict == "ok"

    # generator-level locus reduction vs 50-monomial brute force
    from transseries.series import depth_cutoff
    spec = LocusSpec(IDENTITY, ONE_SERIES)
    disagreements = 0
    checked = 0
    for _ in range(20):
        f = rand_grid_series(rng(5000 + checked))
        rep = locus_contains(spec, f)
        if not rep.convergent:
            checked += 1
            continue
        cutoff, _ = depth_cutoff(f, 50)
        if cutoff is None:
            checked += 1
            continue
        for m in f.expand(cutoff):
            if m is ONE:
                continue
            lt = dagger(m).leading_term()
            if lt is not None and not lt.mono.is_small():
                disagreements += 1
        checked += 1
    assert checked == 20 and disagreements == 0
    report("noetherian-oracles (50 posets, 20-series locus reduction)")


def test_acceptance_cli_goldens():
    """All golden invocations byte-identical across two runs."""
    from test_cli import GOLDENS, run_cli
    assert len(GOLDENS) >= 25
    for argv, code, want in GOLDENS:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second == (code, want)
    report(f"cli-goldens ({len(GOLDENS)} invocations)")
