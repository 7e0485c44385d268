"""The log-exp monomial group: canonical forms, orders, pre-logarithm."""

import gc
import io
import weakref
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cmp_to_key

import pytest

from transseries import (ONE, ResourceError, X, atom, configure,
                         make_monomial, mono_cmp, mono_inv, mono_mul, mono_pow,
                         pre_log)
from transseries.monomial import dagger_terms, pre_log_terms, sort_monomials
from transseries.series import from_terms

from helpers import equal_below, rng, rand_monomial

L1 = atom(1)
X_INV = mono_inv(X)
E_X = make_monomial({}, [(1, X)])
X2 = make_monomial({0: 2})


def test_mul_inverse_is_identity():
    assert mono_mul(X, X_INV) is ONE


def test_mul_keeps_exp_and_log_parts():
    m = mono_mul(X2, E_X)
    assert m.log_powers == ((0, Fraction(2)),)
    assert m.exp_terms == ((Fraction(1), X),)


def test_exp_args_add():
    a = make_monomial({}, [(1, X2), (1, X)])
    b = make_monomial({}, [(-1, X)])
    assert mono_mul(a, b) is make_monomial({}, [(1, X2)])


def test_canonical_absorbs_log_atoms():
    # exp(2 log x) = x^2 and exp(3 log log x) = log(x)^3
    assert make_monomial({}, [(2, L1)]) is X2
    assert make_monomial({}, [(3, atom(2))]) is make_monomial({1: 3})


def test_canonicalization_idempotent():
    r = rng(5)
    for _ in range(40):
        m = rand_monomial(r)
        again = make_monomial(dict(m.log_powers), list(m.exp_terms))
        assert again is m


def test_pre_log_examples():
    assert equal_below(pre_log(X), from_terms([(1, L1)]), mono_inv(L1))
    assert equal_below(pre_log(make_monomial({}, [(1, X2)])),
                       from_terms([(1, X2)]), X_INV)
    got = pre_log(mono_mul(make_monomial({0: 3}), E_X))
    want = from_terms([(3, L1), (1, X)])
    assert equal_below(got, want, mono_pow(X_INV, 3))


def test_pre_log_is_group_morphism():
    r = rng(11)
    for _ in range(30):
        a, b = rand_monomial(r), rand_monomial(r)
        merged_l: dict = {}
        for c, m in pre_log_terms(mono_mul(a, b)):
            merged_l[m] = merged_l.get(m, 0) + c
        merged_r: dict = {}
        for c, m in pre_log_terms(a) + pre_log_terms(b):
            merged_r[m] = merged_r.get(m, 0) + c
        assert {m: c for m, c in merged_l.items() if c} == \
               {m: c for m, c in merged_r.items() if c}


def test_cmp_examples():
    assert mono_cmp(E_X, make_monomial({0: 100})) > 0
    assert mono_cmp(L1, X) < 0
    assert mono_cmp(mono_mul(X_INV, E_X), E_X) < 0


def test_cmp_agrees_with_pre_log_embedding():
    # m < n iff ell(m) < ell(n): check via the dominant sign of the
    # pre-log difference, computed through the series engine
    r = rng(23)
    for _ in range(30):
        a, b = rand_monomial(r), rand_monomial(r)
        diff = pre_log(a) - pre_log(b)
        lt = diff.leading_term(fuel=16)
        c = mono_cmp(a, b)
        if lt is None:
            assert c == 0
        else:
            assert (lt.coeff > 0) == (c > 0)


def test_order_is_total_and_transitive():
    r = rng(31)
    corpus = [rand_monomial(r) for _ in range(12)]
    for a in corpus:
        for b in corpus:
            ab = mono_cmp(a, b)
            assert ab == -mono_cmp(b, a)
            for c in corpus:
                if ab > 0 and mono_cmp(b, c) > 0:
                    assert mono_cmp(a, c) > 0


def test_mul_commutative_associative():
    r = rng(37)
    for _ in range(25):
        a, b, c = (rand_monomial(r) for _ in range(3))
        assert mono_mul(a, b) is mono_mul(b, a)
        assert mono_mul(a, mono_mul(b, c)) is mono_mul(mono_mul(a, b), c)
        assert mono_mul(a, ONE) is a


# exp-argument monomials, all > 1, of heights 0 and 1
EXP_ARGS = [X, X2, mono_pow(X, Fraction(1, 2)), mono_mul(X, mono_inv(L1)),
            mono_pow(L1, 2), E_X, mono_mul(make_monomial({}, [(1, X2)]), X_INV),
            make_monomial({1: 1}, [(Fraction(1, 2), X)])]


def _merged(a, b):
    """a * b through make_monomial, from the raw data of both."""
    powers = dict(a.log_powers)
    for k, r in b.log_powers:
        powers[k] = powers.get(k, 0) + r
    return make_monomial(powers, a.exp_terms + b.exp_terms)


def _inverted(a):
    """a^-1 through make_monomial, from the raw data of a."""
    return make_monomial({k: -r for k, r in a.log_powers},
                         [(-c, u) for c, u in a.exp_terms])


def test_group_operations_match_make_monomial():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rats = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)])
    monos = st.builds(
        make_monomial,
        st.dictionaries(st.integers(0, 2), rats, max_size=3),
        st.lists(st.tuples(st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2]),
                           st.sampled_from(EXP_ARGS)), max_size=3))

    @st.composite
    def triples(draw):
        a, b, c = draw(monos), draw(monos), draw(monos)
        cancels = draw(st.booleans())
        if cancels:
            # b cancels every log power and exp term of a, so a * b = c
            b = _merged(c, _inverted(a))
        return a, b, c, cancels

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hyp.given(triples(), rats)
    def check(abc, r):
        a, b, c, cancels = abc
        assert max(m.height for m in (a, b, c)) <= 2
        ab = mono_mul(a, b)
        assert ab is _merged(a, b)
        assert ab is c or not cancels
        assert mono_inv(a) is _inverted(a)
        assert mono_pow(a, r) is make_monomial(
            {k: p * r for k, p in a.log_powers}, [(e * r, u) for e, u in a.exp_terms])
        assert ab is mono_mul(b, a)
        assert mono_mul(ab, c) is mono_mul(a, mono_mul(b, c))
        assert mono_mul(a, mono_inv(a)) is ONE
        # both results are interned now; a lowered bound still refuses them
        for m, again in ((ab, lambda: mono_mul(a, b)), (mono_inv(a), lambda: mono_inv(a))):
            if m.height:
                previous = configure(height_bound=m.height - 1)
                try:
                    with pytest.raises(ResourceError):
                        again()
                finally:
                    configure(**previous)

    check()


def test_height_depth_examples():
    assert (X.height, X.log_depth) == (0, 0)
    exp_x2 = make_monomial({}, [(1, X2)])
    assert (exp_x2.height, exp_x2.log_depth) == (1, 0)
    exp_xl1 = make_monomial({}, [(1, mono_mul(X, L1))])
    assert (exp_xl1.height, exp_xl1.log_depth) == (1, 1)


def test_height_bound_enforced():
    deep = X
    with pytest.raises(ResourceError):
        for _ in range(6):
            deep = make_monomial({}, [(1, deep)])


def test_rational_powers():
    m = mono_pow(X, Fraction(3, 2))
    assert m.log_powers == ((0, Fraction(3, 2)),)
    assert mono_mul(m, m) is make_monomial({0: 3})
    e = mono_pow(E_X, Fraction(1, 2))
    assert e.exp_terms == ((Fraction(1, 2), X),)


def test_truncation_closure_of_pre_log_image():
    # every initial truncation of a pre-log is again a pre-log of a
    # constructible monomial
    r = rng(43)
    corpus = [rand_monomial(r) for _ in range(25)]
    checked = 0
    for m in corpus:
        if m is ONE:
            continue
        terms = pre_log_terms(m)
        merged: dict = {}
        for c, u in terms:
            merged[u] = merged.get(u, 0) + c
        ordered = sort_monomials(u for u, c in merged.items() if c)
        for cut in range(1, len(ordered) + 1):
            trunc = [(merged[u], u) for u in ordered[:cut]]
            rebuilt = make_monomial({}, trunc)
            re_merged: dict = {}
            for c, u in pre_log_terms(rebuilt):
                re_merged[u] = re_merged.get(u, 0) + c
            assert re_merged == {u: merged[u] for u in ordered[:cut]}
            checked += 1
    assert checked >= 25


def test_dagger_terms_are_finite_and_exact():
    # dagger(l_1) = (x log x)^{-1}
    got = dict((m, c) for c, m in dagger_terms(L1))
    assert got == {make_monomial({0: -1, 1: -1}): Fraction(1)}
    # dagger is additive over products
    r = rng(47)
    for _ in range(20):
        a, b = rand_monomial(r), rand_monomial(r)
        lhs: dict = {}
        for c, m in dagger_terms(mono_mul(a, b)):
            lhs[m] = lhs.get(m, 0) + c
        rhs: dict = {}
        for c, m in dagger_terms(a) + dagger_terms(b):
            rhs[m] = rhs.get(m, 0) + c
        assert {m: c for m, c in lhs.items() if c} == \
               {m: c for m, c in rhs.items() if c}


def test_render_canonical_forms():
    assert X.render() == "x"
    assert ONE.render() == "1"
    assert mono_pow(X, Fraction(3, 2)).render() == "x^(3/2)"
    m = mono_mul(mono_pow(X, Fraction(3, 2)),
                 mono_mul(mono_inv(L1), make_monomial({}, [(1, X2)])))
    assert m.render() == "x^(3/2)*log(x)^-1*exp(x^2)"


def _cmp_by_diff(a, b):
    """The group order as the sign of the dominant term of the pre-log
    difference, summed in a dict: a reference that shares no code with
    mono_cmp."""
    if a is b:
        return 0
    if not a.exp_terms and not b.exp_terms:
        da, db = dict(a.log_powers), dict(b.log_powers)
        for k in sorted(set(da) | set(db)):
            ra, rb = da.get(k, 0), db.get(k, 0)
            if ra != rb:
                return 1 if ra > rb else -1
        return 0
    diff: dict = {}
    for sign, m in ((1, a), (-1, b)):
        for c, u in [(r, atom(k + 1)) for k, r in m.log_powers] + list(m.exp_terms):
            diff[u] = diff.get(u, 0) + sign * c
    diff = {u: c for u, c in diff.items() if c}
    if not diff:
        return 0
    return 1 if diff[max(diff, key=cmp_to_key(_cmp_by_diff))] > 0 else -1


def test_cmp_matches_pre_log_difference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    halves = st.sampled_from([Fraction(n, 2) for n in range(-4, 5)])
    height0 = st.builds(make_monomial, st.dictionaries(st.integers(0, 3), halves, max_size=3))
    # exp(x^2) and exp(x^2 - x) share the leading pre-log term x^2
    args = EXP_ARGS + [atom(3), mono_mul(X, atom(3)), make_monomial({}, [(1, X2), (-1, X)])]
    exp_part = st.lists(st.tuples(halves.filter(bool), st.sampled_from(args)), max_size=3)
    monos = st.builds(lambda h, et: mono_mul(h, make_monomial({}, et)), height0, exp_part)

    @st.composite
    def triples(draw):
        a = draw(monos)
        # b and c share all of a's pre-log but for a few terms
        b = mono_mul(a, draw(monos)) if draw(st.booleans()) else draw(monos)
        c = mono_mul(b, draw(monos)) if draw(st.booleans()) else draw(monos)
        return a, b, c

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hyp.given(triples())
    def check(abc):
        a, b, c = abc
        assert max(m.height for m in abc) <= 2
        # the reference builds pre-log atoms through atom(), which checks
        # the depth bound; the order itself needs no bound
        previous = configure(log_depth_bound=8)
        try:
            want = {(u, v): _cmp_by_diff(u, v) for u, v in ((a, b), (b, c), (a, c))}
        finally:
            configure(**previous)
        for u, v in ((a, b), (b, c), (a, c)):
            assert mono_cmp(u, v) == want[u, v]
            assert mono_cmp(v, u) == -mono_cmp(u, v)
            assert (mono_cmp(u, v) == 0) == (u is v)
        ab, bc, ac = mono_cmp(a, b), mono_cmp(b, c), mono_cmp(a, c)
        if ab >= 0 and bc >= 0:
            assert ac >= 0
        if ab <= 0 and bc <= 0:
            assert ac <= 0

    check()


def test_comparison_atoms_are_not_bound_checked():
    # exp(x) against log^4(x) reads log^5(x), which is past the default bound
    assert mono_cmp(E_X, atom(4)) > 0
    # the pre-log of x*exp(x) is now cached; pre_log still checks each monomial
    x_e_x = mono_mul(X, E_X)
    assert mono_cmp(L1, E_X) < 0 and mono_cmp(x_e_x, E_X) > 0
    previous = configure(log_depth_bound=1)
    try:
        for m in (L1, mono_mul(L1, E_X)):
            with pytest.raises(ResourceError):
                pre_log(m)
    finally:
        configure(**previous)
    assert equal_below(pre_log(x_e_x), from_terms([(1, X), (1, L1)]), ONE)


def _typed_positions(log_powers, exp_terms, typ) -> set:
    """The positions, ("log", atom index) or ("exp", argument monomial),
    whose exponent or exp coefficient is of type `typ` (or not, for
    typ=None: the others)."""
    items = [(("log", k), r) for k, r in log_powers] + [(("exp", u), c) for c, u in exp_terms]
    return {pos for pos, r in items if (type(r) is int) == (typ is int)}


def _operands(frame) -> list:
    """The (log powers, exp terms) that the construction running in
    `frame` combines, or None for another caller of `_intern`."""
    name, local = frame.f_code.co_name, frame.f_locals
    if name in ("mono_mul", "mono_inv", "mono_pow"):
        return [(m.log_powers, m.exp_terms) for m in
                ((local["a"], local["b"]) if name == "mono_mul" else (local["a"],))]
    if name == "make_monomial" and isinstance(local["exp_terms"], (list, tuple)):
        return [(local["log_powers"].items(), local["exp_terms"])]
    return None


def test_integral_exponents_are_ints(monkeypatch):
    # every monomial these computations intern is checked, also those no
    # series keeps alive, so the results of `_intern` are recorded, with the
    # constructions that made an integral exponent out of non-integral ones
    import sys
    from transseries import compose, derive, monomial, render_series
    from transseries.parser import parse_series
    interned, covered = {}, set()
    intern = monomial._intern

    def recording(*args, **kwargs):
        m = intern(*args, **kwargs)
        interned[id(m)] = m
        frame = sys._getframe(1)
        operands = _operands(frame)
        if operands is not None:
            ints = _typed_positions(m.log_powers, m.exp_terms, int)
            others = set().union(*(_typed_positions(*o, None) for o in operands))
            # negation keeps each exponent's type: an inverse counts when
            # its operand holds both kinds
            if ints & others or (frame.f_code.co_name == "mono_inv" and ints and others):
                covered.add(frame.f_code.co_name)
        return m

    monkeypatch.setattr(monomial, "_intern", recording)
    for text in ["x^(3/2)*x^(1/2)*log(x)^-1", "exp(x/2 + x/2 + log(x)^2)*x^(1/3)",
                 "exp(3/2*x^(1/2))^2 + 1/(1 - 1/x)", "log(x^2 + x^(1/2))",
                 "(exp(3/2*x^(1/2)) + x^(1/2))^3"]:
        s = parse_series(text)
        render_series(s, 6)
        render_series(derive(s), 6)
        render_series(compose(s, parse_series("x^(3/2) + x")), 4)
    assert mono_pow(mono_pow(X, Fraction(2, 3)), 3).log_powers == ((0, 2),)
    assert covered == {"mono_mul", "mono_inv", "mono_pow", "make_monomial"}, covered
    for m in interned.values():
        for r in [r for _, r in m.log_powers] + [c for c, _ in m.exp_terms]:
            assert type(r) is (int if r.denominator == 1 else Fraction), m.render()


def _build(data):
    """The monomial with log powers `lp` and exp terms c*exp-arg, each exp
    arg x^(n/13)*log(x)^k given by (n, k); no other test builds these."""
    lp, terms = data
    return make_monomial(dict(lp), [(c, make_monomial({0: Fraction(n, 13), 1: k}))
                                    for c, (n, k) in terms])


def test_identity_survives_dead_monomials():
    # monomials are interned weakly: once every reference is gone they die,
    # and rebuilding one gives a single live monomial per key, with the
    # identity comparisons of the order and of the exp-term merge intact
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from transseries.monomial import _INTERN, _merge_terms
    rats = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2)])
    args = st.tuples(st.integers(1, 12), st.integers(-1, 1))
    data = st.tuples(st.lists(st.tuples(st.integers(0, 1), rats), max_size=2),
                     st.lists(st.tuples(rats.filter(bool), args), min_size=1, max_size=3))
    died = []

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hyp.given(st.lists(data, min_size=1, max_size=4))
    def check(datas):
        monos = [_build(d) for d in datas]
        texts = [m.render() for m in monos]
        signs = [[mono_cmp(a, b) for b in monos] for a in monos]
        refs = [weakref.ref(m) for m in monos]
        del monos
        mono_cmp.cache_clear()
        gc.collect()
        died.append(sum(r() is None for r in refs))

        again = [_build(d) for d in datas]
        for d, m, text in zip(datas, again, texts):
            assert _build(d) is m and m.render() == text
            assert _INTERN[m.log_powers, m.exp_terms]() is m
            for c, u in m.exp_terms:
                # exp(2u)*exp(-2u): the merge meets u twice and cancels it
                assert _merge_terms(((2 * c, u),), ((-2 * c, u),)) == ()
                assert mono_mul(make_monomial({}, [(2 * c, u)]),
                                make_monomial({}, [(-2 * c, u)])) is ONE
        assert [[mono_cmp(a, b) for b in again] for a in again] == signs
        mono_cmp.cache_clear()
        assert [[mono_cmp(a, b) for b in again] for a in again] == signs
        for key, ref in list(_INTERN.items()):
            m = ref()
            if m is not None:
                assert (m.log_powers, m.exp_terms) == key and _INTERN[key] is ref

    check()
    # dropping the last reference frees a monomial
    assert sum(died) > 0


def test_tables_stay_flat_over_many_calls():
    # distinct queries in one process: the intern table holds the live
    # monomials and the comparison memo its last pairs, so neither grows
    from transseries import monomial
    from transseries.cli import main
    sizes = {}
    for i in range(1, 301):
        with redirect_stdout(io.StringIO()):
            assert main(["eval", f"exp(x^({i}/7))/(1-{i}/x)"]) == 0
        if i % 100 == 0:
            gc.collect()
            sizes[i] = len(monomial._INTERN), mono_cmp.cache_info().currsize
    assert sizes[100] == sizes[200] == sizes[300], sizes
    assert sizes[300][1] == monomial.CMP_MEMO_SIZE
