"""Brute-force well-partial-order oracles."""

import itertools

import pytest

from transseries import (PreconditionError, X, atom, make_monomial, mono_cmp,
                         mono_inv, mono_mul)

from helpers import rng
from noetherian_oracle import (FinitePoset, InvalidInputError,
                               check_product_noetherian, check_star_closure,
                               find_bad_sequence)

X_INV = mono_inv(X)


def test_antichain_finds_bad_pair():
    p = FinitePoset.antichain(["a", "b"])
    w = find_bad_sequence(p, ["a", "b", "a"], max_len=2)
    assert w.found and list(w.indices) == [0, 1]


def test_chain_descending_pair_is_bad():
    p = FinitePoset.chain(["a", "b", "c"])
    w = find_bad_sequence(p, ["c", "a"], max_len=3)
    assert w.found and list(w.indices) == [0, 1]


def test_singleton_has_no_bad_sequence():
    p = FinitePoset.of(["a"], set())
    w = find_bad_sequence(p, ["a", "a"], max_len=2)
    assert not w.found


def test_unknown_element_rejected():
    p = FinitePoset.chain(["a", "b"])
    with pytest.raises(InvalidInputError):
        find_bad_sequence(p, ["z"], max_len=2)


def test_relation_validation():
    with pytest.raises(InvalidInputError):
        FinitePoset.of(["a"], {("a", "a")})
    with pytest.raises(InvalidInputError):
        FinitePoset.of(["a", "b", "c"], {("a", "b"), ("b", "c")})  # not transitive


def test_linear_order_bad_sequences_are_descending():
    # in a chain, a bad sequence must be strictly decreasing, so its length
    # is capped by the number of distinct values (Higman (a)<->(b) at desk
    # scale); all-equal multisets never produce one
    chain = FinitePoset.chain(["a", "b", "c", "d"])
    r = rng(101)
    for _ in range(20):
        multiset = [r.choice(chain.elements) for _ in range(4)]
        w = find_bad_sequence(chain, multiset, max_len=6)
        if w.found:
            vals = [multiset[i] for i in w.indices]
            assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
            assert len(vals) <= len(set(multiset))
    assert not find_bad_sequence(chain, ["b", "b", "b"], max_len=6).found


def test_product_fibers_trivial():
    s = [X_INV]
    t = [X_INV, mono_mul(X_INV, X_INV)]
    report = check_product_noetherian(s, t, mono_cmp)
    assert report.verdict == "ok"
    for fiber in report.fibers.values():
        assert len(fiber) == 1
    assert len(report.fibers) == 2  # x^-2, x^-3


def test_product_fiber_of_x3_has_two_orderings():
    s = t = [X_INV, mono_pow_inv2()]
    report = check_product_noetherian(s, t, mono_cmp)
    x3 = make_monomial({0: -3})
    assert report.fiber_size(x3) == 2


def mono_pow_inv2():
    return make_monomial({0: -2})


def test_product_identity():
    from transseries import ONE
    report = check_product_noetherian([ONE], [ONE], mono_cmp)
    assert report.verdict == "ok"
    assert report.fiber_size(ONE) == 1


def test_product_fibers_match_brute_force():
    r = rng(7)
    from helpers import rand_log_monomial
    for _ in range(10):
        s = list({rand_log_monomial(r, 1) for _ in range(3)})
        t = list({rand_log_monomial(r, 1) for _ in range(3)})
        report = check_product_noetherian(s, t, mono_cmp)
        assert report.verdict == "ok"  # linear order: no antichains
        counted = {}
        for u in s:
            for v in t:
                counted[mono_mul(u, v)] = counted.get(mono_mul(u, v), 0) + 1
        assert {m: len(f) for m, f in report.fibers.items()} == counted


def test_star_closure_powers_of_xinv():
    report = check_star_closure([X_INV], mono_cmp, depth=4)
    assert report.verdict == "ok"
    assert len(report.enumerated) == 5  # 1, x^-1, ..., x^-4
    for m, depths in report.level_counts.items():
        assert len(depths) == 1


def test_star_closure_mixed_log():
    z = mono_mul(X_INV, atom(1))  # x^-1 log x: still infinitesimal
    report = check_star_closure([X_INV, z], mono_cmp, depth=3)
    assert report.verdict == "ok"


def test_star_closure_exp_fiber():
    e_neg = make_monomial({}, [(-1, X)])  # e^-x
    report = check_star_closure([X_INV, e_neg], mono_cmp, depth=3)
    assert report.verdict == "ok"
    target = mono_mul(X_INV, e_neg)
    assert report.level_counts[target] == (2,)
    # the fiber: two orderings of the two generators give the same product
    paths = [p for p in itertools.permutations([X_INV, e_neg])
             if mono_mul(*p) is target]
    assert len(paths) == 2


def test_star_closure_needs_infinitesimals():
    with pytest.raises(PreconditionError):
        check_star_closure([X], mono_cmp, depth=2)


def test_random_posets_scan():
    # acceptance support: random finite posets, desk-scale bounds
    r = rng(2024)
    for trial in range(50):
        n = r.randint(2, 5)
        labels = [f"e{i}" for i in range(n)]
        rel = set()
        # random DAG closed transitively
        for i in range(n):
            for j in range(i + 1, n):
                if r.random() < 0.4:
                    rel.add((labels[i], labels[j]))
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for c, d in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        p = FinitePoset.of(labels, rel)
        multiset = [r.choice(labels) for _ in range(4)]
        w = find_bad_sequence(p, multiset, max_len=6)
        # independent oracle: a length-2 bad sequence exists iff some
        # ordered position pair is un-related
        has_bad_pair = any(not p.leq(multiset[a], multiset[b])
                           for a in range(4) for b in range(4) if a != b)
        assert w.found == has_bad_pair
