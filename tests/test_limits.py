"""Budgets: every search bound is read from `transseries.limits`, and no
public function takes a per-call override of its own besides the few that
callers set."""

import inspect
from fractions import Fraction

import pytest

import transseries
from transseries import (LIMITS, ONE, ONE_SERIES, BudgetExceededError,
                         CompositionHandle, CutSpec, GridCertificate,
                         LocusSpec, IDENTITY, PartialConstantError,
                         PowerSeries, PSJointCert, TransSeries, X, compose,
                         configure, conv_contains, cut_member, locus_contains,
                         mono_inv, mono_pow, mono_series)
from transseries.parser import parse_series
from transseries.series import _escape, _infinitesimal_bases, _region

X_INV = mono_inv(X)

# the per-call budgets that callers pass: term fuel 64 in the kernel and 16
# in a test
OVERRIDES = {"first_terms": {"fuel"}, "leading_term": {"fuel"}}
BUDGET_PARAMS = {"fuel", "prefix", "verify_descent", "backend"}


def xpow(k):
    return mono_pow(X, Fraction(k))


def _public_functions():
    for name in transseries.__all__:
        obj = getattr(transseries, name)
        if inspect.isfunction(obj):
            yield name, obj
    for cls in (TransSeries, GridCertificate, CompositionHandle):
        for name, fn in vars(cls).items():
            if inspect.isfunction(fn):
                yield name, fn


def test_budgets_are_not_per_call_parameters():
    seen = set()
    for name, fn in _public_functions():
        params = BUDGET_PARAMS & set(inspect.signature(fn).parameters)
        assert params <= OVERRIDES.get(name, set()), (name, params)
        if params:
            seen.add(name)
    assert seen == set(OVERRIDES)


def test_expand_fuel_bounds_the_region_walks(monkeypatch):
    cert = GridCertificate.of([X], [X_INV])
    # x, 1, x^-1 and x^-2 lie at or above x^-2; the first three strictly
    monkeypatch.setattr(LIMITS, "expand_fuel", 4)
    assert set(_region(cert, xpow(-2))) == {X, ONE, X_INV, xpow(-2)}
    assert _escape(cert, {xpow(-2): 0}) is None
    monkeypatch.setattr(LIMITS, "expand_fuel", 3)
    assert _infinitesimal_bases(cert, xpow(-2)) == {xpow(-2)}
    with pytest.raises(BudgetExceededError):
        _region(cert, xpow(-2))
    with pytest.raises(BudgetExceededError):
        _escape(cert, {xpow(-2): 0})
    monkeypatch.setattr(LIMITS, "expand_fuel", 2)
    with pytest.raises(BudgetExceededError):
        _infinitesimal_bases(cert, xpow(-2))


def test_expand_fuel_is_shared_by_the_bases_of_one_walk(monkeypatch):
    # three lattice points at or above x^-2 from each base: 1, x^-1, x^-2
    # and x^(1/2), x^(-1/2), x^(-3/2)
    cert = GridCertificate.of([ONE, xpow(Fraction(1, 2))], [X_INV])
    monkeypatch.setattr(LIMITS, "expand_fuel", 6)
    assert len(_region(cert, xpow(-2))) == 6
    assert _escape(cert, {xpow(-2): 2}) is None
    monkeypatch.setattr(LIMITS, "expand_fuel", 5)
    with pytest.raises(BudgetExceededError):
        _region(cert, xpow(-2))
    with pytest.raises(BudgetExceededError):
        _escape(cert, {xpow(-2): 0})


def test_expand_fuel_bounds_the_term_search(monkeypatch):
    # the search stops at x^-3, the fourth grid point, having walked past three
    geom = parse_series("1/(1 - 1/x)")
    monkeypatch.setattr(LIMITS, "expand_fuel", 3)
    assert len(geom.first_terms(4)) == 4
    monkeypatch.setattr(LIMITS, "expand_fuel", 2)
    with pytest.raises(BudgetExceededError, match="exceeded 2 lattice points"):
        geom.first_terms(4)


def test_cut_prefix_sets_the_scanned_degrees(monkeypatch):
    ones = PowerSeries(lambda k: ONE_SERIES, joint=PSJointCert(GridCertificate.of([ONE]),
                                                               frozenset([ONE])))
    delta = mono_series(X_INV)
    assert cut_member(ones, CutSpec.above(X_INV)).checked_prefix == 12
    monkeypatch.setattr(LIMITS, "cut_prefix", 7)
    verdict = cut_member(ones, CutSpec.above(X_INV))
    assert verdict.is_member and verdict.checked_prefix == 7
    assert len(verdict.witnesses) == 8        # grid maxima of degrees 0..7
    report = conv_contains(ones, delta)
    assert report.convergent and report.checked_prefix == 7


def test_support_prefix_sets_the_locus_prefix(monkeypatch):
    spec = LocusSpec(IDENTITY, mono_series(X_INV))
    f = mono_series(X)
    assert locus_contains(spec, f).checked_prefix == 20
    monkeypatch.setattr(LIMITS, "support_prefix", 5)
    report = locus_contains(spec, f)
    assert report.convergent and report.checked_prefix == 5


def test_support_prefix_is_the_number_of_scanned_support_positions():
    # exp(x) fails the generator check at delta = 1; its support witness is
    # its first grid position, so a prefix of 0 scans none and finds none
    e_x = parse_series("exp(x)")
    spec = LocusSpec(IDENTITY, ONE_SERIES)
    verdicts = {}
    for prefix in (0, 1):
        previous = configure(support_prefix=prefix)
        try:
            verdicts[prefix] = locus_contains(spec, e_x)
        finally:
            configure(**previous)
    assert verdicts[0].verdict == "inconclusive"
    assert verdicts[0].checked_prefix == 0
    assert "no support witness" in verdicts[0].detail
    assert verdicts[1].verdict == "certified_divergent"
    assert verdicts[1].checked_prefix == 1
    assert verdicts[1].witnesses[0][0] is e_x.leading_term().mono


def test_backend_setting_is_restored():
    # constants are exact rationals under every setting of the limits: e is
    # refused before, during and after a configure/restore cycle
    with pytest.raises(PartialConstantError):
        parse_series("exp(1)")
    previous = configure(term_fuel=64)
    try:
        with pytest.raises(PartialConstantError):
            parse_series("exp(1)")
    finally:
        configure(**previous)
    assert vars(LIMITS) == previous
    with pytest.raises(PartialConstantError):
        parse_series("exp(1)")


def test_composition_handle_keeps_its_field():
    # a handle built under changed limits and used after they are restored
    # still composes over the exact rationals
    previous = configure(term_fuel=64)
    try:
        h = CompositionHandle(parse_series("x+1"))
    finally:
        configure(**previous)
    terms = compose(parse_series("x^2"), h).first_terms(3)
    assert [t.coeff for t in terms] == [1, 2, 1]
    assert all(isinstance(t.coeff, (int, Fraction)) for t in terms)
    # the image of exp(x) under x -> x+1 would be e*exp(x)
    f = parse_series("exp(x)")
    with pytest.raises(PartialConstantError):
        compose(f, h).first_terms(1)


def test_unknown_limit_is_refused_at_once():
    # a call that names an unknown limit sets none of the others
    before = dict(vars(LIMITS))
    with pytest.raises(TypeError):
        configure(height_bound=2, backend="exact")
    assert vars(LIMITS) == before
    assert parse_series("2").leading_term().coeff == 2
