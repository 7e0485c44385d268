"""Budgets: the structural bounds are the `Limits` fields, the fuel budgets
are constants beside the loops they stop, and no public function takes a
per-call override of its own besides the few that callers set."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

import transseries
from transseries import (LIMITS, ONE, ONE_SERIES, BudgetExceededError,
                         CompositionHandle, CutSpec, GridCertificate,
                         KernelError, Limits, LocusSpec, IDENTITY,
                         PartialConstantError, PowerSeries, PSJointCert,
                         TransSeries, X, compose, configure, conv_contains,
                         cut_member, locus_contains, mono_inv, mono_pow,
                         mono_series, monomial_geometric)
from transseries import series, taylor
from transseries.parser import parse_series
from transseries.powerseries import CUT_PREFIX
from transseries.series import _escape, _infinitesimal_bases

from helpers import points_above

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
    monkeypatch.setattr(series, "EXPAND_FUEL", 4)
    assert set(points_above(cert, xpow(-2))) == {X, ONE, X_INV, xpow(-2)}
    assert _escape(cert, {xpow(-2): 0}) is None
    monkeypatch.setattr(series, "EXPAND_FUEL", 3)
    assert _infinitesimal_bases(cert, xpow(-2)) == (xpow(-2),)
    with pytest.raises(BudgetExceededError):
        points_above(cert, xpow(-2))
    with pytest.raises(BudgetExceededError):
        _escape(cert, {xpow(-2): 0})
    monkeypatch.setattr(series, "EXPAND_FUEL", 2)
    with pytest.raises(BudgetExceededError):
        _infinitesimal_bases(cert, xpow(-2))


def test_expand_fuel_is_shared_by_the_bases_of_one_walk(monkeypatch):
    # three lattice points at or above x^-2 from each base: 1, x^-1, x^-2
    # and x^(1/2), x^(-1/2), x^(-3/2)
    cert = GridCertificate.of([ONE, xpow(Fraction(1, 2))], [X_INV])
    monkeypatch.setattr(series, "EXPAND_FUEL", 6)
    assert len(points_above(cert, xpow(-2))) == 6
    assert _escape(cert, {xpow(-2): 2}) is None
    monkeypatch.setattr(series, "EXPAND_FUEL", 5)
    with pytest.raises(BudgetExceededError):
        points_above(cert, xpow(-2))
    with pytest.raises(BudgetExceededError):
        _escape(cert, {xpow(-2): 0})


def test_expand_fuel_bounds_the_term_search(monkeypatch):
    # the search stops at x^-3, the fourth grid point, having walked past three
    geom = parse_series("1/(1 - 1/x)")
    monkeypatch.setattr(series, "EXPAND_FUEL", 3)
    assert len(geom.first_terms(4)) == 4
    monkeypatch.setattr(series, "EXPAND_FUEL", 2)
    with pytest.raises(BudgetExceededError, match="exceeded 2 lattice points"):
        geom.first_terms(4)


def test_cut_prefix_sets_the_scanned_degrees():
    ones = PowerSeries(lambda k: ONE_SERIES, joint=PSJointCert(GridCertificate.of([ONE]),
                                                               frozenset([ONE])))
    delta = mono_series(X_INV)
    verdict = cut_member(ones, CutSpec.above(X_INV))
    assert CUT_PREFIX == 12
    assert verdict.kind == "member" and verdict.checked_prefix == 12
    assert len(verdict.witnesses) == 13       # grid maxima of degrees 0..12
    report = conv_contains(ones, delta)
    assert report.convergent and report.checked_prefix == 12


def test_support_prefix_sets_the_locus_prefix(monkeypatch):
    spec = LocusSpec(IDENTITY, mono_series(X_INV))
    f = mono_series(X)
    assert locus_contains(spec, f).checked_prefix == 20
    monkeypatch.setattr(taylor, "SUPPORT_PREFIX", 5)
    report = locus_contains(spec, f)
    assert report.convergent and report.checked_prefix == 5


def test_support_prefix_is_the_number_of_scanned_support_positions(monkeypatch):
    # exp(x) fails the generator check at delta = 1; its support witness is
    # its first grid position, so a prefix of 0 scans none and finds none
    e_x = parse_series("exp(x)")
    spec = LocusSpec(IDENTITY, ONE_SERIES)
    verdicts = {}
    for prefix in (0, 1):
        monkeypatch.setattr(taylor, "SUPPORT_PREFIX", prefix)
        verdicts[prefix] = locus_contains(spec, e_x)
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
    previous = configure(height_bound=2)
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
    previous = configure(height_bound=2)
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
    # the verdict thresholds and the fuel budgets are constants beside their
    # readers, not limits
    for name in ("cut_prefix", "divergence_window", "faa_order_bound", "support_prefix",
                 "expand_fuel", "term_fuel", "level_fuel"):
        try:
            with pytest.raises(TypeError):
                configure(height_bound=2, **{name: 1})
        finally:
            after = configure(**before)
        assert after == before
    assert parse_series("2").leading_term().coeff == 2


# -- a limit decides refusals only ---------------------------------------------------


def _hole_family(p1: TransSeries) -> PowerSeries:
    """P_k = x^k, except P_1, on the joint certificate ({1, x^-70}, {x})."""
    grid = GridCertificate.of([ONE, xpow(-70)])
    return PowerSeries(lambda k: p1 if k == 1 else mono_series(xpow(k)),
                       joint=PSJointCert(grid, (X,)))


def _masked(e: int) -> TransSeries:
    """x^e written so that a leading-term probe must walk past x^e."""
    return parse_series(f"x^{e} + 1/(1-1/x) - 1/(1-1/x)")


def test_a_refused_probe_is_no_evidence(monkeypatch):
    # the x^k are pairwise bad in the cut above x^-1, but P_1 = x^-70 is not
    # bad against P_0 = 1: when the 64-position probe cannot find x^-70, the
    # scan has a hole and the verdict is inconclusive, as when it can
    cut = CutSpec.above(X_INV)
    assert cut_member(_hole_family(_masked(-70)), cut).kind == "inconclusive"
    assert cut_member(_hole_family(mono_series(xpow(-70))), cut).kind == "inconclusive"
    # x^-5 is in the probe's reach until EXPAND_FUEL cuts the walk short
    for fuel in (series.EXPAND_FUEL, 5, 3):
        p = _hole_family(_masked(-5))
        monkeypatch.setattr(series, "EXPAND_FUEL", fuel)
        assert cut_member(p, cut).kind == "inconclusive", fuel


# the cutcheck families of the cli_session workload: sum (x^-k)^j X^j in the
# cut above x^-m, and at delta = x^-m
GEOMETRIC = [(k, m) for k in (1, 2, 3) for m in (-3, -2, -1, 1, 2, 3)]
# the CERTIFIED and SHARPNESS f's of the taylor_identity workload
LOCUS_FS = ["1/x", "log(x)", "exp(x)", "1/(1-1/x)", "x^2+3*x", "x^-2", "x^(3/2)",
            "1/x-2*x^-3", "x/2+1+1/x", "exp(x^2)", "exp(-x)", "exp(x)+x", "exp(2*x)"]
LOCUS_DELTAS = ["1", "1/x", "x"]


def _cut(p: PowerSeries, s: CutSpec):
    return lambda: cut_member(p, s).kind


def _conv(p: PowerSeries, delta: TransSeries):
    return lambda: conv_contains(p, delta).verdict


def _locus(spec: LocusSpec, f: TransSeries):
    return lambda: locus_contains(spec, f).verdict


def _corpus() -> dict:
    """label -> build: build() makes the inputs under the active limits and
    returns a thunk that decides one verdict on them."""
    out = {}
    for k, m in GEOMETRIC:
        out[f"cut x^-{k} above x^{m}"] = lambda k=k, m=m: _cut(
            monomial_geometric(xpow(-k)), CutSpec.above(xpow(m)))
        out[f"conv x^-{k} at x^{m}"] = lambda k=k, m=m: _conv(
            monomial_geometric(xpow(-k)), mono_series(xpow(m)))
    # sum x^j X^j diverges at delta = 1/x: it is in no cut algebra above x^-1
    out["cut x above x^-1"] = lambda: _cut(monomial_geometric(X), CutSpec.above(X_INV))
    out["conv x at x^-1"] = lambda: _conv(monomial_geometric(X), mono_series(X_INV))
    for e in (-70, -5):
        out[f"cut hole x^{e}"] = lambda e=e: _cut(_hole_family(_masked(e)), CutSpec.above(X_INV))
        out[f"conv hole x^{e}"] = lambda e=e: _conv(_hole_family(_masked(e)), mono_series(X_INV))
    for f in LOCUS_FS:
        for d in LOCUS_DELTAS:
            out[f"locus {f} at {d}"] = lambda f=f, d=d: _locus(
                LocusSpec(IDENTITY, parse_series(d)), parse_series(f))
    return out


CORPUS = _corpus()


# every budget, by the name of the object and attribute that hold it: the
# Limits fields and the constants beside the loops they stop
BUDGETS = {**{f.name: (LIMITS, f.name) for f in dataclasses.fields(Limits)},
           "support_prefix": (taylor, "SUPPORT_PREFIX"),
           "expand_fuel": (series, "EXPAND_FUEL"),
           "term_fuel": (series, "TERM_FUEL"),
           "level_fuel": (series, "LEVEL_FUEL")}


@pytest.mark.parametrize("name", list(BUDGETS))
def test_no_limit_weakens_a_verdict(name):
    # a lowered budget may turn a verdict into `inconclusive` or a refusal,
    # never into another verdict; the inputs are built under the defaults
    # and anew for each setting, so that no memo of one run feeds the next
    default = {label: build()() for label, build in CORPUS.items()}
    wrong = []
    for value in (0, 1, 2, 3, 5):
        for label, build in CORPUS.items():
            decide = build()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(*BUDGETS[name], value)
                try:
                    got = decide()
                except KernelError:
                    continue
            if got not in (default[label], "inconclusive"):
                wrong.append((value, label, default[label], got))
    assert not wrong, wrong
