"""The four workloads: seeded inputs, the timed query of each, and its check.

A workload's `build(seed, scale)` returns a list of `Query`.  `run` is the
timed call into the kernel; `check` runs afterwards, outside the timed
region, and returns None or a message.  `known_fault` recognises the one
wrong output that a named fault in the kernel gives on every run: a query
whose check fails with exactly that output counts as failed without
making the run incorrect; any other wrong output makes it incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import oracle
from oracle import Terms, check_json_terms, check_render, str_num

SCALES = ("full", "tiny")


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: "Callable[[object], bool] | None" = None


# Seeded values: positive, so no closed-form coefficient vanishes and the
# support, and with it the work, is the same for every seed; integers, so
# the cost of the exact arithmetic barely depends on the seed either.
POSITIVE = [F(2), F(3), F(4), F(5)]


# -- render_deep ---------------------------------------------------------------


def build_render_deep(seed: int, scale: str) -> list:
    from transseries import render_series
    from transseries.parser import parse_series

    r = random.Random(seed)
    a, b = r.choice(POSITIVE), r.choice(POSITIVE)
    full = scale == "full"
    ns = (8, 12, 16, 24, 32, 64) if full else (4, 8)
    exprs = [
        # the three ROADMAP baseline expressions, fixed
        ("1/(1 - 1/x)", "1/(1 - 1/x)", ns),
        ("exp(1/x)*log(x)/(1-1/x)", "exp(1/x)*log(x)/(1-1/x)", ns),
        ("exp(x + 1/x)/(1 - 1/log(x))", "exp(x + 1/x)/(1 - 1/log(x))", ns),
        # seeded dense supports: two ratios x^-1, x^-2 reaching each
        # monomial along many lattice paths; and a binomial series
        ("dense2", f"1/(1 - {str_num(a)}/x - {str_num(b)}/x^2)", ns[:-1] if full else ns),
        ("sqrt", f"(1 + {str_num(a)}/x)^(1/2)", ns),
    ]
    queries = []
    for key, text, sizes in exprs:
        for n in sizes:
            def run(text=text, n=n):
                return render_series(parse_series(text), n)

            def check(out, key=key, n=n):
                want = oracle.render_deep_form(key, a, b, n + 8)
                return check_render(out, want, n)

            queries.append(Query(f"render {text} n={n}", run, check))
    return queries


# -- taylor_identity -----------------------------------------------------------

CERTIFIED = [
    ("1/x", "x", "c"), ("log(x)", "x", "c"), ("exp(x)", "x^2", "1/x"),
    ("1/(1-1/x)", "x^2", "1/x"), ("x^2+3*x", "x", "1"), ("x^-2", "x", "c"),
    ("x^(3/2)", "x", "1"), ("1/x-2*x^-3", "x^2", "x"), ("log(x)", "x^2", "x"),
    ("x/2+1+1/x", "x", "1"),
]

# Theorem-sharpness cases: non-flat f whose transformed dagger does not
# shrink, so the locus is certified divergent and the identity is skipped.
SHARPNESS = [
    ("exp(x)", "x", "1"), ("exp(x^2)", "x", "1"), ("exp(-x)", "x", "1"),
    ("exp(x)+x", "x", "1"), ("exp(x)", "x", "x"), ("exp(2*x)", "x", "1"),
]


# render_series walks at most 2n + 6 grid positions.  The Taylor sum of
# log(x) lies on the grid of x^-1 and log(x)^-1, most of whose positions
# are zero, so at n = 8 the walk ends after 6 nonzero terms of the rhs.
# Fewer shown terms than this is a failure.
RHS_SHOWN = {("log(x)", 8): 6}


def _taylor_query(f, g, d, n):
    from transseries import render_series, taylor_identity_check
    from transseries.parser import parse_series

    rep = taylor_identity_check(parse_series(f), parse_series(g), parse_series(d), depth=n)
    verdict = rep.conv_report.verdict if rep.conv_report is not None else None
    if rep.status == "SKIPPED":
        return rep.status, verdict, None, None
    return rep.status, verdict, render_series(rep.lhs, n), render_series(rep.rhs, n)


def build_taylor_identity(seed: int, scale: str) -> list:
    r = random.Random(seed)
    c, a = r.choice(POSITIVE), r.choice(POSITIVE)
    full = scale == "full"
    n = 8 if full else 4
    cs, as_ = str_num(c), str_num(a)
    cases = [(f, g, cs if d == "c" else d, k) for f, g, d in CERTIFIED
             for k in ((6, 8) if full else (n,))]
    # composites whose grid coefficients cancel beyond the first two:
    # 1/(1 - a/x) at x + a is exactly 1 + a/x
    cases += [(f"1/(1-{as_}/x)", "x", as_, k) for k in ((4, 8) if full else (4,))]
    cases += [(f"(1-1/x)/(1-{as_}/x)", "x", as_, 4)]
    queries = []
    for f, g, d, k in cases:
        def check(out, f=f, g=g, d=d, k=k):
            status, verdict, lhs, rhs = out
            if (status, verdict) != ("EQUAL", "certified_convergent"):
                return f"verdict {status}/{verdict}, expected EQUAL/certified_convergent"
            want = oracle.taylor_form(f, g, d, c, a, 3 * k)
            return (check_render(lhs, want, k)
                    or check_render(rhs, want, k, RHS_SHOWN.get((f, k))))

        queries.append(Query(f"taylor {f} at {g} + {d} n={k}",
                             lambda f=f, g=g, d=d, k=k: _taylor_query(f, g, d, k), check))
    for f, g, d in SHARPNESS:
        queries.append(Query(f"taylor {f} at {g} + {d}",
                             lambda f=f, g=g, d=d: _taylor_query(f, g, d, n), _divergent_check))
    return queries


def _divergent_check(out):
    if out[:2] != ("SKIPPED", "certified_divergent"):
        return f"verdict {out[0]}/{out[1]}, expected SKIPPED/certified_divergent"
    return None


# -- ring_laws -----------------------------------------------------------------

# The monomials of the ring-law corpus come from this fixed stream; the run's
# seed draws every coefficient.  The work of a round then depends on the
# seed only through coefficient arithmetic, which keeps run-to-run spread a
# measure of timing noise rather than of corpus shape.
CORPUS_SEED = 1009
COEFFS = [F(n) for n in (-4, -3, -2, -1, 1, 2, 3, 4)]


def _rand_exponent(r: random.Random) -> F:
    return F(r.randint(-4, 4), r.choice([1, 1, 2, 3]))


def _rand_log_mono(r: random.Random, depth: int) -> dict:
    """x^e0 log(x)^e1 log(log(x))^e2 as an exponent map."""
    return {k: e for k in range(depth + 1)
            if r.random() < 0.55 and (e := _rand_exponent(r))}


def _rand_mono(r: random.Random, allow_exp: bool) -> tuple:
    powers = _rand_log_mono(r, 2)
    exp_arg = None
    if allow_exp and r.random() < 0.4:
        while True:
            arg = _rand_log_mono(r, 1)
            # purely large (x^e0 log(x)^e1 > 1) and not the bare atom log(x),
            # which make_monomial would fold into a power of x
            if (arg.get(0, 0), arg.get(1, 0)) > (0, 0) and arg != {1: 1}:
                break
        exp_arg = (F(r.choice([-2, -1, 1, 2])), arg)
    return powers, exp_arg


def _rand_monos(r: random.Random, nterms: int, allow_exp: bool) -> list:
    """1..nterms distinct monomials (as exponent data)."""
    out = []
    for _ in range(r.randint(1, nterms)):
        m = _rand_mono(r, allow_exp)
        if m not in out:
            out.append(m)
    return out


def _rand_shape(r: random.Random, grid: bool) -> tuple:
    """Monomials of a finite series, and for half of the grid series a tail
    exponent k: the series is then divided by 1 - q x^-k, which gives it
    an infinite grid support."""
    if not grid:
        return _rand_monos(r, 3, False), None
    monos = _rand_monos(r, 3, r.random() < 0.5)
    return monos, (r.choice([1, 2]) if r.random() < 0.5 else None)


def _coefficients(r: random.Random, shape: tuple) -> tuple:
    monos, k = shape
    tail = None if k is None else (r.choice([F(1), F(2), F(3)]), k)
    return tuple((r.choice(COEFFS), m) for m in monos), tail


def _make_series(spec: tuple):
    from transseries import ONE, from_terms, invert, make_monomial

    base, tail = spec
    terms = []
    for c, (powers, exp_arg) in base:
        m = make_monomial(powers)
        if exp_arg is not None:
            coeff, arg = exp_arg
            m = m * make_monomial({}, [(coeff, make_monomial(arg))])
        terms.append((c, m))
    s = from_terms(terms)
    if tail is not None:
        q, k = tail
        s = s * invert(from_terms([(1, ONE), (-q, make_monomial({0: -k}))]))
    return s


def _law(kind: str, specs: tuple, depth: int):
    from transseries import ONE_SERIES, derive, invert, mul
    from transseries.series import compare_to_depth

    series = [_make_series(sp) for sp in specs]
    if kind == "Leibniz":
        s, t = series
        lhs, rhs = derive(mul(s, t)), mul(derive(s), t) + mul(s, derive(t))
    elif kind == "distributivity":
        s, t, u = series
        lhs, rhs = mul(s, t + u), mul(s, t) + mul(s, u)
    else:
        (s,) = series
        lhs, rhs = mul(s, invert(s)), ONE_SERIES
    equal, _, bad = compare_to_depth(lhs, rhs, depth)
    return equal, [(str(t.coeff), t.mono.render()) for t in bad[:2]]


def _law_check(out):
    equal, bad = out
    return None if equal else f"law fails: lhs - rhs has terms {bad}"


def build_ring_laws(seed: int, scale: str) -> list:
    shapes = random.Random(CORPUS_SEED)
    r = random.Random(seed)
    pairs, inversions = (150, 60) if scale == "full" else (3, 2)
    cases = []
    for i in range(pairs):
        grid = i % 2 == 0
        s, t = _rand_shape(shapes, grid), _rand_shape(shapes, grid)
        u = _rand_shape(shapes, False)
        cases.append(("Leibniz", (s, t), 8))
        cases.append(("distributivity", (s, t, u), 8))
    for _ in range(inversions):
        # s * 1/s = 1 to depth 10; distinct monomials with nonzero
        # coefficients make s nonzero
        cases.append(("s * 1/s", (_rand_shape(shapes, True),), 10))
    queries = []
    for i, (kind, shape_list, depth) in enumerate(cases):
        specs = tuple(_coefficients(r, sh) for sh in shape_list)
        queries.append(Query(f"{kind} #{i}",
                             lambda kind=kind, specs=specs, depth=depth: _law(kind, specs, depth),
                             _law_check))
    return queries


# -- cli_session ---------------------------------------------------------------

SKIP_TEXT = ("locus: certified_divergent\n"
             "SKIPPED: locus certified_divergent: support monomial exp(x) has a "
             "non-shrinking transformed dagger")

KNOWN_FAULT_ARGV = ["eval", "1/(1-1/x) - 1/(1-1/x^2)", "--terms", "4", "--json"]
# the JSON term list of the known fault: two of the four terms
KNOWN_FAULT_TERMS = [{"coeff": "1", "monomial": "x^-1"}, {"coeff": "1", "monomial": "x^-3"}]


def _cli_call(argv: list):
    from transseries import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _series_check(want: Terms, nterms: int):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}, expected 0: {text!r}"
        if text.startswith("{"):
            return check_json_terms(json.loads(text)["terms"], want, nterms)
        return check_render(text.rstrip("\n"), want, nterms)
    return check


def _verdict_check(code_want: int, line: str, verdict: str):
    def check(out):
        code, text = out
        if code != code_want:
            return f"exit {code}, expected {code_want}: {text!r}"
        if text.startswith("{"):
            got = json.loads(text)["verdict"]
            return None if got == verdict else f"verdict {got}, expected {verdict}"
        return None if line in text.splitlines() else f"no line {line!r} in {text!r}"
    return check


def _cli_cases(r: random.Random) -> list:
    """One pass of (argv, check) over all six commands; README examples
    plus seeded variants with closed-form answers."""
    n = 8  # the CLI default --terms
    a, c = r.choice(POSITIVE), r.choice(POSITIVE)
    p, q = r.randint(2, 5), r.randint(2, 4)
    geo = Terms.from_ps([c * a ** k for k in range(n + 4)])
    cases = [
        (["eval", "1/(1 - 1/x)"], _series_check(Terms.from_ps([1] * (n + 4)), n)),
        (["eval", f"{str_num(c)}/(1 - {str_num(a)}/x)"], _series_check(geo, n)),
        (["eval", f"{str_num(a)}*x^{p} - {str_num(c)}*x + 1/2"],
         _series_check(Terms([(a, p, 0), (-c, 1, 0), (F(1, 2), 0, 0)]), n)),
        (["derive", "exp(x^2)"], _series_check(Terms([(2, 1, 0)], "exp(x^2)"), n)),
        (["derive", f"{str_num(c)}*x^{p}*log(x)"],
         _series_check(Terms([(c * p, p - 1, 1), (c, p - 1, 0)]), n)),
        (["compose", "log(x)", "exp(x)"], _series_check(Terms([(1, 1, 0)]), n)),
        (["compose", f"x^{p}", f"x^(1/{q})"], _series_check(Terms([(1, F(p, q), 0)]), n)),
        (["compose", f"1/(1 - {str_num(a)}/x)", "x^2"],
         _series_check(Terms([(a ** k, -2 * k, 0) for k in range(n + 4)]), n)),
        (["locus", "exp(x)", "--op", "compose:x^2", "--delta", f"{str_num(c)}/x"],
         _verdict_check(0, "locus: certified_convergent", "certified_convergent")),
        (["locus", "exp(x)", "--delta", str_num(c)],
         _verdict_check(2, "locus: certified_divergent", "certified_divergent")),
        (["taylor", "exp(x)", "x", str_num(c)], _skip_check),
    ]
    # the geometric family sum (x^-k)^j X^j lies in the cut algebra above
    # B = x^-m exactly when x^-k * B < 1, i.e. k + m > 0
    k, m = r.randint(1, 3), r.choice([-3, -2, -1, 1, 2, 3])
    verdict = "member" if k + m > 0 else "non_member"
    cases.append((["cutcheck", f"x^-{k}", "--cut", f"above:x^{-m}"],
                  _verdict_check(0 if k + m > 0 else 2, f"verdict: {verdict}", verdict)))
    cases.append((["taylor", "1/x", "x", str_num(c)], _taylor_cli_check(c, n)))
    json_cases = [(argv + ["--json"], chk) for argv, chk in cases]
    errors = [
        (["eval", "exp(1)"], _error_check),
        (["eval", "1/(x"], _error_check),
    ]
    return cases + json_cases + errors


def _skip_check(out):
    code, text = out
    if code != 4:
        return f"exit {code}, expected 4: {text!r}"
    if text.startswith("{"):
        got = json.loads(text)["verdict"]
        return None if got == "SKIPPED" else f"verdict {got}, expected SKIPPED"
    return None if text.rstrip("\n") == SKIP_TEXT else f"output {text!r}"


def _error_check(out):
    code, text = out
    if code != 3 or not text.startswith("error:"):
        return f"exit {code} with {text!r}, expected exit 3 and an error line"
    return None


def _taylor_cli_check(c, n):
    want = Terms.from_ps([(-c) ** k for k in range(n + 4)], x_shift=-1)

    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}, expected 0: {text!r}"
        if text.startswith("{"):
            payload = json.loads(text)
            if payload["verdict"] != "EQUAL":
                return f"verdict {payload['verdict']}"
            return check_json_terms(payload["terms"], want, n)
        lines = text.splitlines()
        if len(lines) != 4 or lines[0] != "locus: certified_convergent" or lines[3] != "EQUAL":
            return f"output {text!r}"
        for line, tag in ((lines[1], "lhs: "), (lines[2], "rhs: ")):
            if not line.startswith(tag):
                return f"line {line!r} lacks {tag!r}"
            err = check_render(line[len(tag):], want, n)
            if err:
                return err
        return None
    return check


def build_cli_session(seed: int, scale: str) -> list:
    r = random.Random(seed)
    passes = 8 if scale == "full" else 1
    queries = []
    for _ in range(passes):
        for argv, chk in _cli_cases(r):
            queries.append(Query(" ".join(argv), lambda argv=argv: _cli_call(argv), chk))
    # `1/(1-1/x) - 1/(1-1/x^2)` = x^-1 + x^-3 + x^-5 + ...; the text output
    # shows four terms, the JSON output only the first two (the JSON term
    # list stops at the fifth grid position, losing the cancelled ones)
    odd = Terms([(1, -(2 * j + 1), 0) for j in range(8)])
    argv = KNOWN_FAULT_ARGV[:-1]
    queries.append(Query(" ".join(argv), lambda: _cli_call(argv), _series_check(odd, 4)))
    queries.append(Query(" ".join(KNOWN_FAULT_ARGV), lambda: _cli_call(KNOWN_FAULT_ARGV),
                         _series_check(odd, 4), known_fault=_is_known_truncation))
    return queries


def _is_known_truncation(out) -> bool:
    code, text = out
    return code == 0 and json.loads(text)["terms"] == KNOWN_FAULT_TERMS


WORKLOADS = {
    "render_deep": build_render_deep,
    "taylor_identity": build_taylor_identity,
    "ring_laws": build_ring_laws,
    "cli_session": build_cli_session,
}
