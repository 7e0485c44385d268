"""Expression front end and command-line surface: parse trees, error
positions, round-trips, golden invocations, exit codes."""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from transseries import ParseError, PartialConstantError, X, make_monomial, parse
from transseries.cli import build_parser, main
from transseries.limits import LIMITS
from transseries.parser import Binary, Num, Power, Unary, Var, parse_series
from transseries.series import compare_to_depth, render_series
from transseries.monomial import _INTERN, mono_pow

from helpers import equal_below, rand_finite_series, rng


# -- parsing ---------------------------------------------------------------------


def test_parse_division_tree():
    tree = parse("1/(1 - 1/x)")
    assert isinstance(tree, Binary) and tree.op == "/"
    assert isinstance(tree.left, Num) and tree.left.value == 1
    inner = tree.right
    assert isinstance(inner, Binary) and inner.op == "-"
    assert isinstance(inner.right, Binary) and inner.right.op == "/"
    assert isinstance(inner.right.right, Var)


def test_parse_function_applications():
    tree = parse("exp(x^2) * log(x)")
    assert isinstance(tree, Binary) and tree.op == "*"
    assert isinstance(tree.left, Unary) and tree.left.op == "exp"
    assert isinstance(tree.left.arg, Power)
    assert tree.left.arg.exponent == 2
    assert isinstance(tree.right, Unary) and tree.right.op == "log"


def test_parse_double_caret_position():
    with pytest.raises(ParseError) as exc:
        parse("x^^2")
    assert exc.value.position == 2


def test_parse_non_rational_exponent():
    with pytest.raises(ParseError):
        parse("x^y")
    with pytest.raises(ParseError):
        parse("x^(1/0)")


def test_parse_rational_exponents():
    s = parse_series("x^(3/2)")
    assert s.expand(mono_pow(X, Fraction(1))) == \
        {mono_pow(X, Fraction(3, 2)): Fraction(1)}
    s2 = parse_series("x^-1")
    assert s2.leading_term().mono is mono_pow(X, Fraction(-1))


def test_parse_decimal_literal_exact():
    s = parse_series("2.5*x")
    assert s.leading_term().coeff == Fraction(5, 2)


def test_parse_unknown_name_position():
    with pytest.raises(ParseError) as exc:
        parse("1 + sinh(x)")
    assert exc.value.position == 4


def test_elaborate_reports_spans():
    with pytest.raises(PartialConstantError) as exc:
        parse_series("x + exp(1)")
    assert "offset 4" in str(exc.value)


def test_parse_render_roundtrip_corpus():
    r = rng(2)
    done = 0
    while done < 100:
        s = rand_finite_series(r, 3, allow_exp=True)
        if s.leading_term() is None:
            continue
        text = render_series(s, 12)
        assert "O(" not in text
        back = parse_series(text)
        # a finite series' bases are its support, decreasing
        floor = s.cert.bases[-1]
        assert equal_below(back, s, floor), f"round trip failed for {text}"
        done += 1


# -- CLI -------------------------------------------------------------------------


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


GOLDENS = [
    (["eval", "1/(1 - 1/x)"], 0,
     "1 + x^-1 + x^-2 + x^-3 + x^-4 + x^-5 + x^-6 + x^-7 + O(x^-8)\n"),
    (["eval", "exp(x^2) * log(x)", "--terms", "2"], 0,
     "log(x)*exp(x^2)\n"),
    (["eval", "log(exp(x))"], 0, "x\n"),
    (["eval", "(1 + 1/x)*(1 - 1/x)"], 0, "1 - x^-2\n"),
    (["eval", "exp(1/x)", "--terms", "4"], 0,
     "1 + x^-1 + 1/2*x^-2 + 1/6*x^-3 + O(x^-4)\n"),
    (["eval", "log(x^2 + x)", "--terms", "4"], 0,
     "2*log(x) + x^-1 - 1/2*x^-2 + 1/3*x^-3 + O(x^-4)\n"),
    (["eval", "x^(3/2)*log(x)^-1*exp(x^2)", "--terms", "3"], 0,
     "x^(3/2)*log(x)^-1*exp(x^2)\n"),
    (["eval", "2.5*x - 1/3"], 0, "5/2*x - 1/3\n"),
    # decimal literals are exact, so a cancelling sum of them is exactly 0
    (["eval", "1/((0.1 + 0.2 - 0.3)*x + 1)"], 0, "1\n"),
    (["eval", "log((0.1+0.2-0.3)*exp(x) + x)"], 0, "log(x)\n"),
    (["eval", "exp(0.1*x)*exp(-0.1*x)"], 0, "1\n"),
    # the large part of an exp argument keeps exact rational coefficients
    (["eval", "exp(0.1*x)"], 0, "exp(1/10*x)\n"),
    (["eval", "exp(x/2)"], 0, "exp(1/2*x)\n"),
    (["derive", "exp(x^2)"], 0, "2*x*exp(x^2)\n"),
    (["derive", "x^2 + x"], 0, "2*x + 1\n"),
    (["derive", "1/(1 - 1/x)", "--terms", "4"], 0,
     "-x^-2 - 2*x^-3 - 3*x^-4 - 4*x^-5 + O(x^-6)\n"),
    (["compose", "log(x)", "exp(x)"], 0, "x\n"),
    (["compose", "1/x", "x^2"], 0, "x^-2\n"),
    # the composite is exactly 1 + 1/x; the O-marker records how far the
    # (sparse) certificate grid was searched
    (["compose", "1/(1 - 1/x)", "x + 1", "--terms", "4"], 0,
     "1 + x^-1 + O(x^-14)\n"),
    (["taylor", "1/x", "x", "1", "--terms", "6"], 0,
     "locus: certified_convergent\n"
     "lhs: x^-1 - x^-2 + x^-3 - x^-4 + x^-5 - x^-6 + O(x^-7)\n"
     "rhs: x^-1 - x^-2 + x^-3 - x^-4 + x^-5 - x^-6 + O(x^-7)\n"
     "EQUAL\n"),
    (["taylor", "log(x)", "x", "1", "--terms", "4"], 0,
     "locus: certified_convergent\n"
     "lhs: log(x) + x^-1 - 1/2*x^-2 + 1/3*x^-3 + O(x^-4)\n"
     "rhs: log(x) + x^-1 - 1/2*x^-2 + 1/3*x^-3 + O(x^-4)\n"
     "EQUAL\n"),
    (["taylor", "exp(x)", "x", "1"], 4,
     "locus: certified_divergent\n"
     "SKIPPED: locus certified_divergent: support monomial exp(x) has a "
     "non-shrinking transformed dagger\n"),
    (["taylor", "exp(x)", "x^2", "1/x", "--terms", "3"], 0,
     "locus: certified_convergent\n"
     "lhs: exp(x^2) + x^-1*exp(x^2) + 1/2*x^-2*exp(x^2) + O(x^-3*exp(x^2))\n"
     "rhs: exp(x^2) + x^-1*exp(x^2) + 1/2*x^-2*exp(x^2) + O(x^-3*exp(x^2))\n"
     "EQUAL\n"),
    (["locus", "exp(x)", "--op", "compose:x^2", "--delta", "1/x"], 0,
     "locus: certified_convergent\n"
     "detail: generator daggers shrink below 1 under the operator\n"
     "witness: exp(x) -> x^-1\n"),
    (["locus", "exp(x)", "--delta", "1"], 2,
     "locus: certified_divergent\n"
     "detail: support monomial exp(x) has a non-shrinking transformed dagger\n"
     "witness: exp(x) -> 1\n"),
    (["locus", "1/(1 - 1/x)", "--delta", "1"], 0,
     "locus: certified_convergent\n"
     "detail: generator daggers shrink below 1 under the operator\n"
     "witness: x^-1 -> x^-1\n"),
    (["cutcheck", "1/x", "--cut", "above:1/x^2"], 0,
     "series: sum (x^-1)^k * X^k\n"
     "cut: monomials > x^-2\n"
     "verdict: member\n"
     "witness: degree 0: 1\n"
     "witness: degree 1: x^-1\n"),
    (["cutcheck", "1/x", "--cut", "above:x"], 2,
     "series: sum (x^-1)^k * X^k\n"
     "cut: monomials > x\n"
     "verdict: non_member\n"
     "witness: (1, X^0) vs (x^-1, X^1)\n"
     "witness: (1, X^0) vs (x^-2, X^2)\n"),
    (["eval", "x^^2"], 3,
     "error: expected a rational exponent at offset 2\n"),
    (["eval", "exp(1)"], 3,
     "error: PartialConstantError: exp(1) is irrational; only exp(0) is "
     "rational [at offset 0]\n"),
    # the image of exp(x) under x -> x+1 would be e*exp(x)
    (["compose", "exp(x)", "x+1"], 3,
     "error: PartialConstantError: exp(1) is irrational; only exp(0) is "
     "rational\n"),
    (["eval", "log(2*x)"], 3,
     "error: PartialConstantError: log(2) is irrational; only log(1) is "
     "rational [at offset 0]\n"),
    (["eval", "(2*x)^(1/2)"], 3,
     "error: PartialConstantError: 2^(1/2) is irrational [at offset 5]\n"),
    (["eval", "(1+x)^0"], 0, "1\n"),
    (["eval", "(-2+1/x)^(1/2)"], 3,
     "error: DomainError: negative base -2 with fractional exponent 1/2 "
     "[at offset 8]\n"),
    (["cutcheck", "1/x", "--cut", "empty"], 2,
     "series: sum (x^-1)^k * X^k\n"
     "cut: empty segment\n"
     "verdict: non_member\n"
     "witness: (1, X^0) vs (x^-1, X^1)\n"),
    # every power series lies in the algebra of the cut of all monomials
    (["cutcheck", "1/x", "--cut", "all"], 0,
     "series: sum (x^-1)^k * X^k\n"
     "cut: all monomials\n"
     "verdict: member\n"),
]


@pytest.mark.parametrize("argv,code,want", GOLDENS,
                         ids=[" ".join(g[0]) for g in GOLDENS])
def test_golden_invocations(argv, code, want):
    got_code, got = run_cli(argv)
    assert got == want
    assert got_code == code
    # byte-identity across repeated runs
    again_code, again = run_cli(argv)
    assert again == got and again_code == got_code


def test_golden_count_meets_acceptance():
    assert len(GOLDENS) >= 25


def test_json_schema():
    code, out = run_cli(["taylor", "1/x", "x", "1", "--terms", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "verdict", "terms", "witnesses"}
    assert payload["verdict"] == "EQUAL"
    assert payload["terms"][0] == {"coeff": "1", "monomial": "x^-1"}
    # stable across runs
    _, out2 = run_cli(["taylor", "1/x", "x", "1", "--terms", "4", "--json"])
    assert out2 == out


def test_json_terms_are_the_shown_terms():
    argv = ["eval", "1/(1-1/x) - 1/(1-1/x^2)", "--terms", "4"]
    _, text = run_cli(argv)
    assert text == "x^-1 + x^-3 + x^-5 + x^-7 + O(x^-9)\n"
    code, out = run_cli(argv + ["--json"])
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coeff": "1", "monomial": f"x^-{k}"} for k in (1, 3, 5, 7)]


def test_bound_flags_refuse_for_one_call():
    from transseries.limits import LIMITS
    before = (LIMITS.height_bound, LIMITS.log_depth_bound)
    # a fresh monomial of height 2, and then one an earlier call interned,
    # held here so that the flagged call finds it in the intern table
    assert run_cli(["eval", "exp(exp(x^3))", "--height-bound", "1"]) == (
        3, "error: ResourceError: monomial height 2 exceeds bound 1 "
           "[at offset 0]\n")
    held = make_monomial({}, [(1, make_monomial({}, [(1, X)]))])
    assert run_cli(["eval", "exp(exp(x))"]) == (0, "exp(exp(x))\n")
    assert _INTERN[(held.log_powers, held.exp_terms)]() is held
    assert run_cli(["eval", "exp(exp(x))", "--height-bound", "1"])[0] == 3
    assert run_cli(["eval", "log(log(x))", "--depth-bound", "1"]) == (
        3, "error: ResourceError: log depth 2 exceeds bound 1 [at offset 0]\n")
    # the next call without a flag runs under the previous bounds
    assert run_cli(["eval", "exp(exp(x))"]) == (0, "exp(exp(x))\n")
    assert run_cli(["eval", "log(log(x))"]) == (0, "log(log(x))\n")
    assert (LIMITS.height_bound, LIMITS.log_depth_bound) == before


def test_order_flag_is_gone():
    assert run_cli(["eval", "x", "--order", "8"]) == (3, "")


def usage_error_line(message):
    return json.dumps({"error": {"message": message, "offset": None,
                                 "type": "UsageError"}}, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", "x", "--terms", "abc"], "argument --terms: invalid int value: 'abc'"),
    (["cutcheck", "1/x"], "the following arguments are required: --cut"),
    (["eval", "-x"], "the following arguments are required: expr")],
    ids=["bad-int", "missing-option", "dash-operand"])
def test_usage_errors_exit_3(argv, message, capsys):
    assert run_cli(argv) == (3, "")
    assert "usage: transseries" in capsys.readouterr().err
    # under --json, or a prefix of it that argparse reads as the flag, one
    # machine-readable line joins argparse's text on stderr
    for flag in ("--json", "--js"):
        assert run_cli(argv + [flag]) == (3, usage_error_line(message))
        err = capsys.readouterr().err
        assert "usage: transseries" in err and message in err
    # after "--" a --json is an operand, not the flag
    assert run_cli(argv + ["--", "--json"]) == (3, "")


def test_help_exits_0():
    with pytest.raises(SystemExit) as e:
        run_cli(["--help"])
    assert e.value.code == 0


def test_json_errors():
    code, out = run_cli(["eval", "x^^2", "--json"])
    assert code == 3
    assert json.loads(out) == {"error": {
        "type": "ParseError", "offset": 2,
        "message": "expected a rational exponent at offset 2"}}
    code, out = run_cli(["eval", "exp(exp(x^3))", "--height-bound", "1", "--json"])
    assert code == 3
    assert json.loads(out) == {"error": {
        "type": "ResourceError", "offset": None,
        "message": "monomial height 2 exceeds bound 1 [at offset 0]"}}
    # text mode is unchanged
    assert run_cli(["eval", "x^^2"]) == (
        3, "error: expected a rational exponent at offset 2\n")


def test_cutcheck_empty_cut_witness():
    # the text form is a golden; under --json the same witness is data
    code, out = run_cli(["cutcheck", "1/x", "--cut", "empty", "--json"])
    assert code == 2
    assert json.loads(out) == {"command": "cutcheck", "terms": [],
                               "verdict": "non_member",
                               "witnesses": ["(1, X^0) vs (x^-1, X^1)"]}


def test_cutcheck_all_cut_is_a_member_without_witnesses():
    code, out = run_cli(["cutcheck", "1/x", "--cut", "all", "--json"])
    assert code == 0
    assert out == ('{"command": "cutcheck", "terms": [], "verdict": "member", '
                   '"witnesses": []}\n')


def test_deep_nesting_is_a_parse_error():
    from transseries.parser import MAX_NESTING
    deep = "(" * 400 + "x" + ")" * 400
    code, out = run_cli(["eval", deep])
    assert code == 3
    assert out == f"error: nesting deeper than {MAX_NESTING} levels at offset {MAX_NESTING}\n"
    for src in ("(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
                "log(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
                " " + "-" * MAX_NESTING + "x"):
        with pytest.raises(ParseError):
            parse("(" + src + ")")
        parse(src)
    assert run_cli(["eval", " " + "-" * 401 + "x"])[0] == 3


def test_a_large_integer_power_answers():
    # twenty squarings of a two-term series: the products form only the
    # bases the first terms need
    assert run_cli(["eval", "(1+1/x)^1000000", "--terms", "3"]) == (
        0, "1 + 1000000*x^-1 + 499999500000*x^-2 + O(x^-3)\n")


def test_stdin_input(monkeypatch):
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("1/(1 - 1/x)"))
    code, out = run_cli(["eval", "-", "--terms", "3"])
    assert code == 0
    assert out == "1 + x^-1 + x^-2 + O(x^-3)\n"


def _nested_quotients(depth):
    """1/(1+1/(1+...1/(1+x))) with `depth` quotients."""
    deep = "x"
    for _ in range(depth):
        deep = f"1/(1+{deep})"
    return deep


def _nested_quotient_coeffs(depth, n):
    """The first n coefficients, in powers of t = 1/x, of the nested
    quotients: the continued fraction over power series in t truncated
    after t^(n-1), with Fraction coefficients."""
    f = [Fraction(0)] + [Fraction((-1) ** (k + 1)) for k in range(1, n)]  # t/(1+t)
    for _ in range(depth - 1):
        a = [1 + f[0]] + f[1:]
        q = []
        for k in range(n):
            q.append(((k == 0) - sum(a[j] * q[k - j] for j in range(1, k + 1))) / a[0])
        f = q
    return f


def test_sixty_nested_quotients_answer():
    # a product with the one term 1 is a scaling, so each quotient costs
    # few enough stack frames that 60 of them answer
    deep = _nested_quotients(60)
    c = _nested_quotient_coeffs(60, 3)
    assert c[1] < 0 < c[2]
    assert run_cli(["eval", deep, "--terms", "3"]) == (
        0, f"{c[0]} - {-c[1]}*x^-1 + {c[2]}*x^-2 + O(x^-3)\n")
    code, out = run_cli(["eval", deep, "--terms", "3", "--json"])
    terms = json.loads(out)["terms"]
    assert code == 0 and [t["monomial"] for t in terms] == ["1", "x^-1", "x^-2"]
    assert [Fraction(t["coeff"]) for t in terms] == c


def test_a_far_bound_at_x_answers():
    # composing with x is the identity, so the deformation walks no image
    # grid: exp(sqrt(x+1)) = exp(sqrt(x)) * exp(t/2 - t^3/8 + ...) for
    # t = x^(-1/2), that is exp(sqrt(x)) * (1 + t/2 + t^2/8 - 5/48*t^3 + ...)
    side = ("exp(x^(1/2)) + 1/2*x^(-1/2)*exp(x^(1/2)) + 1/8*x^-1*exp(x^(1/2)) "
            "- 5/48*x^(-3/2)*exp(x^(1/2)) + O(x^-2*exp(x^(1/2)))")
    assert run_cli(["taylor", "exp(1/x) + exp(x^(1/2))", "x", "1", "--terms", "4"]) == (
        0, f"locus: certified_convergent\nlhs: {side}\nrhs: {side}\nEQUAL\n")


def test_deep_quotients_are_a_resource_error():
    # 99 nested quotients stay inside the parser's cap of 100 levels but
    # exhaust Python's stack while the series is built or expanded: one
    # refusal line, in text and under --json
    message = "expression nests too deeply for the recursion limit"
    deep = _nested_quotients(99)
    assert run_cli(["eval", deep, "--terms", "3"]) == (
        3, f"error: ResourceError: {message}\n")
    code, out = run_cli(["eval", deep, "--terms", "3", "--json"])
    assert code == 3 and out.count("\n") == 1
    assert json.loads(out) == {"error": {
        "type": "ResourceError", "offset": None, "message": message}}


def test_long_sums_are_one_flat_sum():
    # a +/- chain parses to a left spine of Binary nodes as long as the
    # chain, but has no nesting: any length elaborates to one flat sum
    src = "x^-1" + "".join(f" {'-+'[k % 2]} x^-{k}" for k in range(2, 3001))
    assert run_cli(["eval", src, "--terms", "4"]) == (
        0, "x^-1 - x^-2 + x^-3 - x^-4 + O(x^-5)\n")
    # a kernel error inside the chain still names its operand's offset
    assert run_cli(["eval", "x + 1/0 - x"]) == (
        3, "error: DivisionByZeroSeries: cannot invert the zero series "
           "[at offset 5]\n")


def test_exit_codes_match_verdicts():
    assert run_cli(["taylor", "1/x", "x", "1"])[0] == 0
    assert run_cli(["taylor", "exp(x)", "x", "1"])[0] == 4
    assert run_cli(["locus", "exp(x)", "--delta", "1"])[0] == 2
    assert run_cli(["cutcheck", "1/x", "--cut", "above:x"])[0] == 2
    assert run_cli(["eval", "x^^2"])[0] == 3


def test_in_bound_monomials_compare_at_the_depth_bound():
    # ordering exp(x) against log^4(x) goes through log^5(x), past the bound
    assert run_cli(["eval", "exp(x) + log(log(log(log(x))))"]) == (
        0, "exp(x) + log(log(log(log(x))))\n")


def test_parse_raises_only_parse_errors():
    # str.isdigit() holds for superscripts that int() refuses; the grammar's
    # digits are the ones int() reads, so no input escapes as another error
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @hyp.given(st.text("0123456789.xlogexp+-*/^() \t²⁴٣é½_", max_size=16))
    def check(src):
        try:
            tree = parse(src)
        except ParseError:
            return
        assert isinstance(tree, (Num, Var, Unary, Binary, Power))

    check()


def test_integer_powers_of_x_are_monomials():
    assert parse_series("x^-3").expand(mono_pow(X, -3)) == {mono_pow(X, -3): 1}
    assert parse_series("x^0").expand(make_monomial({})) == {make_monomial({}): 1}
    # and so are the fractional ones, with the exact coefficient 1
    half3 = mono_pow(X, Fraction(3, 2))
    assert parse_series("x^(3/2)").expand(half3) == {half3: 1}
    assert run_cli(["derive", "x^(3/2)"]) == (0, "3/2*x^(1/2)\n")
    huge = "9" * 4000
    assert run_cli(["eval", f"x^{huge}"]) == (0, f"x^{huge}\n")


DIGITS = sys.get_int_max_str_digits()
TOO_LONG = f"a number has more than {DIGITS} digits"
# (argv, error type, offset, message) of inputs that once ended in a traceback
FORMER_TRACEBACKS = [
    (["eval", "x^²"], "ParseError", 2, "unexpected character '²' at offset 2"),
    (["eval", "1" * 5000], "ParseError", 0,
     f"literal longer than {DIGITS} digits at offset 0"),
    (["eval", "2^20000"], "ResourceError", None, TOO_LONG),
    (["eval", "10^5000*x"], "ResourceError", None, TOO_LONG),
    (["eval", "1/(1-2^20000/x)"], "ResourceError", None, TOO_LONG),
    # the message of the PartialConstantError is what cannot be printed
    (["eval", "exp(2^20000)"], "ResourceError", None, TOO_LONG),
]


@pytest.mark.parametrize("argv,kind,offset,message", FORMER_TRACEBACKS,
                         ids=[f"{a[0]}-{k}-{i}" for i, (a, k, _, _)
                              in enumerate(FORMER_TRACEBACKS)])
def test_former_tracebacks_exit_3(argv, kind, offset, message):
    text = message if kind == "ParseError" else f"{kind}: {message}"
    assert run_cli(argv) == (3, f"error: {text}\n")
    code, out = run_cli(argv + ["--json"])
    assert code == 3
    assert json.loads(out) == {"error": {"type": kind, "offset": offset,
                                         "message": message}}


def test_other_value_errors_surface(monkeypatch):
    import transseries.cli as cli

    def fault(text):
        raise ValueError("a fault in the program")
    monkeypatch.setattr(cli, "parse_series", fault)
    with pytest.raises(ValueError, match="a fault in the program"):
        run_cli(["eval", "x"])


# (argv, message) of refused operator, cut and ratio arguments: each is a
# ParseError at offset 0
REFUSED_ARGUMENTS = [
    (["locus", "exp(x)", "--op", "bogus", "--delta", "1/x"],
     "unknown operator spec 'bogus' (use 'identity' or 'compose:EXPR')"),
    (["cutcheck", "1/x", "--cut", "bogus"],
     "unknown cut spec 'bogus' (use all, empty, above:EXPR, aboveeq:EXPR)"),
    (["cutcheck", "1/x", "--cut", "above:x-x"],
     "cut boundary must be a nonzero series"),
    (["cutcheck", "x-x", "--cut", "all"], "cutcheck ratio must be a nonzero series"),
]


@pytest.mark.parametrize("argv,message", REFUSED_ARGUMENTS,
                         ids=[" ".join(a[:2]) + f"-{i}"
                              for i, (a, _) in enumerate(REFUSED_ARGUMENTS)])
def test_refused_arguments_exit_3(argv, message):
    message += " at offset 0"
    assert run_cli(argv) == (3, f"error: {message}\n")
    code, out = run_cli(argv + ["--json"])
    assert code == 3
    assert json.loads(out) == {"error": {"type": "ParseError", "offset": 0,
                                         "message": message}}


def test_taylor_at_depth_0_is_skipped():
    argv = ["taylor", "1/x", "x", "1", "--terms", "0"]
    assert run_cli(argv) == (4, "locus: certified_convergent\n"
                                "SKIPPED: depth 0 compares no grid position\n")
    code, out = run_cli(argv + ["--json"])
    assert code == 4
    assert json.loads(out) == {"command": "taylor", "verdict": "SKIPPED", "terms": [],
                               "witnesses": ["depth 0 compares no grid position"]}


@pytest.mark.parametrize("argv", [
    ["eval", "1/x"], ["derive", "1/x"], ["compose", "1/x", "x+1"],
    ["taylor", "1/x", "x", "1"], ["identity-check", "1/x", "x", "1"],
    ["locus", "1/x", "--delta", "1"], ["cutcheck", "1/x", "--cut", "all"]],
    ids=lambda argv: argv[0])
def test_negative_terms_is_a_usage_error(argv, capsys):
    message = "argument --terms: -1 is negative"
    for extra, out in (([], ""), (["--json"], usage_error_line(message))):
        assert run_cli(argv + ["--terms", "-1"] + extra) == (3, out)
        err = capsys.readouterr().err
        assert "usage: transseries" in err
        assert "argument --terms: -1 is negative" in err
    assert run_cli(["eval", "1/x", "--terms", "0"]) == (0, "O(x^-1)\n")


BOUND_AT_ZERO = [
    (["eval", "x", "--height-bound"], "x\n"),
    (["eval", "x^2", "--height-bound"], "x^2\n"),
    (["eval", "2", "--depth-bound"], "2\n"),
    (["derive", "x", "--depth-bound"], "1\n"),
    (["locus", "1/x", "--delta", "1", "--height-bound"],
     "locus: certified_convergent\n"
     "detail: generator daggers shrink below 1 under the operator\n"
     "witness: x^-1 -> x^-1\n"),
]


@pytest.mark.parametrize("argv, at_zero", BOUND_AT_ZERO,
                         ids=[" ".join(argv) for argv, _ in BOUND_AT_ZERO])
def test_negative_bound_is_a_usage_error(argv, at_zero, capsys):
    # refused before anything is built, also for an input whose monomials
    # were interned at import; a bound of 0 is a bound
    message = f"argument {argv[-1]}: -1 is negative"
    for extra, out in (([], ""), (["--json"], usage_error_line(message))):
        assert run_cli(argv + ["-1"] + extra) == (3, out)
        err = capsys.readouterr().err
        assert "usage: transseries" in err
        assert message in err
    assert run_cli(argv + ["0"]) == (0, at_zero)


# -- a --terms past what a grid walk can reach -----------------------------------

HUGE_TERMS = ["100000000000000000000", "4611686018427387901", str(sys.maxsize)]


@pytest.mark.parametrize("terms", HUGE_TERMS)
@pytest.mark.parametrize("argv, text, json_terms", [
    (["eval", "x"], "x\n", [("1", "x")]),
    (["derive", "exp(x)"], "exp(x)\n", [("1", "exp(x)")]),
    (["compose", "x^2", "x+1"], "x^2 + 2*x + 1\n", [("1", "x^2"), ("2", "x"), ("1", "1")]),
    (["taylor", "x^2", "x", "0"], "locus: certified_convergent\nlhs: x^2\nrhs: x^2\nEQUAL\n",
     [("1", "x^2")])],
    ids=["eval", "derive", "compose", "taylor"])
def test_huge_terms_on_a_finite_series(argv, text, json_terms, terms):
    # a finite grid ends long before the term search's limit
    assert run_cli(argv + ["--terms", terms]) == (0, text)
    code, out = run_cli(argv + ["--terms", terms, "--json"])
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": c, "monomial": m} for c, m in json_terms]


@pytest.mark.parametrize("argv", [["eval", "1/(1-1/x)"], ["taylor", "1/x", "x", "1"]],
                         ids=lambda argv: argv[0])
def test_huge_terms_on_an_infinite_grid_is_refused(argv, monkeypatch):
    monkeypatch.setattr("transseries.series.EXPAND_FUEL", 2_000)
    code, out = run_cli(argv + ["--terms", HUGE_TERMS[0]])
    assert code == 3
    assert out.startswith("error: BudgetExceededError: grid walk past ")
    assert "exceeded 2000 lattice points" in out
    code, out = run_cli(argv + ["--terms", HUGE_TERMS[0], "--json"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "BudgetExceededError"


def test_huge_depth_in_the_library():
    x = parse_series("x")
    assert render_series(x, 10**20) == "x"
    equal, cutoff, bad = compare_to_depth(x, x, 10**20)
    assert equal and cutoff is X and bad == []


# -- one parser per process --------------------------------------------------------

HELP = Path(__file__).resolve().parent / "help"
SUBCOMMANDS = ["eval", "derive", "compose", "taylor", "identity-check", "locus", "cutcheck"]


def help_golden(command):
    return (HELP / f"{command or 'transseries'}.txt").read_text()


def usage_error_text(command, message):
    """argparse's stderr for a usage error: the parser's usage block from
    its help golden, then `prog: error: message`."""
    usage = help_golden(command).split("\n\n", 1)[0]
    prog = " ".join(filter(None, ["transseries", command]))
    return f"{usage}\n{prog}: error: {message}\n"


@pytest.mark.parametrize("command", [None] + SUBCOMMANDS)
def test_help_goldens(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    want = help_golden(command)
    argv = [command, "--help"] if command else ["--help"]
    # the second print comes from the parser the first call built
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr() == (want, "")


def test_shared_parser_leaks_no_state(monkeypatch, capsys):
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    bad_int = "argument --terms: invalid int value: 'abc'"
    negative = "argument --terms: -1 is negative"
    unknown = "unrecognized arguments: --backend float"
    calls = [
        (["eval", "x", "--terms", "abc", "--json"], 3, usage_error_line(bad_int),
         usage_error_text("eval", bad_int)),
        # a negative --terms is refused by the top parser's `error`
        (["eval", "x", "--terms", "-1"], 3, "", usage_error_text(None, negative)),
        # there is no constant-field option
        (["eval", "x", "--backend", "float"], 3, "", usage_error_text(None, unknown)),
        (["eval", "x", "--backend", "float", "--json"], 3, usage_error_line(unknown),
         usage_error_text(None, unknown)),
        (["eval", "log(log(x))", "--depth-bound", "1"], 3,
         "error: ResourceError: log depth 2 exceeds bound 1 [at offset 0]\n", ""),
        (["locus", "exp(x)", "--op", "compose:x^2", "--delta", "1/x"], 0,
         "locus: certified_convergent\n"
         "detail: generator daggers shrink below 1 under the operator\n"
         "witness: exp(x) -> x^-1\n", ""),
        (["eval", "1/(1 - 1/x)"], 0,
         "1 + x^-1 + x^-2 + x^-3 + x^-4 + x^-5 + x^-6 + x^-7 + O(x^-8)\n", ""),
    ]
    before = dict(vars(LIMITS))
    for _ in range(2):
        for argv, code, out, err in calls:
            assert run_cli(argv) == (code, out), argv
            assert capsys.readouterr().err == err, argv
    assert dict(vars(LIMITS)) == before
