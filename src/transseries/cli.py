"""Command-line surface.

Commands: eval, derive, compose, taylor (alias identity-check), locus,
cutcheck.  Output is deterministic; exit codes encode verdicts:
0 success/EQUAL/member/convergent, 2 UNEQUAL/non-member/divergent,
3 input or kernel error, 4 skipped/inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import KernelError, ParseError, ResourceError
from .limits import configure
from .parser import parse_series
from .powerseries import CutSpec, cut_member, monomial_geometric
from .series import TransSeries, format_shown, render_series, shown_terms
from .taylor import LocusSpec, locus_contains, taylor_identity_check
from .calculus import IDENTITY, CompositionHandle, derive, compose

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3
EXIT_SKIPPED = 4
# exit code of each verdict; any other verdict is EXIT_SKIPPED
VERDICT_EXIT = {"EQUAL": EXIT_OK, "certified_convergent": EXIT_OK, "member": EXIT_OK,
                "UNEQUAL": EXIT_NEGATIVE, "certified_divergent": EXIT_NEGATIVE,
                "non_member": EXIT_NEGATIVE}


def _series_arg(text: str) -> TransSeries:
    """The series an argument denotes; "-" reads it from stdin."""
    if text == "-":
        text = sys.stdin.read().strip()
    return parse_series(text)


def _json_terms(terms: list) -> list:
    return [{"coeff": str(c), "monomial": m.render()} for c, m in terms]


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_op(text: str):
    if text in (None, "identity", "id"):
        return IDENTITY
    if text.startswith("compose:"):
        return CompositionHandle(parse_series(text.split(":", 1)[1]))
    raise ParseError(f"unknown operator spec {text!r} "
                     "(use 'identity' or 'compose:EXPR')", 0)


def _parse_cut(text: str) -> CutSpec:
    if text == "all":
        return CutSpec.all()
    if text == "empty":
        return CutSpec.empty()
    for prefix, ctor in (("above:", CutSpec.above), ("aboveeq:", CutSpec.above_eq)):
        if text.startswith(prefix):
            s = parse_series(text[len(prefix):])
            lt = s.leading_term()
            if lt is None:
                raise ParseError("cut boundary must be a nonzero series", 0)
            return ctor(lt.mono)
    raise ParseError(f"unknown cut spec {text!r} "
                     "(use all, empty, above:EXPR, aboveeq:EXPR)", 0)


def _emit_series(args, command: str, s: TransSeries) -> int:
    terms, omark = shown_terms(s, args.terms)
    _emit(args, {"command": command, "verdict": "ok",
                 "terms": _json_terms(terms), "witnesses": []},
          [format_shown(terms, omark)])
    return EXIT_OK


def cmd_eval(args) -> int:
    return _emit_series(args, "eval", _series_arg(args.expr))


def cmd_derive(args) -> int:
    return _emit_series(args, "derive", derive(_series_arg(args.expr)))


def cmd_compose(args) -> int:
    f, g = _series_arg(args.f), _series_arg(args.g)
    return _emit_series(args, "compose", compose(f, g))


def cmd_taylor(args) -> int:
    f, g, d = _series_arg(args.f), _series_arg(args.g), _series_arg(args.delta)
    report = taylor_identity_check(f, g, d, depth=args.terms)
    lines = []
    witnesses = []
    if report.conv_report is not None:
        lines.append(f"locus: {report.conv_report.verdict}")
        witnesses = [item[0].render() for item in report.conv_report.witnesses[:3]]
    if report.status == "SKIPPED":
        lines.append(f"SKIPPED: {report.detail}")
        _emit(args, {"command": "taylor", "verdict": "SKIPPED",
                     "terms": [], "witnesses": [report.detail]}, lines)
        return EXIT_SKIPPED
    rhs_terms, rhs_omark = shown_terms(report.rhs, args.terms)
    lines.append(f"lhs: {render_series(report.lhs, args.terms)}")
    lines.append(f"rhs: {format_shown(rhs_terms, rhs_omark)}")
    lines.append(report.status)
    _emit(args, {"command": "taylor", "verdict": report.status,
                 "terms": _json_terms(rhs_terms),
                 "witnesses": witnesses}, lines)
    return VERDICT_EXIT.get(report.status, EXIT_SKIPPED)


def cmd_locus(args) -> int:
    f = _series_arg(args.expr)
    op = _parse_op(args.op)
    delta = _series_arg(args.delta)
    report = locus_contains(LocusSpec(op, delta), f)
    # every locus witness starts with a pair of monomials
    wit = [f"{item[0].render()} -> {item[1].render()}"
           for item in report.witnesses]
    lines = [f"locus: {report.verdict}", f"detail: {report.detail}"]
    lines += [f"witness: {w}" for w in wit[:4]]
    _emit(args, {"command": "locus", "verdict": report.verdict,
                 "terms": [], "witnesses": wit[:4]}, lines)
    return VERDICT_EXIT.get(report.verdict, EXIT_SKIPPED)


def cmd_cutcheck(args) -> int:
    r = _series_arg(args.ratio)
    lt = r.leading_term()
    if lt is None:
        raise ParseError("cutcheck ratio must be a nonzero series", 0)
    p = monomial_geometric(lt.mono)
    cut = _parse_cut(args.cut)
    verdict = cut_member(p, cut)
    # a non-member is witnessed by pairs ((m, k), (m', k')) of incomparable
    # dominant terms, a member by (degree, grid maximum) pairs
    if verdict.kind == "non_member":
        wit = [f"({m1.render()}, X^{k1}) vs ({m2.render()}, X^{k2})"
               for (m1, k1), (m2, k2) in verdict.witnesses[:2]]
    else:
        wit = [f"degree {k}: {m.render()}" for k, m in verdict.witnesses[:2]]
    lines = [f"series: sum ({lt.mono.render()})^k * X^k",
             f"cut: {cut.describe()}", f"verdict: {verdict.kind}"]
    lines += [f"witness: {w}" for w in wit]
    _emit(args, {"command": "cutcheck", "verdict": verdict.kind,
                 "terms": [], "witnesses": wit}, lines)
    return VERDICT_EXIT.get(verdict.kind, EXIT_SKIPPED)


# (name, handler, help, operands): an operand is a positional name or a
# (flag, add_argument keywords) pair
_TAYLOR_HELP = "check F o (G + D) against the Taylor deformation"
_COMMANDS = (
    ("eval", cmd_eval, "parse and expand an expression", ("expr",)),
    ("derive", cmd_derive, "differentiate an expression", ("expr",)),
    ("compose", cmd_compose, "right-compose F with G", ("f", "g")),
    ("taylor", cmd_taylor, _TAYLOR_HELP, ("f", "g", "delta")),
    ("identity-check", cmd_taylor, _TAYLOR_HELP, ("f", "g", "delta")),
    ("locus", cmd_locus, "convergence locus report",
     ("expr", ("--op", {"default": "identity", "help": "identity or compose:EXPR"}),
      ("--delta", {"required": True}))),
    ("cutcheck", cmd_cutcheck,
     "cut-algebra membership of the geometric family sum RATIO^k X^k",
     ("ratio", ("--cut", {"required": True,
                          "help": "all, empty, above:EXPR, or aboveeq:EXPR"}))),
)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # keep argparse's message on its SystemExit for the --json error line
        try:
            super().error(message)
        except SystemExit as e:
            e.message = message
            raise


@functools.cache  # built at the first call; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--terms", type=int, default=8,
                        help="terms / comparison depth (default 8)")
    common.add_argument("--depth-bound", type=int, default=None,
                        help="iterated-log depth bound, for this call only")
    common.add_argument("--height-bound", type=int, default=None,
                        help="exponential height bound, for this call only")
    common.add_argument("--json", action="store_true",
                        help="emit a stable JSON report")

    # the usage as Python 3.10 to 3.12 wrap it at 80 columns, which 3.13
    # would join into one line; the subcommands then need their own `prog`
    indent = " " * len("usage: transseries ")
    names = ",".join(name for name, *_ in _COMMANDS)
    ap = _ArgumentParser(
        prog="transseries",
        usage=f"%(prog)s [-h]\n{indent}{{{names}}}\n{indent}...",
        description="exact log-exp transseries kernel")
    sub = ap.add_subparsers(dest="command", required=True, prog="transseries")
    for name, fn, help_text, operands in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for operand in operands:
            flag, kwargs = (operand, {}) if isinstance(operand, str) else operand
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def _print_json_error(kind: str, message: str, offset=None) -> None:
    print(json.dumps({"error": {"type": kind, "message": message, "offset": offset}},
                     sort_keys=True))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        for flag in ("terms", "depth_bound", "height_bound"):
            value = getattr(args, flag)
            if value is not None and value < 0:
                ap.error(f"argument --{flag.replace('_', '-')}: {value} is negative")
    except SystemExit as e:
        # argparse exits 2 on a usage error, which is a verdict code here;
        # it reads any prefix of --json from --j as the flag, but not after --
        if e.code == 2:
            flags = argv[:argv.index("--")] if "--" in argv else argv
            if any(a.startswith("--j") and "--json".startswith(a) for a in flags):
                _print_json_error("UsageError", e.message)
            return EXIT_INPUT
        raise
    bounds = {"log_depth_bound": args.depth_bound, "height_bound": args.height_bound}
    previous = configure(**{k: v for k, v in bounds.items() if v is not None})
    try:
        return args.fn(args)
    except (KernelError, RecursionError, ValueError) as e:
        if isinstance(e, RecursionError):
            # the parser caps nesting, but a deep series DAG can still
            # exhaust Python's stack while it is elaborated or expanded
            e = ResourceError("expression nests too deeply for the recursion limit")
        elif isinstance(e, ValueError):
            # Python refuses to print an int of more digits than its limit,
            # with a plain ValueError; any other ValueError is a fault
            if "for integer string conversion" not in str(e):
                raise
            e = ResourceError("a number has more than "
                              f"{sys.get_int_max_str_digits()} digits")
        if args.json:
            _print_json_error(type(e).__name__, str(e),
                              e.position if isinstance(e, ParseError) else None)
        elif isinstance(e, ParseError):
            print(f"error: {e}")
        else:
            print(f"error: {type(e).__name__}: {e}")
        return EXIT_INPUT
    finally:
        configure(**previous)


if __name__ == "__main__":
    sys.exit(main())
