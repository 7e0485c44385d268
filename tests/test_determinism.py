"""No output and no traced count depends on how monomials hash, nor on
the order in which an input writes its operands.

Each job runs in two fresh interpreters whose `Monomial.__hash__` is
salted differently, so every set or dict of monomials hashes them apart:
the CLI golden rows, and one traced tiny round of each benchmark workload
at seed 711, as `bench/run.py --trace` runs it.  Their outputs and every
count the tracer reports must agree; only the timings may differ.

A series is a map from monomials to coefficients, so the CLI's text for
an input is the same under every permutation of the operands of each
sum and product it writes."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from transseries.parser import Binary, Num, Power, Unary, Var, parse

from test_cli import GOLDENS, run_cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("render_deep", "taylor_identity", "ring_laws", "cli_session")

# argv: salt, job ("goldens" or a workload); prints one JSON line
CHILD = r"""
import contextlib, io, json, sys
salt, job = int(sys.argv[1]), sys.argv[2]
import transseries.cli
from transseries import monomial
# no key of the intern table holds a monomial yet, and the comparison cache
# is emptied, so no table was filled under the unsalted hash
assert not any(et for _, et in monomial._INTERN)
unsalted = monomial.Monomial.__hash__
monomial.Monomial.__hash__ = lambda m: hash((unsalted(m), salt))
monomial.mono_cmp.cache_clear()
if job == "goldens":
    from test_cli import GOLDENS, run_cli
    print(json.dumps([run_cli(argv) for argv, _, _ in GOLDENS]))
    sys.exit()
import worker, workloads
outputs, build = [], workloads.WORKLOADS[job]

def recorded(seed, scale):
    queries = build(seed, scale)
    for q in queries:
        q.run = lambda run=q.run: outputs.append(run()) or outputs[-1]
    return queries

workloads.WORKLOADS[job] = recorded
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    worker.main(["--workload", job, "--seed", "711", "--trace", "--scale", "tiny"])
report = json.loads(buf.getvalue().splitlines()[-1])
timings = {"setup_s", "run_s", "run_cpu_s", "latencies_s", "peak_rss_kb"}
report = {k: v for k, v in report.items() if k not in timings}
report["layers"] = {k: v for k, v in report["layers"].items() if not k.endswith("_s")}
report["outputs"] = [repr(out) for out in outputs]
print(json.dumps(report))
"""


def _run_salted(job: str) -> list:
    """The JSON reports of `job` under the salts 1 and 2."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(ROOT / d) for d in ("src", "tests", "bench"))
    reports = []
    for salt in (1, 2):
        child = subprocess.run([sys.executable, "-c", CHILD, str(salt), job], cwd=ROOT,
                               env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        reports.append(json.loads(child.stdout.splitlines()[-1]))
    return reports


def test_goldens_do_not_depend_on_the_monomial_hash():
    first, second = _run_salted("goldens")
    assert first == second == [[code, want] for _, code, want in GOLDENS]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_do_not_depend_on_the_monomial_hash(workload):
    first, second = _run_salted(workload)
    assert first["attempted"] == len(first["outputs"]) > 0
    assert not first["errors"]
    assert first["layers"]["monomial.mono_cmp_misses"] > 0
    diff = {k: (v, second["layers"][k]) for k, v in first["layers"].items()
            if second["layers"][k] != v}
    assert not diff
    assert first == second


# -- operand order ----------------------------------------------------------------

# the Taylor f's of the benchmark, the README's examples, and the atoms of
# the seeded sums and products
TAYLOR_FS = ("1/x", "log(x)", "exp(x)", "1/(1-1/x)", "x^2+3*x", "x^-2", "x^(3/2)",
             "1/x-2*x^-3", "x/2+1+1/x", "1/(1-3/x)", "(1-1/x)/(1-3/x)",
             "exp(x^2)", "exp(-x)", "exp(x)+x", "exp(2*x)")
README_INPUTS = ("1/(1 - 1/x)", "exp(x^2)", "log(x)", "exp(x)", "1/x", "1/(1-5/x)")
ATOMS = ("x", "log(x)", "x^(1/2)", "exp(x)", "1/x", "1/log(x)", "x^-2", "exp(-x)",
         "log(log(x))", "2", "3", "x^-1*exp(x)", "exp(2*x)")
# the text commands, with None for the input
ORDER_COMMANDS = (["eval", None], ["derive", None], ["locus", None, "--delta", "1"],
                  ["taylor", None, "x", "1"])


def _order_corpus() -> list:
    r = random.Random(37)
    out = list(TAYLOR_FS + README_INPUTS)
    out += ["x^-1*exp(x) + exp(2*x)", "(exp(x)+x)*(1/x+1)"]
    for _ in range(24):
        k = r.randint(2, 4)
        shape = r.choice(("sum", "product", "sum of products", "product of sums"))
        if shape == "sum":
            out.append(" + ".join(r.sample(ATOMS, k)))
        elif shape == "product":
            out.append("*".join(f"({a})" for a in r.sample(ATOMS, k)))
        elif shape == "sum of products":
            out.append(" + ".join("*".join(r.sample(ATOMS, 2)) for _ in range(min(k, 3))))
        else:
            out.append("*".join("(" + " + ".join(r.sample(ATOMS, 2)) + ")"
                                for _ in range(2)))
    return list(dict.fromkeys(out))


def _operands(e, op: str) -> list:
    """The operands of the chain of `op` at the root of `e`."""
    if isinstance(e, Binary) and e.op == op:
        return _operands(e.left, op) + _operands(e.right, op)
    return [e]


def _orderings(e) -> list:
    """The texts of the expression tree `e`, fully parenthesised, under every
    permutation of the operands of each chain of + and of *."""
    if isinstance(e, Num):
        return [f"({e.value})"]
    if isinstance(e, Var):
        return ["x"]
    if isinstance(e, Unary):
        return [f"(-({a}))" if e.op == "neg" else f"{e.op}({a})" for a in _orderings(e.arg)]
    if isinstance(e, Power):
        return [f"({b})^({e.exponent})" for b in _orderings(e.base)]
    if e.op in "+*":
        out = []
        for texts in itertools.product(*map(_orderings, _operands(e, e.op))):
            out += [e.op.join(f"({t})" for t in p) for p in itertools.permutations(texts)]
        return list(dict.fromkeys(out))
    return [f"({a}){e.op}({b})" for a in _orderings(e.left) for b in _orderings(e.right)]


def _outcome(command: list, text: str) -> tuple:
    """(exit code, text output) of one CLI call; only the error type of a
    refusal, whose text names an offset in the input."""
    code, out = run_cli([text if a is None else a for a in command])
    return (code, out.split(":")[1].strip()) if code == 3 else (code, out)


def test_outputs_do_not_depend_on_the_operand_order():
    corpus = _order_corpus()
    orderings = [_orderings(parse(text)) for text in corpus]
    assert len(corpus) > 40 and sum(map(len, orderings)) > 500
    for texts in orderings:
        for command in ORDER_COMMANDS:
            outcomes = {t: _outcome(command, t) for t in texts}
            assert len(set(outcomes.values())) == 1, (command, outcomes)


def test_a_divergence_witness_is_the_largest_qualifying_monomial():
    for text in ("x^-1*exp(x) + exp(2*x)", "exp(2*x) + x^-1*exp(x)"):
        code, out = run_cli(["locus", text, "--delta", "1"])
        assert code == 2, text
        assert "witness: exp(2*x) -> 1" in out.splitlines(), (text, out)
    for text in ("(exp(x)+x)*(1/x+1)", "(x+exp(x))*(1+1/x)"):
        code, out = run_cli(["taylor", text, "x", "1"])
        assert out.splitlines()[1] == ("SKIPPED: locus certified_divergent: support "
                                       "monomial exp(x) has a non-shrinking "
                                       "transformed dagger"), (text, out)
