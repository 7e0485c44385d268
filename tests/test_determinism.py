"""No output and no traced count depends on how monomials hash.

Each job runs in two fresh interpreters whose `Monomial.__hash__` is
salted differently, so every set or dict of monomials hashes them apart:
the CLI golden rows, and one traced tiny round of each benchmark workload
at seed 711, as `bench/run.py --trace` runs it.  Their outputs and every
count the tracer reports must agree; only the timings may differ."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDENS

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
