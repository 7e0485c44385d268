"""Fast self-test of the benchmark harness (about half a minute).

    python3 bench/selftest.py

Runs every workload on tiny inputs, untraced and twice traced, and checks
that each run is correct, that every metric named in BENCHMARK.json is
emitted with its unit, that the failed share is whole rounds of the one
known fault, and that the traced counts repeat exactly.  Then checks
that the oracles reject wrong outputs, and that the benchmark exits
non-zero without a result where the kernel sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Terms, check_json_terms, check_render  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] is True, f"{workload}: incorrect\n{proc.stderr}"
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out


def check_metrics(out: dict, spec: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, f"{label}: metrics differ: {set(got) ^ set(want)}"
    for name, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{label}: {name} = {v}"


def check_harness(config: dict) -> None:
    for w in config["workloads"]:
        name = w["name"]
        plain = result(name, 0)
        check_metrics(plain, config["end_to_end"], f"{name} --trace 0")
        for metric in config["end_to_end"]:
            assert plain["metrics"][metric["name"]]["value"] > 0, metric
        if name == "cli_session":
            # the known fault fails once per round, or never once it is mended
            per_round = len(workloads.build_cli_session(7, "tiny"))
            rounds, rest = divmod(plain["attempted"], per_round)
            assert rest == 0 and plain["failed"] in (0, rounds), plain
        else:
            assert plain["failed"] == 0, plain
        first, second = result(name, 1), result(name, 1)
        check_metrics(first, config["per_layer"], f"{name} --trace 1")
        counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
        drift = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
        assert not drift, f"{name}: traced counts differ between runs: {drift}"
        print(f"ok {name}: {plain['attempted']} queries, {plain['failed']} failed")


def check_oracles() -> None:
    geo = Terms.from_ps([1] * 12)
    assert check_render("1 + x^-1 + x^-2 + O(x^-3)", geo, 3) is None
    assert check_render("1 + x^-1 + 2*x^-2 + O(x^-3)", geo, 3)      # wrong coefficient
    assert check_render("1 + x^-2 + O(x^-3)", geo, 3)               # a term skipped
    assert check_render("1 + x^-1 + O(x^-3)", geo, 3)               # O past a term
    assert check_render("1 + x^-1 + O(x^-2)", geo, 3)               # O too early
    assert check_render("1 + x^-1 + O(x^-2)", geo, 3, 2) is None    # ... unless allowed
    assert check_render("1 + x^-1 + x^-2", geo, 3)                  # infinite, no O
    assert check_render("1 + x^-1 + x^-2 + x^-3 + O(x^-4)", geo, 3)  # too many terms
    finite = Terms([(1, 2, 0), (5, 1, 0), (4, 0, 0)])
    assert check_render("x^2 + 5*x + 4", finite, 8) is None
    assert check_render("x^2 + 5*x + 4 + O(x^-16)", finite, 8) is None
    assert check_render("x^2 + 5*x", finite, 8)                      # a term dropped
    odd = Terms([(1, -(2 * j + 1), 0) for j in range(8)])
    truncated = [{"coeff": "1", "monomial": "x^-1"}, {"coeff": "1", "monomial": "x^-3"}]
    assert check_json_terms(truncated, odd, 4)
    assert workloads._is_known_truncation((0, json.dumps({"terms": truncated})))
    assert not workloads._is_known_truncation((0, json.dumps({"terms": truncated[:1]})))
    log_form = oracle.taylor_form("log(x)", "x", "1", 1, 2, 8)
    assert check_render("log(x) + x^-1 - 1/2*x^-2 + 1/3*x^-3 + O(x^-4)", log_form, 4) is None
    assert check_render("log(x) + x^-1 + 1/2*x^-2 + 1/3*x^-3 + O(x^-4)", log_form, 4)
    assert check_render("log(x) + x^-1 - 1/2*x^-2 + O(x^-3)", log_form, 4)
    mixed = oracle.render_deep_form("exp(x + 1/x)/(1 - 1/log(x))", 1, 1, 4)
    assert check_render("exp(x) + log(x)^-1*exp(x) + O(log(x)^-2*exp(x))", mixed, 2) is None
    print("ok oracles reject wrong outputs")


def check_no_kernel() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "render_deep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=Path(tmp))
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok exits non-zero without the kernel")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracles()
    check_harness(config)
    check_no_kernel()
    return 0


if __name__ == "__main__":
    sys.exit(main())
