"""Benchmark of the exact transseries kernel: one workload, one run.

    python3 bench/run.py --workload render_deep --seed 1 --seconds 12 --trace 0

Runs whole rounds of the workload's fixed query list, each round in a
fresh interpreter started from this process, until `--seconds` have
passed (at least three rounds); then, untraced, a dozen interpreters that
only set up, for more samples of `setup_s`.  Every round starts from the same
monomial intern table and `mono_cmp` cache.  Prints, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  With `--trace 0`, one more JSON line goes to
standard error: the wall and CPU seconds of every round, and the median
latency of every query.  Run from the repository root; the kernel is
imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("render_deep", "taylor_identity", "ring_laws", "cli_session")
MIN_ROUNDS = 3
# set-up takes well under 0.1 s, so a few rounds' worth of it is noisy; this
# many set-up-only interpreters add samples to its median
SETUP_SAMPLES = 12
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a fixed string-hash seed keeps set iteration, and with it every
    # layer count, identical from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload: str, seed: int, scale: str, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, *flags]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, scale: str, trace: bool) -> list:
    """Rounds until `seconds` have passed; with tracing, untraced and traced
    rounds alternate so the overhead is measured in the same run."""
    # compile the kernel's bytecode once, so no round pays for it
    subprocess.run([sys.executable, "-c", "import transseries.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=ROUND_TIMEOUT_S)
    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        res = run_round(workload, seed, scale, *(["--trace"] if traced else []))
        res["traced"] = traced
        rounds.append(res)
        whole = not trace or len(rounds) % 2 == 0
        if whole and len(rounds) >= (2 if trace else MIN_ROUNDS) \
                and time.monotonic() >= deadline:
            return rounds


def query_medians(rounds: list) -> list:
    """Each query's median latency over the rounds, in s."""
    return [statistics.median(ts) for ts in zip(*(r["latencies_s"] for r in rounds))]


def end_to_end(rounds: list, setups: list) -> dict:
    """Medians over the rounds (set-up also over `setups`); the p50 is the
    median over the queries of each query's median latency.  Medians,
    unlike minima, do not drift with the number of rounds that fit in a
    run."""
    values = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "query_p50_ms": 1000 * statistics.median(query_medians(rounds)),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def report(rounds: list) -> None:
    """On standard error: the rounds' process CPU seconds of the timed
    region next to their wall seconds, and each query's median latency."""
    print(json.dumps({
        "run_s": [r["run_s"] for r in rounds],
        "run_cpu_s": [r["run_cpu_s"] for r in rounds],
        "query_median_ms": [[label, 1000 * t] for label, t
                            in zip(rounds[0]["labels"], query_medians(rounds))],
    }), file=sys.stderr)


def per_layer(rounds: list) -> dict:
    """Counts from the first traced round (they repeat exactly), times as
    medians over the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["layers"]
    for r in traced[1:]:
        drift = {k for k, v in r["layers"].items()
                 if not k.endswith("_s") and k != "monomial.intern_hit_ratio" and v != first[k]}
        if drift:
            print(f"warning: layer counts differ between rounds: {sorted(drift)}",
                  file=sys.stderr)
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median(r["layers"][name] for r in traced)
            unit = "s"
        else:
            unit = "ratio" if name.endswith("_ratio") else "count"
        out[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the harness self-test")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the round
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "transseries" / "__init__.py").is_file():
        print(f"error: no kernel sources under {SRC}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
        setups = [] if args.trace else [
            run_round(args.workload, args.seed, args.scale, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(f"incorrect: {e}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, setups)
        report(rounds)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
