"""One round of one workload, in the fresh interpreter `run.py` starts.

Times the import of `transseries` plus the building of the workload's
inputs (set-up), then every query once (the round), then checks each
output against its oracle outside the timed region.  Prints one JSON
object on its last line of standard output.

    python3 bench/worker.py --workload render_deep --seed 1 [--trace] [--scale tiny]
        [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import workloads
from tracing import Tracer, monomial_state


def _is_known_fault(q, out) -> bool:
    if q.known_fault is None or isinstance(out, Exception):
        return False
    try:
        return q.known_fault(out)
    except Exception:  # a malformed output is not the known one
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone, for more samples of setup_s")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import transseries  # noqa: F401  (the import is part of set-up)
    if args.workload == "cli_session":
        import transseries.cli  # noqa: F401
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    queries = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    if tracer is not None:
        tracer.reset()
        before = monomial_state()
    outputs, latencies = [], []
    clock = time.perf_counter
    cpu_start = time.process_time()
    start = clock()
    for q in queries:
        t = clock()
        try:
            out = q.run()
        except Exception as err:  # a kernel error is a failed query, not a crash
            out = err
        latencies.append(clock() - t)
        outputs.append(out)
    run_s = clock() - start
    run_cpu_s = time.process_time() - cpu_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.metrics(before, monomial_state()) if tracer is not None else None

    failed, errors = 0, []
    for q, out in zip(queries, outputs):
        if isinstance(out, Exception):
            err = f"raised {type(out).__name__}: {out}"
        else:
            try:
                err = q.check(out)
            except Exception as exc:  # a malformed output
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failed += 1
            if not _is_known_fault(q, out):
                errors.append(f"{q.label}: {err}")
    print(json.dumps({
        "setup_s": setup_s, "run_s": run_s, "run_cpu_s": run_cpu_s,
        "labels": [q.label for q in queries], "latencies_s": latencies,
        "peak_rss_kb": peak_rss_kb, "attempted": len(queries), "failed": failed,
        "errors": errors, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
