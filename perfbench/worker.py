"""One measured sample of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --run-id ID

Imports spdelab from the checkout's ``src``, builds the inputs from the seed,
runs the body once and prints one JSON line: the monotonic clock reading at
the first call into the body (the parent subtracts its spawn time to get
set-up time), the body's wall time, this process's peak RSS, the oracle
error, every check with the repr of its measured value and, when traced, the
per-layer metrics and the trace self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_spdelab():
    sys.path.insert(0, str(SRC))
    import spdelab
    if Path(spdelab.__file__).resolve().parent != SRC / "spdelab":
        raise SystemExit(f"spdelab was imported from {spdelab.__file__}, not {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-id", default="0")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _import_spdelab()
    import numpy
    import scipy

    import tracing
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()
    checks = Checks(acceptance_seed=args.seed == wl.default_seed)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    inputs = checks.run(wl.setup, args.seed, workdir)

    body_start = time.monotonic()
    t0, c0 = time.perf_counter(), time.process_time()
    result = checks.run(wl.body, inputs, checks) if inputs is not None else None
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle_err, expect = result if result is not None else (float("nan"), {})
    traced = {}
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        mismatches = {k: [v, layers.get(k, 0)] for k, v in expect.items()
                      if layers.get(k, 0) != v}
        checks.true("trace-self-check", result is not None and not mismatches,
                    mismatches or None)
        traced = {"layers": layers, "tails": tracer.tails()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({"body_start": body_start, "wall_s": wall_s, "cpu_s": cpu_s,
                      "peak_rss_mb": peak_rss_mb, "oracle_err": oracle_err,
                      "checks": checks.rows, **traced,
                      "env": {"python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
