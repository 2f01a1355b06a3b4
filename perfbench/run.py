"""spdelab benchmark driver.

    python3 perfbench/run.py --workload transport-1d --seed 101 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seeds

Each sample runs one workload body in a fresh worker process (so peak RSS
belongs to that sample alone); samples repeat until the next one would end
after ``--seconds``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json (medians over the samples); with
``--trace 1`` untraced and traced samples alternate and it carries the
per-layer metrics, including the tracing overhead.  The line before it is
the run's record: environment, every sample, and the repr of every checked
value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170          # a run must end within 180 s, hung worker included


def worker_env():
    """Environment with BLAS/OpenMP pools capped at the usable core count."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env, {"nproc": nproc, **{v: env[v] for v in THREAD_VARS}}


def run_sample(workload, seed, traced, run_id, env, timeout):
    """One worker process; returns its record, or None if it did not finish."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--run-id", run_id]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["body_start"] - spawned
    rec["traced"] = traced
    return rec


def checked_values(rec):
    return [(r["name"], r.get("measured")) for r in rec["checks"]
            if r["name"] != "trace-self-check"] + [("oracle_err", repr(rec["oracle_err"]))]


def measure(workload, seed, seconds, trace):
    """Sample until the next sample would end after ``seconds``; returns
    (values by metric name, correct, attempted, failed, record)."""
    env, caps = worker_env()
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2
    start = time.monotonic()
    samples, lost, rounds = [], 0, 0
    while True:
        for traced in modes:
            rec = run_sample(workload, seed, traced, f"{os.getpid()}-{len(samples) + lost}",
                             env, start + RUN_LIMIT_S - time.monotonic())
            if rec is None:
                lost += 1
            else:
                samples.append(rec)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    plain = [r for r in samples if not r["traced"]]
    traced = [r for r in samples if r["traced"]]
    if not plain or (trace and not traced):
        return None

    gated = [c for r in samples for c in r["checks"] if c["gated"]]
    attempted = lost + len(gated)
    failed = lost + sum(not c["passed"] for c in gated)
    deterministic = all(checked_values(r) == checked_values(samples[0]) for r in samples)
    failed += not deterministic
    attempted += 1

    def med(key, recs):
        return statistics.median(r[key] for r in recs)

    values = {"wall_s": med("wall_s", plain), "setup_s": med("setup_s", plain),
              "peak_rss_mb": med("peak_rss_mb", plain), "oracle_err": plain[0]["oracle_err"]}
    if trace:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"].get(key, 0) for r in traced)
        values["trace.overhead_s"] = med("wall_s", traced) - values["wall_s"]
    record = {"workload": workload, "seed": seed, "trace": trace, "env": {**plain[0]["env"], **caps},
              "samples": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                          for r in samples],
              "lost_samples": lost, "deterministic": deterministic,
              "oracle_err": repr(plain[0]["oracle_err"]), "checks": plain[0]["checks"]}
    if trace:
        record["trace_self_check"] = [c for c in traced[0]["checks"]
                                      if c["name"] == "trace-self-check"]
        record["call_tails"] = traced[0]["tails"]
        selfs = [(v, k[:-len(".self_s")]) for k, v in traced[0]["layers"].items()
                 if k.endswith(".self_s")]
        record["largest_self_s"] = [[k, v] for v, k in sorted(selfs, reverse=True)[:3]]
    return values, failed == 0, attempted, failed, record


def metric_block(spec, values, trace):
    names = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance seed of the workload)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "spdelab" / "__init__.py").is_file():
        print(f"no spdelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    all_ok = True
    for name in names:
        seed = args.seed if args.seed is not None else WORKLOADS[name].default_seed
        out = measure(name, seed, seconds, bool(args.trace))
        if out is None:
            print(f"{name}: no sample finished", file=sys.stderr)
            return 1
        values, correct, attempted, failed, record = out
        all_ok &= correct
        metrics = metric_block(spec, values, bool(args.trace))
        record_path = ROOT / ".bench_out" / f"result-{name}-seed{seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=1) + "\n")
        if len(names) > 1:
            for key, m in metrics.items():
                print(f"{name:13s} {key:45s} {m['value']!r:>24} {m['unit']}")
        print(json.dumps(record))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    return 0 if all_ok or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
