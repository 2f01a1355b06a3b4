"""Spans around spdelab's public functions, installed from outside the package.

A Tracer patches every binding of each traced function in every loaded
``spdelab`` module (names imported with ``from .solver import ...`` are bound
in several namespaces), the two methods of ``solver._ImplicitSystem`` (the
factorization happens in its constructor, the per-step solve in ``solve``),
the quadrature methods of ``Grid``, and the callables of every
``CoefficientSet`` constructed while it is installed.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer metrics and ``write`` dumps
them once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

COEFF_CALLABLES = ("a", "b", "c", "sigma", "h", "f", "g", "sigma_hat",
                   "da", "div_b", "div_sigma", "grad_h")
_MARK = "__perfbench_span__"


def busy_time(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent index) rows; a parent index of
    -1 marks a root.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = busy_time((max(s, start), min(e, end))
                            for s, e in children[i] if min(e, end) > max(s, start))
        out.append((end - start) - covered)
    return out


def tail_percentile(values):
    """(p, value) for the highest of p99.9/p99/p95/p90/p75/p50 that has at
    least ten samples above it, or None when there are fewer than 20."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(round(p * n / 100.0, 9)) - 1     # nearest-rank index
        if k >= 0 and n - 1 - k >= 10:
            return p, xs[k]
    return None


def _bound_arguments(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Records spans (name, start, end, parent, run id) at layer boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """fn inside a span; ``name`` is a string or a function of the call's
        arguments, ``count(counts, fn, args, kwargs, result)`` adds counters."""
        if getattr(fn, _MARK, None) is not None:
            return fn
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            rec = [span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, fn, args, kwargs, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module, attr, name, count=None):
        """Replace ``module.attr`` and every other spdelab binding of it."""
        orig = getattr(module, attr)
        new = self.wrap(orig, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "spdelab" or mod_name.startswith("spdelab."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, new)

    def install(self):
        from spdelab import (cli, commutator, config, diagnostics, filtering,
                             grids, manifest, model, noise, picard, solver)

        def steps(counts, fn, args, kwargs, traj):
            counts["solver.steps"] += traj.mass_series.size - 1

        def iterations(counts, fn, args, kwargs, result):
            counts["picard.iterations"] += len(result[1])

        def particle_steps(counts, fn, args, kwargs, result):
            bound = _bound_arguments(fn, args, kwargs)
            counts["filtering.particle_steps"] += bound["N"] * bound["truth"].n_steps

        def truth_steps(counts, fn, args, kwargs, truth):
            counts["filtering.truth_steps"] += truth.n_steps

        def bytes_written(counts, fn, args, kwargs, result):
            path = _bound_arguments(fn, args, kwargs)["path"]
            counts["manifest.bytes_written"] += os.path.getsize(path)

        def cli_name(args):
            argv = args[0] if args else None
            return f"cli.main.{argv[0] if argv else 'none'}"

        for module, attr, name, count in [
            (noise, "generate", "noise.generate", None),
            (solver, "solve", "solver.solve", steps),
            (solver, "assemble_generator", "solver.assemble_generator", None),
            (solver, "assemble_noise_op", "solver.assemble_noise_op", None),
            (solver, "check_stability", "solver.check_stability", None),
            (solver, "weak_residual", "solver.weak_residual", None),
            (diagnostics, "energy_report", "diagnostics.energy_report", None),
            (diagnostics, "check_positivity", "diagnostics.check_positivity", None),
            (diagnostics, "continuity_modulus", "diagnostics.continuity_modulus", None),
            (filtering, "particle_ensemble", "filtering.particle_ensemble", particle_steps),
            (filtering, "simulate_truth", "filtering.simulate_truth", truth_steps),
            (filtering, "run_zakai", "filtering.run_zakai", None),
            (filtering, "run_kushner", "filtering.run_kushner", None),
            (filtering, "kalman_bucy_oracle", "filtering.kalman_bucy_oracle", None),
            (picard, "picard_solve", "picard.picard_solve", iterations),
            (commutator, "convergence_sweep", "commutator.convergence_sweep", None),
            (config, "parse_config", "config.parse_config", None),
            (manifest, "write_csv", "manifest.write_csv", bytes_written),
            (cli, "main", cli_name, None),
        ]:
            self._patch_everywhere(module, attr, name, count)

        system = solver._ImplicitSystem
        self._patch(system, "__init__", self.wrap(system.__init__, "solver.factor"))
        self._patch(system, "solve", self.wrap(system.solve, "solver.implicit_solve"))
        # l1 goes through integrate; l2 sums on its own
        for attr in ("integrate", "l2"):
            self._patch(grids.Grid, attr,
                        self.wrap(getattr(grids.Grid, attr), "grids.integrate"))

        tracer = self
        coeff_init = model.CoefficientSet.__init__

        @functools.wraps(coeff_init)
        def init(obj, *args, **kwargs):
            coeff_init(obj, *args, **kwargs)
            for attr in COEFF_CALLABLES:
                fn = getattr(obj, attr)
                if fn is not None:
                    setattr(obj, attr, tracer.wrap(fn, "model.coeff_eval"))

        self._patch(model.CoefficientSet, "__init__", init)
        self.active = True

    def uninstall(self):
        self.active = False
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls, busy time and self time per span name, plus the counters."""
        selfs = self_times(self.spans)
        intervals = defaultdict(list)
        self_sum = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _), st in zip(self.spans, selfs):
            intervals[name].append((start, end))
            self_sum[name] += st
            calls[name] += 1
        out = {}
        for name in intervals:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy_time(intervals[name])
            out[f"{name}.self_s"] = self_sum[name]
        out.update(self.counts)
        out["diagnostics.energy_report.implicit_solves"] = self._count_under(
            "solver.implicit_solve", "diagnostics.energy_report")
        steps = self.counts.get("solver.steps", 0)
        for ratio, name in (("solver.assemble_per_step", "solver.assemble_generator"),
                            ("solver.factor_per_step", "solver.factor")):
            out[ratio] = calls.get(name, 0) / steps if steps else 0.0
        return out

    def _count_under(self, name, ancestor) -> int:
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def tails(self) -> dict:
        """Per span name: call count, median call time and the tail
        percentile of call times (see tail_percentile)."""
        durations = defaultdict(list)
        for name, start, end, _ in self.spans:
            durations[name].append(end - start)
        out = {}
        for name, ds in durations.items():
            ds.sort()
            out[name] = {"n": len(ds), "median_s": ds[len(ds) // 2],
                         "tail": tail_percentile(ds)}
        return out

    def write(self, path):
        """One JSON object per span: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
