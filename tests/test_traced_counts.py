"""A traced benchmark run must reproduce the counts its workload pins.

perfbench's ``--trace 1`` mode checks the span and counter totals of a run
against the counts the workload's body expects.  ``nonlinear-2d`` pins the
most of them (assemblies, factorizations, stability checks, solves), so it
runs here under the tracer, in process, at its default seed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
from workloads import Checks, Nonlinear2d  # noqa: E402


def test_nonlinear_2d_traced_counts_match_its_expectations(tmp_path):
    tracer = tracing.Tracer("counts")
    tracer.install()
    try:
        checks = Checks()
        inputs = checks.run(Nonlinear2d.setup, Nonlinear2d.default_seed, tmp_path)
        result = checks.run(Nonlinear2d.body, inputs, checks)
    finally:
        tracer.uninstall()
    assert result is not None, checks.rows
    _, expect = result
    layers = tracer.layer_metrics()
    assert {k: layers.get(k, 0) for k in expect} == expect
    assert checks.failed == 0, checks.rows
