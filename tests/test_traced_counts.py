"""A traced benchmark run must reproduce the counts its workload pins.

perfbench's ``--trace 1`` mode checks the span and counter totals of a run
against the counts the workload's body expects.  ``nonlinear-2d`` pins the
most of them (assemblies, factorizations, stability checks, solves),
``transport-1d`` its solves, energy re-solves and weak residuals, and
``filter-1d`` its Zakai and Kushner solves, particle steps and truths.  Each
runs here under the tracer, in process, at its default seed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


@pytest.mark.parametrize("name", ["transport-1d", "filter-1d", "nonlinear-2d"])
def test_traced_counts_match_the_workloads_expectations(tmp_path, name):
    workload = WORKLOADS[name]
    tracer = tracing.Tracer("counts")
    tracer.install()
    try:
        checks = Checks()
        inputs = checks.run(workload.setup, workload.default_seed, tmp_path)
        result = checks.run(workload.body, inputs, checks)
    finally:
        tracer.uninstall()
    assert result is not None, checks.rows
    _, expect = result
    layers = tracer.layer_metrics()
    assert {k: layers.get(k, 0) for k in expect} == expect
    assert checks.failed == 0, checks.rows
