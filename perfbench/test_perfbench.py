"""Unit tests of the benchmark's own bookkeeping: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from spdelab import filtering, solver  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["a.leaf", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0],
             ["other-root", 11.0, 12.0, -1]]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_busy_time_merges_nested_and_overlapping_intervals():
    assert tracing.busy_time([(0, 4), (1, 2), (3, 6), (8, 9)]) == pytest.approx(7.0)
    assert tracing.busy_time([]) == 0.0


def test_layer_metrics_count_nested_spans_of_one_name_once():
    tr = tracing.Tracer("t")
    tr.spans = [["model.coeff_eval", 0.0, 2.0, -1],
                ["model.coeff_eval", 0.5, 1.5, 0],
                ["solver.implicit_solve", 3.0, 4.0, -1]]
    m = tr.layer_metrics()
    assert m["model.coeff_eval.calls"] == 2
    assert m["model.coeff_eval.s"] == pytest.approx(2.0)
    assert m["model.coeff_eval.self_s"] == pytest.approx(2.0)
    assert m["solver.implicit_solve.s"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, expected", [
    (19, None),                  # no percentile has ten samples above it
    (20, (50.0, 9)),
    (100, (90.0, 89)),
    (1000, (99.0, 989)),
    (10_000, (99.9, 9989)),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    got = tracing.tail_percentile(list(reversed(range(n))))
    assert got == expected
    if got is not None:
        assert sum(v > got[1] for v in range(n)) >= 10


def test_fail_frac_counts_an_exception_as_a_failure():
    checks = workloads.Checks()
    checks.le("fine", 1.0, 2.0)

    def body():
        checks.le("also-fine", 0.0, 1.0)
        raise RuntimeError("solver blew up")

    assert checks.run(body) is None
    assert (checks.attempted, checks.failed) == (3, 1)
    assert checks.fail_frac == pytest.approx(1 / 3)


def test_pinned_criteria_gate_only_at_the_acceptance_seed():
    for at_seed in (True, False):
        checks = workloads.Checks(acceptance_seed=at_seed)
        checks.le("invariant", 1.0, 2.0)
        checks.pinned("c1:transport-refinement-ratio", 3.0, 0.8)
        assert [r["gated"] for r in checks.rows] == [True, at_seed]
        assert checks.rows[1]["passed"] is False      # the verdict is recorded
        assert (checks.attempted, checks.failed) == ((2, 1) if at_seed else (1, 0))


def test_measured_values_keep_their_exact_repr():
    import numpy as np
    checks = workloads.Checks()
    checks.le("x", np.float64(0.1) + np.float64(0.2), 1.0)
    assert checks.rows[0]["measured"] == repr(0.1 + 0.2)


def test_tolerances_come_from_the_acceptance_module():
    tol = workloads.acceptance_tolerances()
    for key in ("c1:transport-rel-l2", "c1:transport-refinement-ratio",
                "c3:mass-conservation-*", "c5:kalman-mean-gap", "c5:kalman-var-gap",
                "c10:contraction-ratio"):
        assert key in tol


def test_wrappers_cover_imported_names_and_are_removed():
    from spdelab import diagnostics, picard
    originals = (solver.assemble_generator, filtering.assemble_generator,
                 picard.assemble_generator, diagnostics.assemble_generator,
                 solver._ImplicitSystem.__init__)
    tr = tracing.Tracer("t")
    tr.install()
    try:
        assert filtering.assemble_generator is solver.assemble_generator
        assert filtering.assemble_generator is not originals[0]
        assert diagnostics.assemble_generator is solver.assemble_generator
    finally:
        tr.uninstall()
    assert (solver.assemble_generator, filtering.assemble_generator,
            picard.assemble_generator, diagnostics.assemble_generator,
            solver._ImplicitSystem.__init__) == originals


def test_seed_shift_keeps_the_acceptance_seeds_at_the_default():
    assert workloads.shifted(7, 12, 12) == 7
    assert workloads.shifted(7, 13, 12) == 8
    assert workloads.shifted(7, 0, 12) == 2**32 - 5
