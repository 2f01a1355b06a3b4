"""perfbench's tracer wraps each name of ``tracing.COEFF_CALLABLES`` on every
``CoefficientSet`` it sees built.  Every constructor in spdelab must build a
set that has each of those names, or every traced benchmark run fails."""

import sys
from pathlib import Path

import numpy as np
import pytest

from spdelab import filtering, model
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.picard import NonlinearSources, frozen_source_coefficients
from spdelab.solver import Trajectory

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _from_fields_1d():
    return CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)


def _from_fields_2d():
    return CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5), b=(0.3, -0.2),
                                      sigma=[(0.5, 0.3)])


def _zakai():
    sc = filtering.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
    return filtering.zakai_coefficients(sc)


def _frozen_source():
    grid = Grid.line(-4, 4, 32)
    traj = Trajectory(grid=grid, times=np.array([2e-3]), fields=[],
                      mass_series=np.zeros(3), l2_series=np.zeros(3), dt=1e-3,
                      full_history=np.zeros((3, grid.npts)))
    return frozen_source_coefficients(_from_fields_1d(), NonlinearSources.sin_of_u(0.1),
                                      traj)


@pytest.mark.parametrize("build", [_from_fields_1d, _from_fields_2d, _zakai,
                                   _frozen_source],
                         ids=["from_fields-1d", "from_fields-2d", "zakai",
                              "frozen_source"])
def test_tracer_wraps_every_set_and_uninstalls(build):
    init = model.CoefficientSet.__init__
    tracer = tracing.Tracer("coefficients")
    tracer.install()
    try:
        coeffs = build()
        for name in tracing.COEFF_CALLABLES:
            fn = getattr(coeffs, name)
            assert fn is None or getattr(fn, tracing._MARK) == "model.coeff_eval", name
    finally:
        tracer.uninstall()
    assert model.CoefficientSet.__init__ is init
