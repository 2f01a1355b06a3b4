"""Results that must not depend on the thread count.

OpenBLAS splits a gemv or a dot product across threads above a size
threshold, and the split changes the summation order.  Each case in
``CASES`` runs in a fresh interpreter at OPENBLAS_NUM_THREADS=1 and 2 and
prints the sha256 of its result bytes.

The particle cloud is stepped in blocks on a pool of worker threads
(``filtering.particle_ensemble``); ``TestParticleWorkers`` checks that the
workers keep the caller's numpy error state, that the cloud does not depend
on how many workers there are, and that the blocks draw different normals.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdelab
from spdelab import filtering as flt

CASES = {
    # the per-step moments of a Zakai run on more than 10 000 points
    "zakai-moments": """
from spdelab import filtering as flt
from spdelab.grids import Grid
from spdelab.solver import SolverConfig
sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
truth = flt.simulate_truth(sc, 12, 50, 1e-3)
res = flt.run_zakai(sc, truth, Grid.line(-8, 8, 12000), SolverConfig(dt=1e-3))
mean, var = res.posterior_moments()
out = mean.tobytes() + var.tobytes()
""",
    # the per-step L2 series of a solve on more than 10 000 points
    "l2-series": """
from spdelab import filtering as flt
from spdelab.grids import Grid
from spdelab.solver import SolverConfig
sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
truth = flt.simulate_truth(sc, 12, 50, 1e-3)
res = flt.run_zakai(sc, truth, Grid.line(-8, 8, 12000), SolverConfig(dt=1e-3))
out = res.u.l2_series.tobytes()
""",
    # the energy defect of a 20-step solve on more than 10 000 points
    "energy-defect": """
import numpy as np
from spdelab import diagnostics, noise, solver
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig
grid = Grid.line(-8, 8, 12000)
cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.03)
path = noise.generate(5, 1, 20, 1e-3)
traj = solver.solve(cs, np.exp(-grid.x ** 2 / 0.5), grid,
                    SolverConfig(dt=1e-3, store_every=1), path, [0.02])
rep = diagnostics.energy_report(traj, cs, path)
out = repr(rep.measured).encode() + rep.extra["per_step"].tobytes()
""",
    # the weak residual of that solve
    "weak-residual": """
import numpy as np
from spdelab import noise, solver
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig, TestFunction
grid = Grid.line(-8, 8, 12000)
cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.03)
path = noise.generate(5, 1, 20, 1e-3)
traj = solver.solve(cs, np.exp(-grid.x ** 2 / 0.5), grid,
                    SolverConfig(dt=1e-3, store_every=1), path, [0.02])
out = repr(solver.weak_residual(traj, TestFunction.bump((0.0,), 4.0), cs, path)).encode()
""",
    # the final Kushner density on more than 10 000 points
    "kushner": """
from spdelab import filtering as flt
from spdelab.grids import Grid
from spdelab.solver import SolverConfig
sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
truth = flt.simulate_truth(sc, 12, 50, 1e-3)
traj = flt.run_kushner(sc, truth, Grid.line(-8, 8, 12000), SolverConfig(dt=1e-3))
out = traj.fields[-1].values.tobytes()
""",
    # the modulus of a 5001 x 2048 history
    "continuity-modulus": """
import numpy as np
from spdelab import diagnostics
from spdelab.grids import Grid
from spdelab.solver import TestFunction, Trajectory
grid = Grid.line(-8, 8, 2048)
hist = np.random.default_rng(3).standard_normal((5001, grid.npts))
traj = Trajectory(grid=grid, times=np.array([0.25]), fields=[],
                  mass_series=np.zeros(5001), l2_series=np.zeros(5001), dt=5e-5,
                  full_history=hist)
rep = diagnostics.continuity_modulus(
    traj, [TestFunction.bump((0.0,), 4.0), TestFunction.bump((1.0,), 3.0)])
out = repr((rep.measured, rep.extra["moduli"])).encode()
""",
    # a time-dependent 2-d solve at the widest band factored as one, along
    # the shorter first axis: gbtrf updates the band with BLAS-3 calls every
    # step
    "banded-2d": """
import numpy as np
from spdelab import noise, solver
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig
k = solver.BANDED_MAX_K
grid = Grid.box2d((-4, -4), (4, 4), (k - 1, 96))
base = CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5), b=(0.3, -0.2),
                                  sigma=[(0.5, 0.3)])
cs = CoefficientSet(2, 1, lambda t, x: base.a(t, x) * (1 + 10 * t), base.b, base.c,
                    base.sigma, base.h, base.f, base.g, time_dependent=True)
u0 = np.exp(-np.sum(grid.points() ** 2, axis=1) / 0.5)
traj = solver.solve(cs, u0, grid, SolverConfig(dt=1e-3, store_every=1),
                    noise.generate(4, 1, 6, 1e-3), [6e-3])
out = traj.full_history.tobytes()
""",
}


def _digest(script: str, threads: int) -> str:
    src = str(Path(spdelab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = script + "\nimport hashlib\nprint(hashlib.sha256(out).hexdigest())\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_bytes_at_one_and_two_blas_threads(case):
    assert _digest(CASES[case], 1) == _digest(CASES[case], 2)


class TestParticleWorkers:
    def test_workers_keep_the_callers_error_state(self):
        # h * h overflows in the first step; a worker thread starts from
        # numpy's default state, which only warns
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1, H=1, R=1,
                                                prior_mean=1e200, prior_var=1)
        truth = flt.simulate_truth(sc, 3, 20, 1e-3)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                flt.particle_ensemble(sc, truth, 200, 5)

    def test_one_worker_gives_the_same_bytes(self, monkeypatch):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, 300, 1e-3)
        cloud = flt.particle_ensemble(sc, truth, 1001, 7)
        monkeypatch.setattr(flt, "_usable_cores", lambda: 1)
        alone = flt.particle_ensemble(sc, truth, 1001, 7)
        for a, b in zip(cloud, alone):
            assert a.tobytes() == b.tobytes()

    def test_blocks_draw_different_normals(self):
        # with no drift and no sensor every particle is its prior draw plus
        # its summed noise, so blocks on one stream would repeat values
        sc = flt.FilterScenario.linear_gaussian(A=0.0, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, 50, 1e-3)
        N = 100 * flt.PARTICLE_BLOCKS
        X, _ = flt.particle_ensemble(sc, truth, N, 7)
        assert np.unique(X).size == N
