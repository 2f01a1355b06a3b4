import math

import numpy as np
import pytest

from spdelab import noise, picard, solver
from spdelab.errors import (ConfigurationError, NonConvergenceError, ParseError,
                            ValidationError)
from spdelab.families import ScalarField
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.picard import NonlinearSources
from spdelab.solver import SolverConfig, TestFunction


def heat_setup(n=256, dt=1e-3, T=0.25, sigma=None, seed=5):
    grid = Grid.line(-8, 8, n)
    cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=sigma)
    n_steps = int(T / dt)
    path = noise.generate(seed, 1, n_steps, dt)
    if sigma is None:
        path = noise.BrownianPath(dt=dt, increments=np.zeros((n_steps, 1)), seed=seed)
    u0 = np.exp(-grid.x**2 / 0.5)
    return grid, cs, path, u0


class TestSources:
    @pytest.mark.parametrize("kind, coeff, message", [
        ("quadratic", 0.1, "unknown picard source kind 'quadratic'"),
        ("independent", 0.1, "unknown picard source kind 'independent'"),
        ("sin_of_u", math.nan, "picard source sin_of_u takes a finite coeff, got nan"),
        ("linear_in_u", -math.inf, "picard source linear_in_u takes a finite coeff"),
    ], ids=["unknown-kind", "independent-kind", "coeff-nan", "coeff-inf"])
    def test_refused_by_name(self, kind, coeff, message):
        with pytest.raises(ValidationError, match=message):
            NonlinearSources(kind, coeff)

    def test_independent_spec_names_the_coefficient_field(self):
        with pytest.raises(ParseError, match=r"\[coefficients\] f, with \[picard\] f = none"):
            NonlinearSources.from_spec("independent:f=gaussian:amp=1,width=0.5")


class TestPicardInputs:
    """The horizon, dt and driver count are checked before the first sweep."""

    @pytest.mark.parametrize("change", [
        {"output_times": [0.0104]},
        {"cfg": SolverConfig(dt=2e-3)},
        {"output_times": [0.03]},
        {"path": noise.generate(5, 2, 25, 1e-3)},
    ], ids=["off-grid-output-time", "dt-differs-from-path", "path-too-short",
            "wrong-driver-count"])
    def test_rejected_as_configuration_error(self, change):
        grid, cs, path, u0 = heat_setup(T=0.025)
        run = {"cfg": SolverConfig(dt=1e-3), "path": path, "output_times": [0.01]}
        run.update(change)
        with pytest.raises(ConfigurationError):
            picard.picard_solve(cs, NonlinearSources.sin_of_u(0.1), u0, grid,
                                run["cfg"], run["path"], output_times=run["output_times"])


class TestPicardSolve:
    def test_coefficient_source_needs_one_correction(self):
        grid, _, path, u0 = heat_setup()
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5,
                                        f=ScalarField("gaussian", 1, amp=0.2, width=0.5))
        traj, log = picard.picard_solve(cs, NonlinearSources("none", 0.0), u0, grid,
                                        SolverConfig(dt=1e-3), path, tol=1e-12)
        assert len(log) == 2
        assert log[1][1] <= 1e-12  # iterate 2 equals iterate 1
        lin = solver.solve(cs, u0, grid, SolverConfig(dt=1e-3, store_every=1), path, [0.25])
        assert np.array_equal(traj.full_history, lin.full_history)

    def test_sin_source_contracts(self):
        grid, cs, path, u0 = heat_setup()
        src = NonlinearSources.sin_of_u(0.1)
        traj, log = picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=1e-3),
                                        path, tol=1e-8, max_iter=60)
        assert log[-1][1] < 1e-8
        ratios = [r for _, _, r in log[1:] if np.isfinite(r)]
        assert max(ratios[-3:]) < 0.9

    def test_linear_absorption_matches_modified_linear_solve(self):
        lam = 0.2
        grid, cs, path, u0 = heat_setup()
        src = NonlinearSources.linear_in_u(lam)
        traj, log = picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=1e-3),
                                        path, tol=1e-12, max_iter=80)
        cs_absorbed = CoefficientSet.from_fields(d=1, L=1, a=0.5, c=lam)
        lin = solver.solve(cs_absorbed, u0, grid,
                           SolverConfig(dt=1e-3, store_every=1), path, [0.25])
        gap = np.max(np.sqrt(np.sum((traj.full_history - lin.full_history) ** 2, axis=1)
                             * grid.cell_volume))
        assert gap < 1e-8

    def test_iterate_energy_uniformly_bounded(self):
        grid, cs, path, u0 = heat_setup(sigma=1.0)
        src = NonlinearSources.sin_of_u(0.1)
        sup_norms = []
        orig_sweep = picard._linear_sweep

        def recording_sweep(*args, **kw):
            traj = orig_sweep(*args, **kw)
            sup_norms.append(np.max(traj.l2_series))
            return traj
        picard._linear_sweep = recording_sweep
        try:
            picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=1e-3), path,
                                tol=1e-8, max_iter=60)
        finally:
            picard._linear_sweep = orig_sweep
        assert max(sup_norms) / sup_norms[0] < 10.0

    def test_two_initial_guesses_agree(self):
        grid, cs, path, u0 = heat_setup()
        src = NonlinearSources.sin_of_u(0.1)
        tol = 1e-9
        cfg = SolverConfig(dt=1e-3)
        t1, _ = picard.picard_solve(cs, src, u0, grid, cfg, path, tol=tol)
        t0, _ = picard.picard_solve(cs, src, u0, grid, cfg, path, tol=tol,
                                    initial_guess=np.zeros(grid.npts))
        gap = np.max(np.sqrt(np.sum((t1.full_history - t0.full_history) ** 2, axis=1)
                             * grid.cell_volume))
        assert gap < 10 * tol

    @pytest.mark.parametrize("guess", [0.0, np.zeros(10)], ids=["scalar", "too-short"])
    def test_initial_guess_needs_one_value_per_point(self, guess):
        grid, cs, path, u0 = heat_setup(n=128, T=0.01)
        with pytest.raises(ConfigurationError, match="initial_guess does not match the grid"):
            picard.picard_solve(cs, NonlinearSources.sin_of_u(0.1), u0, grid,
                                SolverConfig(dt=1e-3), path, initial_guess=guess)

    def test_bitwise_reproducible(self):
        grid, cs, path, u0 = heat_setup(sigma=1.0)
        src = NonlinearSources.sin_of_u(0.1)
        cfg = SolverConfig(dt=1e-3)
        t1, log1 = picard.picard_solve(cs, src, u0, grid, cfg, path, tol=1e-8)
        t2, log2 = picard.picard_solve(cs, src, u0, grid, cfg, path, tol=1e-8)
        assert np.array_equal(t1.full_history, t2.full_history)
        assert log1 == log2

    def test_nonconvergence_carries_log(self):
        grid, cs, path, u0 = heat_setup()
        src = NonlinearSources.sin_of_u(0.1)
        with pytest.raises(NonConvergenceError) as exc:
            picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=1e-3), path,
                                tol=1e-8, max_iter=2)
        assert len(exc.value.log) == 2

    def test_frozen_source_solve_reproduces_the_iterate(self):
        # the frozen set reads the source at each step's endpoint, as the sweep does
        grid, cs, path, u0 = heat_setup(n=512, dt=5e-4, sigma=0.3, seed=101)
        src = NonlinearSources.sin_of_u(0.1)
        traj, _ = picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=5e-4), path,
                                      tol=1e-10)
        frozen = picard.frozen_source_coefficients(cs, src, traj)
        lin = solver.solve(frozen, u0, grid, SolverConfig(dt=5e-4, store_every=1), path,
                           [0.25])
        gap = np.max(np.sqrt(np.sum((traj.full_history - lin.full_history) ** 2, axis=1)
                             * grid.cell_volume))
        assert gap <= 1e-12

    def test_frozen_residual_small(self):
        grid, cs, path, u0 = heat_setup(n=512, dt=5e-4)
        src = NonlinearSources.sin_of_u(0.1)
        traj, _ = picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=5e-4),
                                      path, tol=1e-10, output_times=[0.125, 0.25])
        frozen = picard.frozen_source_coefficients(cs, src, traj)
        phi = TestFunction.bump((0.0,), 4.0)
        res = solver.weak_residual(traj, phi, frozen, path)
        assert res < 5e-3
