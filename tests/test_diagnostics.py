import numpy as np
import pytest

from spdelab import diagnostics as diag
from spdelab import filtering as flt
from spdelab import noise, solver
from spdelab.errors import HypothesisError
from spdelab.families import ScalarField
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig, TestFunction

HYP_CLEAN = diag.Hypotheses(u0_nonneg=True, f_nonneg=True, g_zero=True)


def gaussian(grid, var=0.25):
    return np.exp(-grid.x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def still_path(n_steps, dt, L=1):
    return noise.BrownianPath(L=L, n_steps=n_steps, dt=dt,
                              increments=np.zeros((n_steps, L)), seed=0)


def heat_run(n=512, dt=1e-4, T=0.25, store=1):
    grid = Grid.line(-8, 8, n)
    cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
    path = still_path(int(T / dt), dt)
    traj = solver.solve(cs, gaussian(grid), grid,
                        SolverConfig(dt=dt, store_every=store), path, [T])
    return grid, cs, path, traj


class TestPositivity:
    def test_heat_run_is_clean(self):
        _, _, _, traj = heat_run(n=256, dt=1e-3)
        rep = diag.check_positivity(traj, hypotheses=HYP_CLEAN)
        assert rep.passed and rep.measured == 0.0

    def test_transport_run_stays_clean(self):
        # shift of a positive profile; undershoot vanishes at the resolution
        # the shipped scenario uses
        grid = Grid.line(-8, 8, 1024)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        path = noise.generate(3, 1, 2500, 1e-4)
        traj = solver.solve(cs, gaussian(grid), grid,
                            SolverConfig(dt=1e-4, store_every=1), path, [0.25])
        rep = diag.check_positivity(traj, hypotheses=HYP_CLEAN)
        assert rep.passed and rep.measured <= 1e-10

    def test_drift_dominated_coarse_run_fails(self):
        # negative control: central drift stencil undershoots at coarse h
        grid = Grid.line(-4, 4, 32)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=0.01, b=ScalarField("affine", 1, slope=-3.0))
        path = still_path(200, 1e-3)
        u0 = np.zeros(grid.npts)
        u0[grid.npts // 2] = 1.0 / grid.hs[0]
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=1e-3, store_every=1),
                            path, [0.2])
        rep = diag.check_positivity(traj, hypotheses=HYP_CLEAN)
        assert not rep.passed
        assert rep.measured > rep.threshold

    def test_hypothesis_gate(self):
        _, _, _, traj = heat_run(n=256, dt=1e-3)
        with pytest.raises(HypothesisError):
            diag.check_positivity(traj, hypotheses=diag.Hypotheses(u0_nonneg=True))


class TestL1Report:
    def test_conservative_run_sharp(self):
        # u >= 0, c = 0, h = 0, f = 0: sup_t ||u_t||_1 is ||u_0||_1
        grid, cs, path, traj = heat_run(n=256, dt=1e-3)
        l1 = np.sum(np.abs(traj.full_history), axis=1) * grid.cell_volume
        assert np.max(l1) == pytest.approx(l1[0], rel=1e-12)

    def test_decay_with_negative_c(self):
        grid = Grid.line(-6, 6, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, c=-1.0)
        dt, T = 1e-3, 0.5
        path = still_path(int(T / dt), dt)
        u0 = gaussian(grid)
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=dt, store_every=1),
                            path, [T])
        l1 = np.sum(np.abs(traj.full_history), axis=1) * grid.cell_volume
        ts = traj.step_times
        assert np.max(np.abs(l1 - np.exp(-ts) * l1[0])) < 2 * dt * T

    def test_source_adds_mass_linearly(self):
        grid = Grid.line(-6, 6, 256)
        f = ScalarField("gaussian", 1, amp=0.1, width=0.5)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, f=f)
        dt, T = 1e-3, 0.2
        path = still_path(int(T / dt), dt)
        u0 = gaussian(grid)
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=dt), path, [T])
        fk = grid.integrate(f(grid.points()))
        expected = traj.mass_series[0] + fk * traj.step_times
        assert np.max(np.abs(traj.mass_series - expected)) < 1e-10


class TestEnergyReport:
    def test_zero_coefficients_defect_zero(self):
        grid = Grid.line(-4, 4, 64)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = still_path(100, 1e-3)
        traj = solver.solve(cs, gaussian(grid), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [0.1])
        rep = diag.energy_report(traj, cs, path)
        assert rep.measured < 1e-14

    def test_heat_defect_small_and_halving(self):
        defects = []
        for dt in (2e-4, 1e-4):
            grid, cs, path, traj = heat_run(n=512, dt=dt)
            rep = diag.energy_report(traj, cs, path)
            defects.append(rep.measured)
        assert defects[1] < 1e-3
        assert 1.6 < defects[0] / defects[1] < 2.4

    def test_stochastic_halving_on_coarsened_path(self):
        grid = Grid.line(-8, 8, 256)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=0.5, b=ScalarField("affine", 1, slope=0.5),
            h=ScalarField("affine", 1, slope=1.0))
        fine = noise.generate(5, 1, 1000, 2.5e-4)
        coarse = noise.coarsen(fine, 2)
        res = []
        for path in (coarse, fine):
            cfg = SolverConfig(dt=path.dt, store_every=1)
            traj = solver.solve(cs, gaussian(grid), grid, cfg, path, [0.25])
            res.append(diag.energy_report(traj, cs, path).measured)
        assert 1.6 < res[0] / res[1] < 2.4

    def test_degenerate_ensemble_mean_energy_drift(self):
        grid = Grid.line(-8, 8, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        drifts = []
        for seed in range(16):
            path = noise.generate(200 + seed, 1, 250, 1e-3)
            traj = solver.solve(cs, gaussian(grid), grid, SolverConfig(dt=1e-3),
                                path, [0.25])
            drifts.append(traj.energy_series[-1] / traj.energy_series[0] - 1.0)
        assert abs(np.mean(drifts)) < 0.01


class TestContinuityModulus:
    def test_zero_run_flat(self):
        grid = Grid.line(-4, 4, 64)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = still_path(64, 1e-3)
        traj = solver.solve(cs, gaussian(grid), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [0.064])
        rep = diag.continuity_modulus(traj, [TestFunction.bump((0.0,), 2.0)])
        assert rep.measured == 0.0
        assert rep.passed

    def test_heat_is_linear_in_spacing(self):
        _, _, _, traj = heat_run(n=256, dt=5e-4, T=0.256)
        rep = diag.continuity_modulus(traj, [TestFunction.bump((0.0,), 4.0)])
        assert rep.passed
        lv = rep.extra["moduli"]["phi0"]
        assert 1.6 < lv[0] / lv[1] < 2.4 and 1.6 < lv[1] / lv[2] < 2.4

    def test_zakai_scales_like_sqrt_spacing(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, 2048, 5e-4)
        grid = Grid.line(-8, 8, 256)
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=5e-4, store_every=1))
        rep = diag.continuity_modulus(res.u,
                                      [TestFunction.bump((0.0,), 4.0),
                                       TestFunction.bump((0.5,), 3.0)])
        assert rep.passed
        lv = rep.extra["moduli"]["phi0"]
        ratios = [a / b for a, b in zip(lv, lv[1:])]
        assert 1.2 < np.median(ratios) < 1.7
