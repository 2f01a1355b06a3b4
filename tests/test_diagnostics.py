import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab import diagnostics as diag
from spdelab import filtering as flt
from spdelab import noise, solver
from spdelab.errors import ConfigurationError, HypothesisError
from spdelab.families import ScalarField
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig, TestFunction

HYP_CLEAN = diag.Hypotheses(u0_nonneg=True, f_nonneg=True, g_zero=True)


def gaussian(grid, var=0.25):
    return np.exp(-grid.x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def still_path(n_steps, dt, L=1):
    return noise.BrownianPath(dt=dt, increments=np.zeros((n_steps, L)), seed=0)


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


def bumps():
    """Zero (None) or a gaussian bump."""
    return st.one_of(st.none(), st.builds(
        ScalarField, st.just("gaussian"), st.just(1), amp=st.floats(-1, 1),
        center=st.floats(-1, 1), width=st.floats(0.3, 1)))


@st.composite
def energy_sets(draw):
    """Random 1-d sets with one or two drivers, f and each g^l zero or a
    bump, under either build policy; a = 1/2 holds sum_l sigma_l^2 <= 2a."""
    L = draw(st.sampled_from([1, 2]))
    per_driver = st.lists(st.floats(-0.5, 0.5), min_size=L, max_size=L)
    cs = CoefficientSet.from_fields(
        d=1, L=L, a=0.5, b=draw(st.floats(-1, 1)), sigma=draw(per_driver),
        h=draw(per_driver), f=draw(bumps()),
        g=draw(st.lists(bumps(), min_size=L, max_size=L)))
    cs.time_dependent = draw(st.booleans())
    return cs


def reference_energy(cs, u0, grid, dt, path):
    """The step and the energy balance written out by hand, each with its own
    loop over the drivers: the solve's history, |sum_n defect_n| and the
    per-step defects."""
    def dot(x, y):
        return float(np.einsum("i,i->", x, y))
    N, vol = path.n_steps, grid.cell_volume
    step = solver.Stepper(cs, grid, dt, True)
    hist = [u0]
    for n in range(N):
        u = hist[n]
        step.at(n)
        rhs = u.copy()
        fv, gv, f_nonzero = step.sources(n)
        if f_nonzero:
            rhs += dt * fv
        for l in range(cs.L):
            if path.increments[n, l] != 0.0:
                rhs += (step.noise_op(l) @ u + gv[:, l]) * path.increments[n, l]
        hist.append(step.system.solve(rhs))
    check = solver.Stepper(cs, grid, dt, False)
    net, per_step = 0.0, np.zeros(N)
    for n in range(N):
        check.at(n)
        u = hist[n]
        fv, gv, forced = check.sources(n)
        w = np.zeros_like(u)
        for l in range(cs.L):
            dB = path.increments[n, l]
            if dB != 0.0:
                w += (check.noise_op(l) @ u + gv[:, l]) * dB
        ubar = check.system.solve(u + dt * fv)
        inner = dot(check.Lop @ ubar, ubar)
        if forced:
            inner += dot(fv, ubar)
        d = ((dot(hist[n + 1], hist[n + 1]) - dot(u, u)) * vol - 2.0 * dt * inner * vol
             - 2.0 * dot(u, w) * vol - dot(w, w) * vol)
        net += d
        per_step[n] = d
    return np.array(hist), abs(net), per_step


class TestEnergyReport:
    @settings(max_examples=20, deadline=None)
    @given(cs=energy_sets(), seed=st.integers(0, 2**16), skip=st.integers(2, 5))
    def test_matches_the_reference_loops_bitwise(self, cs, seed, skip):
        # driver 0 is still on every skip-th step, so its term is left out there
        grid, dt, N = Grid.line(-8, 8, 128), 1e-3, 20
        inc = noise.generate(seed, cs.L, N, dt).increments.copy()
        inc[::skip, 0] = 0.0
        path = noise.BrownianPath(dt=dt, increments=inc, seed=seed)
        u0 = gaussian(grid)
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=dt, store_every=1), path, [N * dt])
        rep = diag.energy_report(traj, cs, path)
        hist, measured, per_step = reference_energy(cs, u0, grid, dt, path)
        assert np.array_equal(traj.full_history, hist)
        assert rep.measured == measured
        assert np.array_equal(rep.extra["per_step"], per_step)

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


class TestDriverPath:
    """energy_report and weak_residual read the driver increment of every
    step of the trajectory: a path at another dt, shorter than the run, or
    with another driver count is refused, not misread."""

    N, DT = 64, 1e-3
    grid = Grid.line(-8, 8, 128)
    cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.4)
    CHECKS = {
        "energy_report": lambda traj, cs, path: diag.energy_report(traj, cs, path).measured,
        "weak_residual": lambda traj, cs, path: solver.weak_residual(
            traj, TestFunction.bump((0.0,), 2.0), cs, path),
    }
    BAD = {"shorter": (N - 1, DT, 1, "shorter than the requested horizon"),
           "coarser": (N, 4 * DT, 1, "differs from"),
           "two drivers": (N, DT, 2, "path has 2 drivers, coefficients need 1")}

    def run(self):
        path = noise.generate(7, 1, self.N, self.DT)
        traj = solver.solve(self.cs, gaussian(self.grid), self.grid,
                            SolverConfig(dt=self.DT, store_every=1), path,
                            [self.N * self.DT])
        return traj, path

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_mismatched_path_is_refused(self, check, bad):
        traj, _ = self.run()
        n_steps, dt, L, message = self.BAD[bad]
        with pytest.raises(ConfigurationError, match=message):
            self.CHECKS[check](traj, self.cs, noise.generate(7, L, n_steps, dt))

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_longer_path_reads_as_the_runs_own(self, check):
        traj, path = self.run()
        longer = noise.generate(7, 1, 2 * self.N, self.DT)
        longer = noise.BrownianPath(dt=self.DT, seed=0, increments=np.vstack(
            [path.increments, longer.increments[self.N:]]))
        assert self.CHECKS[check](traj, self.cs, longer) == \
            self.CHECKS[check](traj, self.cs, path)


class TestContinuityModulus:
    def test_empty_test_function_set_is_refused(self):
        _, _, _, traj = heat_run(n=64, dt=1e-3, T=0.064)
        with pytest.raises(ConfigurationError, match="at least one test function"):
            diag.continuity_modulus(traj, [])

    def test_zero_run_flat(self):
        # nothing moves, so no ratio forms: refused rather than a vacuous pass
        grid = Grid.line(-4, 4, 64)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = still_path(64, 1e-3)
        traj = solver.solve(cs, gaussian(grid), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [0.064])
        with pytest.raises(HypothesisError, match="no continuity ratio forms"):
            diag.continuity_modulus(traj, [TestFunction.bump((0.0,), 2.0)])

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
