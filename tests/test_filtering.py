import dataclasses

import numpy as np
import pytest

from spdelab import filtering as flt
from spdelab import solver
from spdelab.errors import (ConfigurationError, OracleNotApplicableError,
                            StabilityError, ValidationError)
from spdelab.grids import Grid
from spdelab.solver import SolverConfig

KB = dict(A=-0.5, Q=1.0, H=1.0, R=1.0)


def kb_scenario():
    return flt.FilterScenario.linear_gaussian(**KB)


def kb_truth(seed=42, n_steps=400, dt=1e-3):
    return flt.simulate_truth(kb_scenario(), seed, n_steps, dt)


class TestZakaiCoefficients:
    def test_unit_sigma_hat(self):
        sc = kb_scenario()
        truth = kb_truth(n_steps=10)
        cs = flt.zakai_coefficients(sc, truth.y_path, truth.dt)
        X = np.linspace(-2, 2, 7)[:, None]
        assert np.allclose(cs.a(0.0, X)[:, 0, 0], 0.5)
        # divergence-form drift slot carries d_j a - b_hat = -A x
        assert np.allclose(cs.b(0.0, X)[:, 0], -KB["A"] * X[:, 0])
        drift = flt.fokker_planck_drift(sc, truth.y_path, truth.dt, 0.0, X)
        assert np.allclose(drift[:, 0], KB["A"] * X[:, 0])

    def test_h_is_scaled_observation_drift(self):
        sc = flt.FilterScenario.linear_gaussian(A=0.0, Q=1.0, H=1.0, R=2.0)

        def b_tilde(t, X, y):
            return X  # b_tilde(x) = x
        sc.b_tilde = b_tilde
        truth = flt.simulate_truth(sc, 1, 5, 1e-3)
        cs = flt.zakai_coefficients(sc, truth.y_path, truth.dt)
        X = np.linspace(-1, 1, 5)[:, None]
        assert np.allclose(cs.h(0.0, X)[:, 0], X[:, 0] / 2.0)

    def test_state_dependent_diffusion_drift_correction(self):
        # sigma_hat = x: a = x^2/2, d_x a = x, so the paper-sign drift is
        # b_hat - x
        sc = kb_scenario()
        sc.sigma_hat = lambda t, X, y: X[:, :, None] * np.ones((1, 1, 1))
        sc.da_hook = None
        sc.static_coefficients = True
        truth = kb_truth(n_steps=5)
        X = np.linspace(0.5, 2, 7)[:, None]
        cs = flt.zakai_coefficients(sc, truth.y_path, truth.dt)
        assert np.allclose(cs.a(0.0, X)[:, 0, 0], X[:, 0] ** 2 / 2, atol=1e-12)
        drift = flt.fokker_planck_drift(sc, truth.y_path, truth.dt, 0.0, X)
        assert np.allclose(drift[:, 0], KB["A"] * X[:, 0] - X[:, 0], atol=1e-8)


class TestSimulateTruth:
    def test_bbar_equals_btilde_increments_when_no_drift(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.3, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 3, 50, 1e-3)
        # h = 0: bbar is the raw observation driver; y = bbar cumulated
        assert np.allclose(np.diff(truth.y_path[:, 0]),
                           truth.bbar_increments[:, 0], atol=0)

    def test_frozen_signal_when_degenerate(self):
        sc = flt.FilterScenario.linear_gaussian(A=0.0, Q=0.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 5, 40, 1e-3)
        assert np.allclose(truth.x_path[:, 0], truth.x_path[0, 0], atol=0)

    def test_girsanov_bookkeeping_round_trip(self):
        # power-of-two sigma_tilde: reconstruction is floating-point exact
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=2.0)
        truth = flt.simulate_truth(sc, 9, 64, 1e-3)
        y = np.zeros(65)
        for n in range(64):
            y[n + 1] = y[n] + 2.0 * truth.bbar_increments[n, 0]
        assert np.array_equal(y, truth.y_path[:, 0])
        # differencing the accumulated path rounds at one ulp of |y|
        recovered = np.diff(truth.y_path[:, 0]) / 2.0
        tol = 4 * np.finfo(float).eps * np.max(np.abs(truth.y_path))
        assert np.max(np.abs(recovered - truth.bbar_increments[:, 0])) <= tol

    def test_ou_mean_matches_moments_oracle(self):
        sc = kb_scenario()
        T, dt = 0.25, 1e-2
        n = int(T / dt)
        xs = np.array([flt.simulate_truth(sc, s, n, dt).x_path[-1, 0]
                       for s in range(10_000)])
        target = 0.0 * np.exp(KB["A"] * T)  # prior mean 0
        stderr = xs.std() / np.sqrt(len(xs))
        assert abs(xs.mean() - target) < 3 * stderr
        # variance check too: P solves dP = 2AP + Q^2
        var_target = (1 + (np.exp(2 * KB["A"] * T) - 1)) * np.exp(0)  # exact OU var
        var_target = np.exp(2 * KB["A"] * T) * 1.0 + (np.exp(2 * KB["A"] * T) - 1) \
            * KB["Q"] ** 2 / (2 * KB["A"]) * -1
        var_target = np.exp(2 * KB["A"] * T) + KB["Q"] ** 2 * \
            (1 - np.exp(2 * KB["A"] * T)) / (-2 * KB["A"])
        se_var = np.std(xs**2) / np.sqrt(len(xs))
        assert abs(xs.var() - var_target) < 3 * se_var + 2 * dt

    def test_explosion_guard(self):
        sc = kb_scenario()
        sc.b_hat = lambda t, X, y: 80.0 * np.ones_like(X)
        with pytest.raises(flt.ScenarioError):
            flt.simulate_truth(sc, 1, 200, 1e-2, x_bound=4.0)


class TestRunZakai:
    def test_no_observation_reduces_to_fokker_planck(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 11, 250, 1e-3)
        grid = Grid.line(-8, 8, 256)
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=1e-3))
        assert np.max(np.abs(res.mass_series - 1.0)) < 1e-12
        # OU density stays gaussian: mean -> m0 e^{At}, var -> stationary
        mean, var = res.posterior_moments()
        t = 0.25
        assert abs(mean[-1]) < 0.05
        v_exact = np.exp(2 * KB["A"] * t) + (1 - np.exp(2 * KB["A"] * t))
        assert var[-1] == pytest.approx(v_exact, abs=0.02)

    def test_pi_snapshots_normalized(self):
        truth = kb_truth()
        grid = Grid.line(-8, 8, 256)
        res = flt.run_zakai(kb_scenario(), truth, grid, SolverConfig(dt=1e-3))
        for f in res.pi.fields:
            assert f.mass() == pytest.approx(1.0, abs=1e-12)

    def test_mass_martingale_identity(self):
        truth = kb_truth(n_steps=200)
        grid = Grid.line(-8, 8, 256)
        sc = kb_scenario()
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=1e-3))
        cs = flt.zakai_coefficients(sc, truth.y_path, truth.dt)
        pts = grid.points()
        vol = grid.cell_volume
        hv = cs.h(0.0, pts)[:, 0]
        defects = []
        for n in range(truth.n_steps):
            u_n = res.u.full_history[n]
            predicted = (u_n @ hv) * vol * truth.bbar_increments[n, 0]
            defects.append(res.mass_series[n + 1] - res.mass_series[n] - predicted)
        assert np.max(np.abs(defects)) < 1e-12

    def test_normalization_idempotent_bit_exact(self):
        grid = Grid.line(-4, 4, 64)
        rng = np.random.default_rng(0)
        v = np.abs(rng.standard_normal(grid.npts)) + 0.1
        once = flt.normalize(v, grid)
        twice = flt.normalize(once, grid)
        assert np.array_equal(once, twice)

    def test_innovation_matches_definition(self):
        truth = kb_truth(n_steps=100)
        grid = Grid.line(-8, 8, 256)
        sc = kb_scenario()
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=1e-3))
        pts = grid.points()
        vol = grid.cell_volume
        n = 40
        u_n = res.u.full_history[n]
        cs = flt.zakai_coefficients(sc, truth.y_path, truth.dt)
        pi_h = (u_n @ cs.h(0, pts)[:, 0]) * vol / res.mass_series[n]
        expected = truth.bbar_increments[n, 0] - pi_h * truth.dt
        assert res.innovations[n, 0] == pytest.approx(expected, abs=0)


class TestParticle:
    def test_unit_weights_without_observation(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 2, 50, 1e-3)
        est, se = flt.particle_estimate(sc, truth, 500, lambda X: np.ones(len(X)), 123)
        assert est == 1.0
        assert se == 0.0

    def test_minimum_population(self):
        truth = kb_truth(n_steps=5)
        with pytest.raises(ConfigurationError):
            flt.particle_estimate(kb_scenario(), truth, 50, lambda X: X[:, 0], 1)

    def test_pde_particle_cross_validation(self):
        sc = kb_scenario()
        truth = flt.simulate_truth(sc, 42, 500, 1e-3)
        grid = Grid.line(-8, 8, 256)
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=1e-3))
        x = grid.x
        vol = grid.cell_volume
        uT = res.u.full_history[-1]
        for phi_grid, phi_part in [
                (np.ones_like(x), lambda X: np.ones(len(X))),
                (x, lambda X: X[:, 0])]:
            pde = float(uT @ phi_grid) * vol
            est, se = flt.particle_estimate(sc, truth, 40_000, phi_part, 7)
            assert abs(pde - est) < 3 * se + 0.01


class TestKushner:
    def test_reduces_to_fokker_planck_without_observation(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 11, 200, 1e-3)
        grid = Grid.line(-8, 8, 256)
        cfg = SolverConfig(dt=1e-3, store_every=1)
        pi_traj = flt.run_kushner(sc, truth, grid, cfg)
        res = flt.run_zakai(sc, truth, grid, cfg)
        gap = max(grid.l1(a.values - b.values)
                  for a, b in zip(pi_traj.fields, res.pi.fields))
        assert gap < 1e-12

    def test_tracks_normalized_zakai_first_order(self):
        sc = kb_scenario()
        grid = Grid.line(-8, 8, 256)
        gaps = []
        for factor in (1, 2):
            dt = 1e-3 / factor
            truth = flt.simulate_truth(sc, 42, 250 * factor, dt)
            if factor == 1:
                bbar_fine = None
            cfg = SolverConfig(dt=dt, store_every=1)
            pi_traj = flt.run_kushner(sc, truth, grid, cfg)
            res = flt.run_zakai(sc, truth, grid, cfg)
            gap = max(grid.l1(a.values - b.values)
                      for a, b in zip(pi_traj.fields, res.pi.fields))
            gaps.append(gap)
        # consistency: both solve the same dynamics; gap is O(dt)-small.
        assert gaps[0] < 5 * (1e-3 + grid.hs[0] ** 2) * 10
        assert gaps[0] > 0

    def test_mass_exactly_one(self):
        truth = kb_truth(n_steps=150)
        grid = Grid.line(-8, 8, 256)
        pi_traj = flt.run_kushner(kb_scenario(), truth, grid, SolverConfig(dt=1e-3))
        for f in pi_traj.fields:
            assert f.mass() == pytest.approx(1.0, abs=1e-12)


class TestKushnerStabilityGuard:
    """The Zakai coefficients carry sigma = 0 and a = sigma_hat sigma_hat^T / 2,
    so check_stability cannot fail on a filter scenario; stand-in guards pin
    that the Kushner filter consults it where the Zakai path does."""

    @staticmethod
    def install(monkeypatch, guard):
        monkeypatch.setattr(solver, "check_stability", guard)
        monkeypatch.setattr(flt, "check_stability", guard)

    @pytest.mark.parametrize("static", [True, False])
    def test_guard_runs_where_zakai_runs_it(self, monkeypatch, static):
        sc = dataclasses.replace(kb_scenario(), static_coefficients=static)
        truth = kb_truth(n_steps=20)
        grid = Grid.line(-8, 8, 64)
        calls = {}
        for name, run in (("zakai", flt.run_zakai), ("kushner", flt.run_kushner)):
            seen = calls[name] = []
            self.install(monkeypatch, lambda cs, g, t, dt, seen=seen: seen.append((g, t, dt)))
            run(sc, truth, grid, SolverConfig(dt=truth.dt))
        assert calls["kushner"] == calls["zakai"]
        assert len(calls["zakai"]) == (1 if static else 1 + truth.n_steps)

    @pytest.mark.parametrize("static", [True, False])
    def test_dt_rejected_by_zakai_is_rejected_by_kushner(self, monkeypatch, static):
        def guard(cs, g, t, dt):
            if dt > 5e-4:
                raise StabilityError(f"dt={dt} violates the budget", suggested_dt=5e-4)
        self.install(monkeypatch, guard)
        sc = dataclasses.replace(kb_scenario(), static_coefficients=static)
        grid = Grid.line(-8, 8, 64)
        coarse = flt.simulate_truth(sc, 42, 20, 1e-3)
        fine = flt.simulate_truth(sc, 42, 20, 5e-4)
        for run in (flt.run_zakai, flt.run_kushner):
            with pytest.raises(StabilityError):
                run(sc, coarse, grid, SolverConfig(dt=coarse.dt))
            run(sc, coarse, grid, SolverConfig(dt=coarse.dt, stability_guard=False))
            run(sc, fine, grid, SolverConfig(dt=fine.dt))


class TestKalmanBucy:
    def test_steady_state_variance(self):
        # Riccati transient at T=3 is ~(P0-Pinf) e^{-2.24 T} ~ 4e-4
        sc = kb_scenario()
        truth = flt.simulate_truth(sc, 4, 3000, 1e-3)
        m, P = flt.kalman_bucy_oracle(sc, truth)
        target = (-1 + np.sqrt(5)) / 2
        assert P[-1] == pytest.approx(target, abs=1e-3)
        assert abs(P[-1] - target) < abs(P[len(P) // 3] - target)

    def test_no_information_decouples(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 4, 500, 1e-3)
        m, P = flt.kalman_bucy_oracle(sc, truth)
        t = truth.n_steps * truth.dt
        exact = np.exp(2 * KB["A"] * t) + (1 - np.exp(2 * KB["A"] * t))
        assert P[-1] == pytest.approx(exact, abs=1e-8)

    def test_separable_riccati_case(self):
        sc = flt.FilterScenario.linear_gaussian(A=0.0, Q=0.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 4, 1000, 1e-3)
        m, P = flt.kalman_bucy_oracle(sc, truth)
        ts = np.arange(truth.n_steps + 1) * truth.dt
        assert np.allclose(P, 1.0 / (1.0 + ts), atol=1e-9)

    def test_nonlinear_scenario_rejected(self):
        sc = kb_scenario()
        sc.linear = None
        truth = kb_truth(n_steps=5)
        with pytest.raises(OracleNotApplicableError):
            flt.kalman_bucy_oracle(sc, truth)

    def test_pde_tracks_oracle(self):
        # pathwise O(dt) agreement; the constant is seed-dependent, this is
        # the shipped-scenario realization
        sc = kb_scenario()
        truth = flt.simulate_truth(sc, 12, 2000, 5e-4)
        grid = Grid.line(-8, 8, 512)
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=5e-4))
        m, P = flt.kalman_bucy_oracle(sc, truth)
        mean, var = res.posterior_moments()
        assert np.max(np.abs(mean - m)) < 0.02
        assert np.max(np.abs(var - P)) < 0.02


class TestScenarioValidation:
    def test_prior_must_be_normalized(self):
        sc = kb_scenario()
        sc.pi0 = lambda X: 2.0 * np.exp(-X[:, 0] ** 2 / 2) / np.sqrt(2 * np.pi)
        grid = Grid.line(-8, 8, 128)
        with pytest.raises(ValidationError, match="mass"):
            sc.validate(grid, [(0.0, np.zeros(1))])

    def test_singular_sigma_tilde_rejected(self):
        with pytest.raises(ValidationError):
            flt.FilterScenario.linear_gaussian(A=0.0, Q=1.0, H=1.0, R=0.0)

    def test_soft_bound_report(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        sc.K = 0.5  # declared bound deliberately too small
        grid = Grid.line(-8, 8, 64)
        rep = sc.validate(grid, [(0.0, np.zeros(1))])
        assert rep["soft_violations"]
