import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab import filtering as flt
from spdelab import solver
from spdelab.errors import (ConfigurationError, OracleNotApplicableError,
                            ScenarioError, StabilityError, ValidationError)
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
        # the forward-form drift b_hat - d_j a^{ij} is -b
        assert np.allclose(-cs.b(0.0, X)[:, 0], KB["A"] * X[:, 0])

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
        assert np.allclose(-cs.b(0.0, X)[:, 0], KB["A"] * X[:, 0] - X[:, 0], atol=1e-8)


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
        sc.b_hat = lambda t, X, y: np.full_like(X, np.inf)
        with pytest.raises(flt.ScenarioError, match="exploded at step 0"):
            flt.simulate_truth(sc, 1, 200, 1e-2)


class TestRunZakai:
    def test_no_observation_reduces_to_fokker_planck(self):
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=0.0, R=1.0)
        truth = flt.simulate_truth(sc, 11, 250, 1e-3)
        grid = Grid.line(-8, 8, 256)
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=1e-3))
        assert np.max(np.abs(res.u.mass_series - 1.0)) < 1e-12
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
            assert grid.integrate(f.values) == pytest.approx(1.0, abs=1e-12)

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
            defects.append(res.u.mass_series[n + 1] - res.u.mass_series[n] - predicted)
        assert np.max(np.abs(defects)) < 1e-12

    def test_normalization_idempotent_bit_exact(self):
        grid = Grid.line(-4, 4, 64)
        rng = np.random.default_rng(0)
        v = np.abs(rng.standard_normal(grid.npts)) + 0.1
        once = flt.normalize(v, grid)
        twice = flt.normalize(once, grid)
        assert np.array_equal(once, twice)


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

    def test_weight_overflow_raises(self):
        sc = flt.FilterScenario.linear_gaussian(A=-1, Q=2, H=3, R=0.2,
                                                prior_mean=-2, prior_var=4)
        truth = flt.simulate_truth(sc, 7, 1000, 1e-3)
        with np.errstate(over="raise"):     # numpy's overflow is not the signal
            with pytest.raises(ScenarioError, match="1204 of 2000"):
                flt.particle_ensemble(sc, truth, 2000, 7)

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

    def test_theta_half_keeps_explicit_generator_term(self):
        # without (1 - theta) dt L pi on the right-hand side the theta = 1/2
        # gap to normalized Zakai is 7.0e-3 against 1.4e-3 at theta = 1
        sc = kb_scenario()
        truth = flt.simulate_truth(sc, 12, 250, 1e-3)
        grid = Grid.line(-8, 8, 256)
        gaps = {}
        for theta in (1.0, 0.5):
            cfg = SolverConfig(dt=1e-3, theta=theta)
            pi_traj = flt.run_kushner(sc, truth, grid, cfg)
            res = flt.run_zakai(sc, truth, grid, cfg)
            gaps[theta] = max(grid.l1(a.values - b.values)
                              for a, b in zip(pi_traj.fields, res.pi.fields))
        assert gaps[0.5] <= 1.2 * gaps[1.0]

    def test_mass_exactly_one(self):
        truth = kb_truth(n_steps=150)
        grid = Grid.line(-8, 8, 256)
        pi_traj = flt.run_kushner(kb_scenario(), truth, grid, SolverConfig(dt=1e-3))
        for f in pi_traj.fields:
            assert grid.integrate(f.values) == pytest.approx(1.0, abs=1e-12)


class TestKushnerStabilityGuard:
    """The Zakai coefficients carry sigma = 0 and a = sigma_hat sigma_hat^T / 2,
    so check_stability cannot fail on a filter scenario; stand-in guards pin
    that the Kushner filter consults it where the Zakai path does."""

    @staticmethod
    def install(monkeypatch, guard):
        monkeypatch.setattr(solver, "check_stability", guard)

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
            run(sc, fine, grid, SolverConfig(dt=fine.dt))


@pytest.mark.parametrize("run", [flt.run_zakai, flt.run_kushner], ids=["zakai", "kushner"])
def test_dt_other_than_the_observation_step_is_rejected(run):
    truth = kb_truth(n_steps=20)
    with pytest.raises(ConfigurationError, match="differs"):
        run(kb_scenario(), truth, Grid.line(-8, 8, 64), SolverConfig(dt=2 * truth.dt))


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

    @pytest.mark.parametrize("prior", [
        dict(prior_mean=np.nan), dict(prior_mean=np.inf), dict(prior_var=-1.0),
        dict(prior_var=0.0), dict(prior_var=np.inf), dict(prior_var=np.nan)],
        ids=["mean-nan", "mean-inf", "var-negative", "var-0", "var-inf", "var-nan"])
    def test_bad_prior_rejected(self, prior):
        with pytest.raises(ValidationError, match="prior"):
            flt.FilterScenario.linear_gaussian(**KB, **prior)


# -- reference oracles ---------------------------------------------------------
# The particle step with plain matmuls and a fresh noise array per step, and
# the Kalman-Bucy loop on numpy scalars: the forms the production oracles
# must reproduce.

def reference_particle_ensemble(sc, truth, N, seed):
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(7,))))
    X = sc.prior_sampler(rng, N)
    logw = np.zeros(N)
    dt = truth.dt
    sq = np.sqrt(dt)
    for n in range(truth.n_steps):
        t = n * dt
        y = truth.y_path[n]
        st_inv = np.linalg.inv(np.asarray(sc.sigma_tilde(t, y), float))
        hX = np.asarray(sc.b_tilde(t, X, y), float) @ st_inv.T
        logw += hX @ truth.bbar_increments[n] - 0.5 * np.sum(hX**2, axis=1) * dt
        bh = np.asarray(sc.b_hat(t, X, y), float)
        sh = np.asarray(sc.sigma_hat(t, X, y), float)
        dW = rng.standard_normal((N, sc.d)) * sq
        X = X + bh * dt + np.einsum("nij,nj->ni", sh, dW)
    return X, np.exp(logw)


def reference_kalman_bucy(sc, truth):
    A, Q, H, R, m0, P0 = sc.linear
    dt = truth.dt
    n = truth.n_steps
    m = np.empty(n + 1)
    P = np.empty(n + 1)
    m[0], P[0] = m0, P0

    def pdot(p):
        return 2 * A * p + Q * Q - p * p * H * H / (R * R)

    for k in range(n):
        dy = truth.y_path[k + 1, 0] - truth.y_path[k, 0]
        gain = P[k] * H / (R * R)
        m[k + 1] = m[k] + A * m[k] * dt + gain * (dy - H * m[k] * dt)
        k1 = pdot(P[k])
        k2 = pdot(P[k] + 0.5 * dt * k1)
        k3 = pdot(P[k] + 0.5 * dt * k2)
        k4 = pdot(P[k] + dt * k3)
        P[k + 1] = P[k] + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return m, P


def scenario_2d(a_drift, q, h_obs, r_obs, mean, chol):
    """Linear-Gaussian d = d1 = 2 scenario with full matrices."""
    A, Qm, H, R = (np.asarray(v, float) for v in (a_drift, q, h_obs, r_obs))
    mean, chol = np.asarray(mean, float), np.asarray(chol, float)
    cov_inv = np.linalg.inv(chol @ chol.T)

    def pi0(X):
        z = X - mean
        quad = np.einsum("ni,ij,nj->n", z, cov_inv, z)
        return np.exp(-0.5 * quad) / (2 * np.pi * abs(np.linalg.det(chol)))

    return flt.FilterScenario(
        d=2, d1=2, b_hat=lambda t, X, y: X @ A.T,
        sigma_hat=lambda t, X, y: np.broadcast_to(Qm, (X.shape[0], 2, 2)),
        b_tilde=lambda t, X, y: X @ H.T,
        sigma_tilde=lambda t, y: R + 0.1 * np.tanh(y[0]) * np.eye(2),
        pi0=pi0, prior_sampler=lambda rng, n: mean + rng.standard_normal((n, 2)) @ chol.T)


linear_1d = st.fixed_dictionaries({
    "A": st.floats(-2, 2), "Q": st.floats(0, 2), "H": st.floats(-2, 2),
    "R": st.floats(0.2, 2) | st.floats(-2, -0.2),
    "prior_mean": st.floats(-3, 3), "prior_var": st.floats(0.1, 4)})


class TestOracleReferences:
    @settings(max_examples=25, deadline=None)
    @given(params=linear_1d, seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(0, 300), N=st.integers(100, 400))
    def test_1d_oracles_match_references_bytewise(self, params, seed, n_steps, N):
        sc = flt.FilterScenario.linear_gaussian(**params)
        truth = flt.simulate_truth(sc, seed, n_steps, 1e-3)
        for new, ref in zip(flt.kalman_bucy_oracle(sc, truth),
                            reference_kalman_bucy(sc, truth)):
            assert new.tobytes() == ref.tobytes()
        with np.errstate(over="ignore"):
            new = flt.particle_ensemble(sc, truth, N, seed)
            ref = reference_particle_ensemble(sc, truth, N, seed)
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 200),
           N=st.integers(100, 300))
    def test_2d_particles_match_reference(self, seed, n_steps, N):
        sc = scenario_2d([[-0.5, 0.3], [0.1, -1.0]], [[1.0, 0.0], [0.4, 0.6]],
                         [[1.0, 0.5], [-0.3, 2.0]], [[1.0, 0.2], [0.0, 0.7]],
                         [0.5, -1.0], [[1.0, 0.0], [0.3, 0.5]])
        truth = flt.simulate_truth(sc, seed, n_steps, 1e-3)
        X, w = flt.particle_ensemble(sc, truth, N, seed)
        X_ref, w_ref = reference_particle_ensemble(sc, truth, N, seed)
        np.testing.assert_allclose(X, X_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)

    def test_sampler_output_is_not_mutated(self):
        sc = kb_scenario()
        drawn = []

        def sampler(rng, n):
            drawn.append(rng.standard_normal((n, 1)))
            return drawn[-1]
        sc.prior_sampler = sampler
        flt.particle_ensemble(sc, kb_truth(n_steps=5), 100, 3)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=3, spawn_key=(7,))))
        assert drawn[0].tobytes() == rng.standard_normal((100, 1)).tobytes()


class TestDeclaredPrior:
    @pytest.mark.parametrize("prior", [
        dict(), dict(prior_mean=1.5, prior_var=0.5),
        dict(prior_var=900.0), dict(prior_mean=45.0)],
        ids=["standard", "shifted", "wide", "off-centre"])
    def test_oracle_starts_from_the_declared_prior(self, prior):
        # a window quadrature would truncate the wide and off-centre priors
        sc = flt.FilterScenario.linear_gaussian(**KB, **prior)
        m, P = flt.kalman_bucy_oracle(sc, kb_truth(n_steps=20))
        declared = [prior.get("prior_mean", 0.0), prior.get("prior_var", 1.0)]
        assert np.array([m[0], P[0]]).tobytes() == np.array(declared).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(params=linear_1d)
    def test_declared_moments_match_a_quadrature_of_pi0(self, params):
        sc = flt.FilterScenario.linear_gaussian(**params)
        xs = np.linspace(-40, 40, 400_001)
        p0 = sc.pi0(xs[:, None])
        mass = np.trapezoid(p0, xs)
        mean = np.trapezoid(p0 * xs, xs) / mass
        var = np.trapezoid(p0 * (xs - mean) ** 2, xs) / mass
        assert abs(mass - 1.0) <= 1e-9
        assert abs(mean - params["prior_mean"]) <= 1e-9
        assert abs(var - params["prior_var"]) <= 1e-9
