import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.sparse import identity
from scipy.sparse.linalg import splu

from spdelab import filtering as flt
from spdelab import solver
from spdelab.errors import ConfigurationError, ScenarioError, StabilityError, ValidationError
from spdelab.grids import Grid
from spdelab.solver import SolverConfig

KB = dict(A=-0.5, Q=1.0, H=1.0, R=1.0)


def kb_scenario():
    return flt.FilterScenario.linear_gaussian(**KB)


def kb_truth(seed=42, n_steps=400, dt=1e-3):
    return flt.simulate_truth(kb_scenario(), seed, n_steps, dt)


class TestZakaiCoefficients:
    def test_unit_diffusion(self):
        cs = flt.zakai_coefficients(kb_scenario())
        X = np.linspace(-2, 2, 7)[:, None]
        assert np.allclose(cs.a(0.0, X)[:, 0, 0], 0.5)
        # divergence-form drift slot carries d_j a - b_hat = -A x
        assert np.allclose(cs.b(0.0, X)[:, 0], -KB["A"] * X[:, 0])
        # the forward-form drift A x - d_x a is -b
        assert np.allclose(-cs.b(0.0, X)[:, 0], KB["A"] * X[:, 0])

    def test_h_is_scaled_observation_drift(self):
        cs = flt.zakai_coefficients(
            flt.FilterScenario.linear_gaussian(A=0.0, Q=1.0, H=1.0, R=2.0))
        X = np.linspace(-1, 1, 5)[:, None]
        assert np.allclose(cs.h(0.0, X)[:, 0], X[:, 0] / 2.0)

    @pytest.mark.parametrize("R", [1.0, 2.0])
    @pytest.mark.parametrize("A, Q, H", [(-0.5, 1.0, 1.0), (0.3, 0.7, -1.3),
                                         (-1.7, 1e-3, 2.9), (0.0, 0.0, 0.0)])
    def test_declared_fields_give_the_closure_bytes(self, A, Q, H, R):
        # the callable model's formulas: a = sigma_hat sigma_hat^T / 2,
        # b = d_x a - b_hat and h = b_tilde sigma_tilde^{-1}
        cs = flt.zakai_coefficients(flt.FilterScenario.linear_gaussian(A, Q, H, R))
        X = np.linspace(-8, 8, 257)[:, None]
        zeros = np.zeros(len(X))
        sh = np.full((len(X), 1, 1), Q)
        closures = {"a": 0.5 * np.einsum("mik,mjk->mij", sh, sh),
                    "b": np.zeros_like(X) - A * X,
                    "h": (H * X) @ np.linalg.inv([[R]]).T,
                    "c": zeros, "f": zeros, "sigma": np.zeros((len(X), 1, 1)),
                    "g": np.zeros((len(X), 1)), "da": np.zeros_like(X)}
        for name, ref in closures.items():
            got = getattr(cs, name)(0.0, X)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
        assert not cs.time_dependent


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
        # power-of-two R: reconstruction is floating-point exact
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
        # A x dt is finite at step 0 and overflows at step 1
        huge = flt.FilterScenario.linear_gaussian(A=1e308, Q=1.0, H=1.0, R=1.0)
        with pytest.raises(flt.ScenarioError, match="exploded at step 1"):
            flt.simulate_truth(huge, 1, 200, 1e-2)


class TestCoarsenTruth:
    def test_keeps_every_kth_state_and_sums_the_drivers(self):
        truth = kb_truth(n_steps=400, dt=2.5e-4)
        coarse = flt.coarsen_truth(truth, 2)
        assert coarse.x_path.tobytes() == truth.x_path[::2].tobytes()
        assert coarse.y_path.tobytes() == truth.y_path[::2].tobytes()
        pairs = truth.bbar_increments[0::2] + truth.bbar_increments[1::2]
        assert coarse.bbar_increments.tobytes() == pairs.tobytes()
        assert (coarse.n_steps, coarse.dt, coarse.seed) == (200, 5e-4, truth.seed)

    @pytest.mark.parametrize("k", [0, 3])
    def test_factor_must_divide_the_steps(self, k):
        with pytest.raises(ConfigurationError, match="does not divide 400"):
            flt.coarsen_truth(kb_truth(n_steps=400), k)


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

    @pytest.mark.parametrize("n, n_steps, dt", [(256, 250, 1e-3), (512, 2000, 5e-4)])
    def test_moments_divide_by_the_recorded_mass(self, n, n_steps, dt):
        # posterior_moments reads u.mass_series, the same bits as summing
        # the history again, and the x-sums taken as the solve runs, the
        # same bits as the einsum reductions over the history, with or
        # without a kept history
        grid = Grid.line(-8, 8, n)
        res = flt.run_zakai(kb_scenario(), kb_truth(12, n_steps, dt), grid,
                            SolverConfig(dt=dt, store_every=1))
        hist = res.u.full_history
        x, vol, mass = grid.x, grid.cell_volume, res.u.mass_series
        assert np.array_equal(hist.sum(axis=1) * vol, mass)
        sums = np.array([(np.einsum("i,i->", u, x), np.einsum("i,i->", u, x * x))
                         for u in hist])
        assert res.x_sums.tobytes() == sums.tobytes()
        mean = sums[:, 0] * vol / mass
        var = sums[:, 1] * vol / mass - mean**2
        got = res.posterior_moments()
        assert got[0].tobytes() == mean.tobytes() and got[1].tobytes() == var.tobytes()
        streamed = flt.run_zakai(kb_scenario(), kb_truth(12, n_steps, dt), grid,
                                 SolverConfig(dt=dt))
        assert streamed.x_sums.tobytes() == sums.tobytes()

    def test_default_run_keeps_no_history(self):
        # 4001 steps x 1024 points would be a 33 MB history
        sc = kb_scenario()
        truth = flt.simulate_truth(sc, 12, 4000, 2.5e-4)
        grid = Grid.line(-8, 8, 1024)
        tracemalloc.start()
        try:
            res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=2.5e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.u.full_history is None
        assert res.x_sums.shape == (4001, 2)
        assert peak < 4 * 2**20

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
        res = flt.run_zakai(sc, truth, grid, SolverConfig(dt=1e-3, store_every=1))
        cs = flt.zakai_coefficients(sc)
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
        X, w = flt.particle_ensemble(sc, truth, 500, 123)
        est, se = flt.weighted_estimate(X, w, lambda X: np.ones(len(X)))
        assert est == 1.0
        assert se == 0.0

    def test_minimum_population(self):
        truth = kb_truth(n_steps=5)
        with pytest.raises(ConfigurationError):
            flt.particle_ensemble(kb_scenario(), truth, 50, 1)

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
        uT = res.u.fields[-1].values
        X, w = flt.particle_ensemble(sc, truth, 40_000, 7)
        for phi_grid, phi_part in [
                (np.ones_like(x), lambda X: np.ones(len(X))),
                (x, lambda X: X[:, 0])]:
            pde = float(uT @ phi_grid) * vol
            est, se = flt.weighted_estimate(X, w, phi_part)
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

    def test_step_is_backward_euler_with_the_innovation_source(self):
        # pi_{n+1} = normalize((I - dt L)^-1 (pi_n + (h - pi_n(h)) pi_n dBcheck_n)):
        # the generator is all implicit, the innovation source all explicit
        sc = kb_scenario()
        truth = kb_truth(n_steps=5)
        grid = Grid.line(-8, 8, 128)
        hist = flt.run_kushner(sc, truth, grid,
                               SolverConfig(dt=truth.dt, store_every=1)).full_history
        cs = flt.zakai_coefficients(sc)
        pts = grid.points()
        lu = splu((identity(grid.npts, format="csc")
                    - truth.dt * solver.assemble_generator(cs, grid, 0.0)).tocsc())
        hv = cs.h(0.0, pts)[:, 0]
        pi = flt.normalize(sc.pi0(pts), grid)
        assert hist[0].tobytes() == pi.tobytes()
        for n, dB in enumerate(truth.bbar_increments[:, 0]):
            pi_h = grid.integrate(hv * pi)
            pi = flt.normalize(lu.solve(pi + (hv - pi_h) * pi * (dB - pi_h * truth.dt)), grid)
            assert np.max(np.abs(hist[n + 1] - pi)) <= 1e-12 * np.max(pi)

    def test_mass_exactly_one(self):
        truth = kb_truth(n_steps=150)
        grid = Grid.line(-8, 8, 256)
        pi_traj = flt.run_kushner(kb_scenario(), truth, grid, SolverConfig(dt=1e-3))
        for f in pi_traj.fields:
            assert grid.integrate(f.values) == pytest.approx(1.0, abs=1e-12)


class TestKushnerStabilityGuard:
    """The Zakai coefficients carry sigma = 0 and a = Q^2 / 2, so
    check_stability cannot fail on a filter scenario; stand-in guards pin
    that the Kushner filter consults it where the Zakai path does."""

    @staticmethod
    def install(monkeypatch, guard):
        monkeypatch.setattr(solver, "check_stability", guard)

    def test_guard_runs_where_zakai_runs_it(self, monkeypatch):
        sc = kb_scenario()
        truth = kb_truth(n_steps=20)
        grid = Grid.line(-8, 8, 64)
        calls = {}
        for name, run in (("zakai", flt.run_zakai), ("kushner", flt.run_kushner)):
            seen = calls[name] = []
            self.install(monkeypatch, lambda cs, g, t, dt, seen=seen: seen.append((g, t, dt)))
            run(sc, truth, grid, SolverConfig(dt=truth.dt))
        assert calls["kushner"] == calls["zakai"]
        assert len(calls["zakai"]) == 1

    def test_dt_rejected_by_zakai_is_rejected_by_kushner(self, monkeypatch):
        def guard(cs, g, t, dt):
            if dt > 5e-4:
                raise StabilityError(f"dt={dt} violates the budget", suggested_dt=5e-4)
        self.install(monkeypatch, guard)
        sc = kb_scenario()
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
        # the prior N(45, 1) has no mass on [-8, 8]
        sc = flt.FilterScenario.linear_gaussian(**KB, prior_mean=45.0)
        with pytest.raises(ValidationError, match="mass"):
            sc.validate(Grid.line(-8, 8, 128))

    @pytest.mark.parametrize("run", [flt.run_zakai, flt.run_kushner],
                             ids=["zakai", "kushner"])
    def test_grid_that_cuts_the_prior_is_refused(self, run):
        # [-2, 2] holds 0.9545 of the N(0, 1) prior's mass
        truth = kb_truth(n_steps=20)
        with pytest.raises(ValidationError, match="prior mass 0.954"):
            run(kb_scenario(), truth, Grid.line(-2, 2, 64), SolverConfig(dt=truth.dt))

    def test_zero_observation_noise_rejected(self):
        with pytest.raises(ValidationError, match="R must be nonzero"):
            flt.FilterScenario.linear_gaussian(A=0.0, Q=1.0, H=1.0, R=0.0)

    @pytest.mark.parametrize("name", ["A", "Q", "H", "R"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, name, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            flt.FilterScenario.linear_gaussian(**{**KB, name: bad})

    @pytest.mark.parametrize("prior", [
        dict(prior_mean=np.nan), dict(prior_mean=np.inf), dict(prior_var=-1.0),
        dict(prior_var=0.0), dict(prior_var=np.inf), dict(prior_var=np.nan)],
        ids=["mean-nan", "mean-inf", "var-negative", "var-0", "var-inf", "var-nan"])
    def test_bad_prior_rejected(self, prior):
        with pytest.raises(ValidationError, match="prior"):
            flt.FilterScenario.linear_gaussian(**KB, **prior)


# -- reference oracles ---------------------------------------------------------
# The truth and particle loops with (A, Q, H, R) as 1 x 1 matrices, plain
# matmuls and a fresh noise array per step, and the Kalman-Bucy loop on numpy
# scalars: the forms the production loops must reproduce.

def matrices(sc):
    return [np.array([[float(v)]]) for v in (sc.A, sc.Q, sc.H, sc.R)]


def reference_truth(sc, seed, n_steps, dt):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    A, Q, H, R = matrices(sc)
    R_inv = np.linalg.inv(R)
    x = sc.prior_mean + np.sqrt(sc.prior_var) * rng.standard_normal((1, 1))[0]
    dW = rng.standard_normal((n_steps, 1)) * np.sqrt(dt)
    dV = rng.standard_normal((n_steps, 1)) * np.sqrt(dt)
    y = np.zeros(1)
    xs, ys = np.empty((n_steps + 1, 1)), np.empty((n_steps + 1, 1))
    bbar = np.empty((n_steps, 1))
    xs[0], ys[0] = x, y
    for n in range(n_steps):
        bbar[n] = R_inv @ (H @ x) * dt + dV[n]
        y = y + R @ bbar[n]
        x = x + (A @ x) * dt + Q @ dW[n]
        xs[n + 1], ys[n + 1] = x, y
    return xs, ys, bbar


def reference_particle_ensemble(sc, truth, N, seed):
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(7,))))
    A, Q, H, R = matrices(sc)
    R_inv = np.linalg.inv(R)
    X = sc.prior_mean + np.sqrt(sc.prior_var) * rng.standard_normal((N, 1))
    logw = np.zeros(N)
    dt = truth.dt
    sq = np.sqrt(dt)
    for n in range(truth.n_steps):
        hX = (X @ H.T) @ R_inv.T
        logw += hX @ truth.bbar_increments[n] - 0.5 * np.sum(hX**2, axis=1) * dt
        dW = rng.standard_normal((N, 1)) * sq
        X = X + (X @ A.T) * dt + dW @ Q.T
    return X, np.exp(logw)


def reference_kalman_bucy(sc, truth):
    A, Q, H, R, m0, P0 = sc.A, sc.Q, sc.H, sc.R, sc.prior_mean, sc.prior_var
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


linear_1d = st.fixed_dictionaries({
    "A": st.floats(-2, 2), "Q": st.floats(0, 2), "H": st.floats(-2, 2),
    "R": st.floats(0.2, 2) | st.floats(-2, -0.2),
    "prior_mean": st.floats(-3, 3), "prior_var": st.floats(0.1, 4)})


class TestOracleReferences:
    # no shrink phase: a failing example is reported as found, not after
    # minutes of shrinking whole truth and particle runs
    @settings(max_examples=25, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(params=linear_1d, seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(0, 300), N=st.integers(100, 400))
    def test_1d_oracles_match_references_bytewise(self, params, seed, n_steps, N):
        sc = flt.FilterScenario.linear_gaussian(**params)
        truth = flt.simulate_truth(sc, seed, n_steps, 1e-3)
        ref = reference_truth(sc, seed, n_steps, 1e-3)
        for name, b in zip(("x_path", "y_path", "bbar_increments"), ref):
            a = getattr(truth, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        for new, ref in zip(flt.kalman_bucy_oracle(sc, truth),
                            reference_kalman_bucy(sc, truth)):
            assert new.tobytes() == ref.tobytes()
        with np.errstate(over="ignore"):
            new = flt.particle_ensemble(sc, truth, N, seed)
            ref = reference_particle_ensemble(sc, truth, N, seed)
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


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
