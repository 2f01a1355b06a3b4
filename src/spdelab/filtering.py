"""Nonlinear filtering pipeline on top of the SPDE solver.

A partially observed diffusion

    dx = b_hat(x, y) dt + sigma_hat(x, y) dW,
    dy = b_tilde(x, y) dt + sigma_tilde(y) dV,

is filtered by solving the linear SPDE for the unnormalized conditional
density u driven by the transformed observation increments
dBbar = sigma_tilde^{-1} dy (the change-of-measure drivers):

    du = L u dt + h^k u dBbar^k,      h = sigma_tilde^{-1} b_tilde,

with the Fokker-Planck generator L u = d_i(a^{ij} d_j u) - d_i(bhat^i u),
a = sigma_hat sigma_hat^T / 2.  The conditional density is pi = u / int u.
Cross-validation comes from three independent directions: a weighted
particle estimate of int u_t phi (fresh signal paths, exponential weights in
the fixed observation drivers), the innovation-driven nonlinear density
equation stepped directly, and, for linear-Gaussian scenarios, the
Kalman-Bucy closed form.

Everything is driven by precomputed dBbar increments; the observation path
is never regenerated inside a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegenerateMassError,
                     OracleNotApplicableError, ScenarioError, ValidationError)
from .grids import DensityField, Grid
from .model import CoefficientSet
from .noise import BrownianPath
from .solver import (SolverConfig, Trajectory, assemble_generator,
                     check_stability, implicit_system, solve)

_FD = 1e-4


@dataclass
class FilterScenario:
    """Signal/observation model with prior density and declared bounds.

    Callables: ``b_hat(t, X, y) -> (m, d)``, ``sigma_hat(t, X, y) ->
    (m, d, d)``, ``b_tilde(t, X, y) -> (m, d1)``, ``sigma_tilde(t, y) ->
    (d1, d1)``; ``pi0(X) -> (m,)`` is the prior density and
    ``prior_sampler(rng, n) -> (n, d)`` draws from it.
    """

    d: int
    d1: int
    b_hat: object
    sigma_hat: object
    b_tilde: object
    sigma_tilde: object
    pi0: object
    prior_sampler: object
    K: float = 10.0
    linear: tuple | None = None          # (A, Q, H, R) for d = d1 = 1
    static_coefficients: bool = False
    da_hook: object = None               # optional analytic d_j a^{ij}

    @classmethod
    def linear_gaussian(cls, A: float, Q: float, H: float, R: float,
                        prior_mean: float = 0.0, prior_var: float = 1.0):
        """1-d signal dx = A x dt + Q dW observed via dy = H x dt + R dV."""
        if R == 0.0:
            raise ValidationError("sigma_tilde must be invertible (R != 0)")

        def b_hat(t, X, y):
            return A * X

        def sigma_hat(t, X, y):
            return np.full((X.shape[0], 1, 1), Q)

        def b_tilde(t, X, y):
            return H * X

        def sigma_tilde(t, y):
            return np.array([[R]])

        def pi0(X):
            return (np.exp(-(X[:, 0] - prior_mean) ** 2 / (2 * prior_var))
                    / np.sqrt(2 * np.pi * prior_var))

        def sampler(rng, n):
            return prior_mean + np.sqrt(prior_var) * rng.standard_normal((n, 1))

        return cls(d=1, d1=1, b_hat=b_hat, sigma_hat=sigma_hat,
                   b_tilde=b_tilde, sigma_tilde=sigma_tilde, pi0=pi0,
                   prior_sampler=sampler,
                   K=max(abs(A), abs(Q), abs(H), abs(R), 1.0) * 4,
                   linear=(A, Q, H, R), static_coefficients=True,
                   da_hook=lambda t, X, y: np.zeros_like(X))

    def validate(self, grid: Grid, y_samples) -> dict:
        """Structural checks plus a soft report on the declared bounds."""
        X = grid.points()
        p = self.pi0(X)
        if np.any(p < 0):
            raise ValidationError("prior density must be nonnegative")
        mass = grid.integrate(p)
        if abs(mass - 1.0) > 1e-10:
            raise ValidationError(f"prior mass {mass!r} is not 1 within 1e-10")
        report = {"prior_mass": mass, "soft_violations": []}
        for t, y in y_samples:
            st = np.asarray(self.sigma_tilde(t, y), float)
            if abs(np.linalg.det(st)) <= 1e-12:
                raise ValidationError(f"sigma_tilde singular at t={t}, y={y}")
            sh = self.sigma_hat(t, X, y)
            if np.max(np.abs(sh)) > self.K:
                report["soft_violations"].append(("sigma_hat", t, float(np.max(np.abs(sh)))))
            bt = self.b_tilde(t, X, y)
            if np.max(np.abs(bt)) > self.K * (1 + np.max(np.abs(X))):
                report["soft_violations"].append(("b_tilde", t, float(np.max(np.abs(bt)))))
        return report


@dataclass
class TruthRealization:
    """One realized signal/observation pair with its driver bookkeeping."""

    x_path: np.ndarray        # (n_steps + 1, d)
    y_path: np.ndarray        # (n_steps + 1, d1)
    bbar_increments: np.ndarray  # (n_steps, d1)
    seed: int
    dt: float

    @property
    def n_steps(self) -> int:
        return self.bbar_increments.shape[0]


def simulate_truth(sc: FilterScenario, seed: int, n_steps: int, dt: float,
                   x_bound: float | None = None) -> TruthRealization:
    """Euler-Maruyama on the joint system; dy is materialized from dBbar so
    the change-of-measure bookkeeping is consistent by construction."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    x = sc.prior_sampler(rng, 1)[0]
    y = np.zeros(sc.d1)
    dW = rng.standard_normal((n_steps, sc.d)) * np.sqrt(dt)
    dV = rng.standard_normal((n_steps, sc.d1)) * np.sqrt(dt)
    xs = np.empty((n_steps + 1, sc.d))
    ys = np.empty((n_steps + 1, sc.d1))
    bbar = np.empty((n_steps, sc.d1))
    xs[0], ys[0] = x, y
    for n in range(n_steps):
        t = n * dt
        X = x[None, :]
        bh = np.asarray(sc.b_hat(t, X, y), float)[0]
        sh = np.asarray(sc.sigma_hat(t, X, y), float)[0]
        bt = np.asarray(sc.b_tilde(t, X, y), float)[0]
        st = np.asarray(sc.sigma_tilde(t, y), float)
        st_inv = np.linalg.inv(st)
        bbar[n] = st_inv @ bt * dt + dV[n]
        y = y + st @ bbar[n]
        x = x + bh * dt + sh @ dW[n]
        if not np.all(np.isfinite(x)):
            raise ScenarioError(f"signal exploded at step {n}")
        if x_bound is not None and np.max(np.abs(x)) > x_bound:
            raise ScenarioError(
                f"signal left the box (|x|={np.max(np.abs(x)):.2f} > {x_bound}) at step {n}")
        xs[n + 1], ys[n + 1] = x, y
    return TruthRealization(x_path=xs, y_path=ys, bbar_increments=bbar,
                            seed=int(seed), dt=float(dt))


def zakai_coefficients(sc: FilterScenario, y_path: np.ndarray, dt: float) -> CoefficientSet:
    """Coefficient bundle whose generator is the Fokker-Planck form
    dd(a u) - d(b_hat u); the drift stored in the divergence-form slot is
    therefore d_j a^{ij} - b_hat^i.  Noise is multiplication by
    h = sigma_tilde^{-1} b_tilde, one driver per observation component."""
    y_path = np.asarray(y_path, float)
    n_avail = y_path.shape[0] - 1

    def y_at(t):
        idx = min(int(np.floor(t / dt + 1e-9)), n_avail)
        return y_path[idx]

    def a_fn(t, X):
        sh = np.asarray(sc.sigma_hat(t, X, y_at(t)), float)
        return 0.5 * np.einsum("mik,mjk->mij", sh, sh)

    def da_fn(t, X):
        if sc.da_hook is not None:
            return np.asarray(sc.da_hook(t, X, y_at(t)), float)
        out = np.zeros_like(X)
        for j in range(sc.d):
            e = np.zeros(sc.d)
            e[j] = _FD
            out += (a_fn(t, X - 2 * e)[:, :, j] - 8 * a_fn(t, X - e)[:, :, j]
                    + 8 * a_fn(t, X + e)[:, :, j] - a_fn(t, X + 2 * e)[:, :, j]) / (12 * _FD)
        return out

    def b_fn(t, X):
        return da_fn(t, X) - np.asarray(sc.b_hat(t, X, y_at(t)), float)

    def h_fn(t, X):
        y = y_at(t)
        st_inv = np.linalg.inv(np.asarray(sc.sigma_tilde(t, y), float))
        bt = np.asarray(sc.b_tilde(t, X, y), float)
        return bt @ st_inv.T

    zeros1 = lambda t, X: np.zeros(X.shape[0])                      # noqa: E731
    zerosL = lambda t, X: np.zeros((X.shape[0], sc.d1))             # noqa: E731
    zerosS = lambda t, X: np.zeros((X.shape[0], sc.d, sc.d1))       # noqa: E731
    return CoefficientSet(sc.d, sc.d1, a_fn, b_fn, zeros1, zerosS, h_fn,
                          zeros1, zerosL, da=da_fn,
                          time_dependent=not sc.static_coefficients,
                          label="zakai")


def fokker_planck_drift(sc: FilterScenario, y_path, dt, t, X):
    """Drift of the forward form dd(a u) - d(drift u): b_hat - d_j a^{ij}."""
    cs = zakai_coefficients(sc, y_path, dt)
    return -cs.b(t, np.asarray(X, float))


def _snapshot_times(n_steps: int, dt: float, count: int = 10):
    ks = sorted(set(int(round(n_steps * k / count)) for k in range(count + 1)))
    return [k * dt for k in ks]


def normalize(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Divide by the mass; already-normalized input is returned unchanged so
    the operation is idempotent at the bit level."""
    m = grid.integrate(values)
    if m <= 0:
        raise DegenerateMassError(f"mass {m!r} is not positive")
    if abs(m - 1.0) <= 4 * np.finfo(float).eps:
        return values
    return values / m


@dataclass
class ZakaiResult:
    u: Trajectory
    mass_series: np.ndarray
    pi: Trajectory
    innovations: np.ndarray
    manifest: dict = field(default_factory=dict)

    def posterior_moments(self):
        """Per-step mean and variance of the normalized density (d = 1)."""
        grid = self.u.grid
        x = grid.x
        vol = grid.cell_volume
        hist = self.u.full_history
        mass = hist.sum(axis=1) * vol
        mean = (hist @ x) * vol / mass
        second = (hist @ (x * x)) * vol / mass
        return mean, second - mean**2


def run_zakai(sc: FilterScenario, truth: TruthRealization, grid: Grid,
              cfg: SolverConfig) -> ZakaiResult:
    """Solve the driven linear SPDE, normalize, and collect innovations."""
    coeffs = zakai_coefficients(sc, truth.y_path, truth.dt)
    sc.validate(grid, [(0.0, truth.y_path[0])])
    p0 = normalize(np.maximum(sc.pi0(grid.points()), 0.0), grid)
    path = BrownianPath(L=sc.d1, n_steps=truth.n_steps, dt=truth.dt,
                        increments=truth.bbar_increments, seed=truth.seed)
    out_times = _snapshot_times(truth.n_steps, truth.dt)
    cfg_full = SolverConfig(dt=cfg.dt, theta=cfg.theta,
                            stability_guard=cfg.stability_guard, store_every=1)
    traj = solve(coeffs, p0, grid, cfg_full, path, out_times)
    mass = traj.mass_series
    if np.any(mass <= 0):
        raise DegenerateMassError(
            f"unnormalized mass hit {mass.min():.3e}; the scenario is under-resolved")
    pts = grid.points()
    vol = grid.cell_volume
    innovations = np.empty_like(truth.bbar_increments)
    for n in range(truth.n_steps):
        hv = coeffs.h(n * truth.dt, pts)
        pi_h = (traj.full_history[n] @ hv) * vol / mass[n]
        innovations[n] = truth.bbar_increments[n] - pi_h * truth.dt
    pi_fields = [DensityField(grid=grid, values=normalize(f.values, grid),
                              time_index=f.time_index) for f in traj.fields]
    pi_traj = Trajectory(grid=grid, times=traj.times, fields=pi_fields,
                         mass_series=np.ones_like(mass),
                         l2_series=np.array([grid.l2(f.values) for f in pi_fields]),
                         dt=traj.dt, theta=traj.theta,
                         step_times=traj.step_times, seed=traj.seed)
    return ZakaiResult(u=traj, mass_series=mass, pi=pi_traj,
                       innovations=innovations)


def run_kushner(sc: FilterScenario, truth: TruthRealization, grid: Grid,
                cfg: SolverConfig) -> Trajectory:
    """Step the normalized density directly with innovation-driven sources.

    Each step solves the implicit generator system with the explicit noise
    source h^k pi - pi(h^k) pi against dBcheck = dBbar - pi(h) dt, then
    renormalizes (the source moves no mass, so this is bit-level hygiene).
    With ``cfg.stability_guard`` the stability check runs as in ``solve``:
    once at t = 0, and every step when the coefficients are time dependent.
    """
    coeffs = zakai_coefficients(sc, truth.y_path, truth.dt)
    pts = grid.points()
    vol = grid.cell_volume
    pi = normalize(np.maximum(sc.pi0(pts), 0.0), grid)
    n_steps = truth.n_steps
    dt = truth.dt
    out_times = _snapshot_times(n_steps, dt)
    snap_steps = {int(round(t / dt)): t for t in out_times}
    static = sc.static_coefficients
    if cfg.stability_guard:
        check_stability(coeffs, grid, 0.0, dt)
    sys_ = implicit_system(assemble_generator(coeffs, grid, 0.5 * dt), dt,
                           cfg.theta, grid) if static else None
    fields = []
    history = np.empty((n_steps + 1, grid.npts)) if cfg.store_every == 1 else None
    if history is not None:
        history[0] = pi
    if 0 in snap_steps:
        fields.append(DensityField(grid=grid, values=pi.copy(), time_index=0))
    l2s = [grid.l2(pi)]
    for n in range(n_steps):
        t = n * dt
        if cfg.stability_guard and not static:
            check_stability(coeffs, grid, t, dt)
        hv = coeffs.h(t, pts)                       # (m, d1)
        pi_h = (pi @ hv) * vol                      # (d1,)
        dBcheck = truth.bbar_increments[n] - pi_h * dt
        src = (hv - pi_h[None, :]) * pi[:, None]    # (m, d1)
        rhs = pi + src @ dBcheck
        sy = sys_ if static else implicit_system(
            assemble_generator(coeffs, grid, t + 0.5 * dt), dt, cfg.theta, grid)
        pi = normalize(sy.solve(rhs), grid)
        l2s.append(grid.l2(pi))
        if history is not None:
            history[n + 1] = pi
        if n + 1 in snap_steps:
            fields.append(DensityField(grid=grid, values=pi.copy(), time_index=n + 1))
    return Trajectory(grid=grid, times=np.asarray(sorted(snap_steps.values())),
                      fields=fields, mass_series=np.ones(n_steps + 1),
                      l2_series=np.asarray(l2s), dt=dt, theta=cfg.theta,
                      step_times=np.arange(n_steps + 1) * dt,
                      full_history=history, seed=truth.seed)


def particle_ensemble(sc: FilterScenario, truth: TruthRealization, N: int,
                      seed: int):
    """Terminal particle cloud and weights under the reference measure.

    Fresh signal paths are simulated with drift b_hat and diffusion
    sigma_hat from independent drivers, and weighted by
    exp(sum_k int h^k dBbar^k - 1/2 int |h|^2 dt) along the FIXED
    observation drivers.  Returns (X_T of shape (N, d), weights).
    """
    if N < 100:
        raise ConfigurationError("particle methods need N >= 100")
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(7,))))
    X = sc.prior_sampler(rng, N)            # (N, d)
    logw = np.zeros(N)
    dt = truth.dt
    sq = np.sqrt(dt)
    for n in range(truth.n_steps):
        t = n * dt
        y = truth.y_path[n]
        st_inv = np.linalg.inv(np.asarray(sc.sigma_tilde(t, y), float))
        hX = np.asarray(sc.b_tilde(t, X, y), float) @ st_inv.T   # (N, d1)
        logw += hX @ truth.bbar_increments[n] - 0.5 * np.sum(hX**2, axis=1) * dt
        bh = np.asarray(sc.b_hat(t, X, y), float)
        sh = np.asarray(sc.sigma_hat(t, X, y), float)
        dW = rng.standard_normal((N, sc.d)) * sq
        X = X + bh * dt + np.einsum("nij,nj->ni", sh, dW)
    return X, np.exp(logw)


def particle_estimate(sc: FilterScenario, truth: TruthRealization, N: int,
                      phi, seed: int):
    """Weighted Monte Carlo estimate (value, standard error) of int u_T phi;
    phi = 1 recovers the unnormalized mass."""
    X, w = particle_ensemble(sc, truth, N, seed)
    return weighted_estimate(X, w, phi)


def weighted_estimate(X: np.ndarray, w: np.ndarray, phi):
    vals = np.asarray(phi(X), float).ravel() * w
    est = float(np.mean(vals))
    stderr = float(np.std(vals) / math.sqrt(len(vals)))
    return est, stderr


def kalman_bucy_oracle(sc: FilterScenario, truth: TruthRealization):
    """Closed-form conditional mean/variance for the linear-Gaussian case.

    The variance Riccati equation is integrated with classical 4th-order
    steps between observation increments; the mean picks up the measurement
    update with the left-point gain.
    """
    if sc.linear is None:
        raise OracleNotApplicableError("scenario is not declared linear-Gaussian")
    A, Q, H, R = sc.linear
    dt = truth.dt
    n = truth.n_steps
    m = np.empty(n + 1)
    P = np.empty(n + 1)
    # prior moments from the sampler-free route: integrate pi0 on a fine line
    xs = np.linspace(-40, 40, 400_001)
    p0 = sc.pi0(xs[:, None])
    w = p0 / np.trapezoid(p0, xs)
    m[0] = np.trapezoid(w * xs, xs)
    P[0] = np.trapezoid(w * xs**2, xs) - m[0] ** 2

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
