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
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DegenerateMassError,
                     OracleNotApplicableError, ScenarioError, ValidationError)
from .grids import DensityField, Grid
from .model import CoefficientSet, reuse_if_static
from .noise import BrownianPath
from .solver import SolverConfig, Stepper, Trajectory, _march, solve
# bound here for perfbench's tracer test, which reads this name
from .solver import assemble_generator  # noqa: F401


@dataclass
class FilterScenario:
    """Signal/observation model with its prior density.

    Callables: ``b_hat(t, X, y) -> (m, d)``, ``sigma_hat(t, X, y) ->
    (m, d, d)``, ``b_tilde(t, X, y) -> (m, d1)``, ``sigma_tilde(t, y) ->
    (d1, d1)``; ``pi0(X) -> (m,)`` is the prior density and
    ``prior_sampler(rng, n) -> (n, d)`` draws from it.

    ``linear = (A, Q, H, R, prior_mean, prior_var)`` declares the d = d1 = 1
    linear-Gaussian model, prior included, that the Kalman-Bucy oracle reads.

    ``static_coefficients = True`` is a contract: no callable depends on
    ``t`` or ``y``.  The truth simulation, the particle step and the
    filters then evaluate ``sigma_tilde`` (with its inverse) and ``h``
    once per run and reuse the values at every step.
    """

    d: int
    d1: int
    b_hat: object
    sigma_hat: object
    b_tilde: object
    sigma_tilde: object
    pi0: object
    prior_sampler: object
    linear: tuple | None = None
    static_coefficients: bool = False
    da_hook: object = None               # optional analytic d_j a^{ij}

    @classmethod
    def linear_gaussian(cls, A: float, Q: float, H: float, R: float,
                        prior_mean: float = 0.0, prior_var: float = 1.0):
        """1-d signal dx = A x dt + Q dW observed via dy = H x dt + R dV,
        with the prior N(prior_mean, prior_var)."""
        if R == 0.0:
            raise ValidationError("sigma_tilde must be invertible (R != 0)")
        if not (math.isfinite(prior_mean) and math.isfinite(prior_var) and prior_var > 0):
            raise ValidationError("the prior needs a finite mean and a finite, positive "
                                  f"variance, got N({prior_mean!r}, {prior_var!r})")

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
                   linear=(A, Q, H, R, prior_mean, prior_var), static_coefficients=True,
                   da_hook=lambda t, X, y: np.zeros_like(X))

    def validate(self, grid: Grid, y_samples) -> None:
        """A nonnegative prior of mass 1 on the grid, and an invertible
        sigma_tilde at every (t, y) sample."""
        p = self.pi0(grid.points())
        if np.any(p < 0):
            raise ValidationError("prior density must be nonnegative")
        mass = grid.integrate(p)
        if abs(mass - 1.0) > 1e-10:
            raise ValidationError(f"prior mass {mass!r} is not 1 within 1e-10")
        for t, y in y_samples:
            st = np.asarray(self.sigma_tilde(t, y), float)
            if abs(np.linalg.det(st)) <= 1e-12:
                raise ValidationError(f"sigma_tilde singular at t={t}, y={y}")


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


def simulate_truth(sc: FilterScenario, seed: int, n_steps: int,
                   dt: float) -> TruthRealization:
    """Euler-Maruyama on the joint system; dy is materialized from dBbar so
    the change-of-measure bookkeeping is consistent by construction."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    scale = reuse_if_static(_observation_scale(sc), sc.static_coefficients)
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
        st, st_inv = scale(t, y)
        bbar[n] = st_inv @ bt * dt + dV[n]
        y = y + st @ bbar[n]
        x = x + bh * dt + sh @ dW[n]
        if not np.all(np.isfinite(x)):
            raise ScenarioError(f"signal exploded at step {n}")
        xs[n + 1], ys[n + 1] = x, y
    return TruthRealization(x_path=xs, y_path=ys, bbar_increments=bbar,
                            seed=int(seed), dt=float(dt))


def _observation_scale(sc: FilterScenario):
    """(t, y) -> (sigma_tilde, sigma_tilde^{-1})."""
    def scale(t, y):
        st = np.asarray(sc.sigma_tilde(t, y), float)
        return st, np.linalg.inv(st)
    return scale


def zakai_coefficients(sc: FilterScenario, y_path: np.ndarray, dt: float) -> CoefficientSet:
    """Coefficient bundle whose generator is the Fokker-Planck form
    dd(a u) - d(b_hat u); the drift stored in the divergence-form slot is
    therefore d_j a^{ij} - b_hat^i, with d_j a^{ij} from the scenario's
    ``da_hook`` or else the set's finite-difference fallback.  Noise is
    multiplication by h = sigma_tilde^{-1} b_tilde, one driver per
    observation component."""
    y_path = np.asarray(y_path, float)
    n_avail = y_path.shape[0] - 1

    def y_at(t):
        idx = min(int(np.floor(t / dt + 1e-9)), n_avail)
        return y_path[idx]

    def a_fn(t, X):
        sh = np.asarray(sc.sigma_hat(t, X, y_at(t)), float)
        return 0.5 * np.einsum("mik,mjk->mij", sh, sh)

    def hook(t, X):
        return np.asarray(sc.da_hook(t, X, y_at(t)), float)

    def b_fn(t, X):
        return da(t, X) - np.asarray(sc.b_hat(t, X, y_at(t)), float)

    def h_fn(t, X):
        y = y_at(t)
        st_inv = np.linalg.inv(np.asarray(sc.sigma_tilde(t, y), float))
        bt = np.asarray(sc.b_tilde(t, X, y), float)
        return bt @ st_inv.T

    zeros1 = lambda t, X: np.zeros(X.shape[0])                      # noqa: E731
    zerosL = lambda t, X: np.zeros((X.shape[0], sc.d1))             # noqa: E731
    zerosS = lambda t, X: np.zeros((X.shape[0], sc.d, sc.d1))       # noqa: E731
    hooked = sc.da_hook is not None
    cs = CoefficientSet(sc.d, sc.d1, a_fn, b_fn, zeros1, zerosS, h_fn,
                        zeros1, zerosL, da=hook if hooked else None,
                        time_dependent=not sc.static_coefficients, label="zakai")
    da = hook if hooked else cs._fd_da      # without a hook, the set's own FD
    return cs


def _snapshot_times(n_steps: int, dt: float, count: int = 10):
    ks = sorted(set(int(round(n_steps * k / count)) for k in range(count + 1)))
    return [k * dt for k in ks]


def _observation_path(sc: FilterScenario, truth: TruthRealization) -> BrownianPath:
    """The transformed observation increments dBbar as the filters' drivers."""
    return BrownianPath(L=sc.d1, n_steps=truth.n_steps, dt=truth.dt,
                        increments=truth.bbar_increments, seed=truth.seed)


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
    pi: Trajectory

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
    """Solve the driven linear SPDE and normalize its snapshots."""
    coeffs = zakai_coefficients(sc, truth.y_path, truth.dt)
    sc.validate(grid, [(0.0, truth.y_path[0])])
    p0 = normalize(np.maximum(sc.pi0(grid.points()), 0.0), grid)
    cfg_full = SolverConfig(dt=cfg.dt, theta=cfg.theta, store_every=1)
    traj = solve(coeffs, p0, grid, cfg_full, _observation_path(sc, truth),
                 _snapshot_times(truth.n_steps, truth.dt))
    mass = traj.mass_series
    if np.any(mass <= 0):
        raise DegenerateMassError(
            f"unnormalized mass hit {mass.min():.3e}; the scenario is under-resolved")
    pi_fields = [DensityField(grid=grid, values=normalize(f.values, grid),
                              time_index=f.time_index) for f in traj.fields]
    pi_traj = Trajectory(grid=grid, times=traj.times, fields=pi_fields,
                         mass_series=np.ones_like(mass), l2_series=traj.l2_series / mass,
                         dt=traj.dt, theta=traj.theta, seed=traj.seed)
    return ZakaiResult(u=traj, pi=pi_traj)


def run_kushner(sc: FilterScenario, truth: TruthRealization, grid: Grid,
                cfg: SolverConfig) -> Trajectory:
    """Step the normalized density directly with innovation-driven sources.

    Each step is the ``solve`` step with the explicit noise source
    h^k pi - pi(h^k) pi against dBcheck = dBbar - pi(h) dt in place of the
    Zakai noise term, followed by renormalization (the source moves no mass,
    so this is bit-level hygiene).  The generator, its theta split and the
    stability guard come from the same ``Stepper``, and the march and its
    records from the same loop, as in ``solve``.

    The explicit innovation source needs no dt-h bound of its own.  It
    multiplies pi pointwise by the bounded h - pi(h) and takes no spatial
    derivative, so one step grows the mean square of a cell by at most a
    factor 1 + |h - pi(h)|^2 dt, with no 1/h^2 in it.  The dt sum|sigma|^2/h^2
    budget of ``check_stability`` exists only for the first-order sigma.grad
    noise term, which the filter does not have.
    """
    coeffs = zakai_coefficients(sc, truth.y_path, truth.dt)
    path = _observation_path(sc, truth)
    dt = truth.dt
    stepper = Stepper(coeffs, grid, dt, cfg.theta, True)
    pts = stepper.pts
    vol = grid.cell_volume
    h = reuse_if_static(coeffs.h, not coeffs.time_dependent)

    def update(n, pi):
        stepper.at(n)
        hv = h(n * dt, pts)                         # (m, d1)
        pi_h = (pi @ hv) * vol                      # (d1,)
        dBcheck = path.increments[n] - pi_h * dt
        src = (hv - pi_h[None, :]) * pi[:, None]    # (m, d1)
        return normalize(stepper.system.solve(stepper.explicit(pi) + src @ dBcheck), grid)
    pi0 = normalize(np.maximum(sc.pi0(pts), 0.0), grid)
    return _march(update, pi0, grid, cfg, path, coeffs.L,
                  _snapshot_times(truth.n_steps, dt), cfg.store_every == 1)


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
    X = np.array(sc.prior_sampler(rng, N), float)   # (N, d), owned
    logw = np.zeros(N)
    dW = np.empty((N, sc.d))
    dt = truth.dt
    sq = np.sqrt(dt)
    scale = reuse_if_static(_observation_scale(sc), sc.static_coefficients)
    for n in range(truth.n_steps):
        t = n * dt
        y = truth.y_path[n]
        st_inv = scale(t, y)[1]
        # einsum, not (N, d1) @ (d1, d1) matmuls, which take numpy's slow
        # small-matrix loop; for d1 = 1 the bits are the same
        hX = np.einsum("nk,jk->nj", np.asarray(sc.b_tilde(t, X, y), float), st_inv)
        logw += (np.einsum("nk,k->n", hX, truth.bbar_increments[n])
                 - 0.5 * np.einsum("nk,nk->n", hX, hX) * dt)
        drift = np.asarray(sc.b_hat(t, X, y), float) * dt
        sh = np.asarray(sc.sigma_hat(t, X, y), float)
        rng.standard_normal(out=dW)
        dW *= sq
        # both increments exist before X moves: the callables may return views of X
        diffusion = np.einsum("nij,nj->ni", sh, dW)
        X += drift
        X += diffusion
    with np.errstate(over="ignore"):
        w = np.exp(logw)
    bad = np.count_nonzero(~np.isfinite(w))
    if bad:
        raise ScenarioError(f"{bad} of {N} particle weights are not finite")
    return X, w


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
    update with the left-point gain.  The loop runs on Python floats and
    starts from the prior moments the scenario declares in ``sc.linear``.
    """
    if sc.linear is None:
        raise OracleNotApplicableError("scenario is not declared linear-Gaussian")
    A, Q, H, R, mk, pk = (float(v) for v in sc.linear)
    dt = float(truth.dt)
    m, P = [mk], [pk]

    def pdot(p):
        return 2 * A * p + Q * Q - p * p * H * H / (R * R)

    for dy in np.diff(truth.y_path[:truth.n_steps + 1, 0]).tolist():
        gain = pk * H / (R * R)
        mk = mk + A * mk * dt + gain * (dy - H * mk * dt)
        k1 = pdot(pk)
        k2 = pdot(pk + 0.5 * dt * k1)
        k3 = pdot(pk + 0.5 * dt * k2)
        k4 = pdot(pk + dt * k3)
        pk = pk + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        m.append(mk)
        P.append(pk)
    return np.array(m), np.array(P)
