"""Nonlinear filtering pipeline on top of the SPDE solver, for the 1-d
linear-Gaussian model the scenario declares.

The signal and its observation

    dx = A x dt + Q dW,        dy = H x dt + R dV,        x_0 ~ N(m_0, v_0),

are filtered by solving the linear SPDE for the unnormalized conditional
density u driven by the transformed observation increments
dBbar = R^{-1} dy (the change-of-measure drivers):

    du = L u dt + h u dBbar,      h(x) = (H / R) x,

with the Fokker-Planck generator L u = d(a du) - d(A x u), a = Q^2 / 2.
The conditional density is pi = u / int u.  Cross-validation comes from
three independent directions: a weighted particle estimate of int u_t phi
(fresh signal paths, exponential weights in the fixed observation drivers),
the innovation-driven nonlinear density equation stepped directly, and the
Kalman-Bucy closed form.

The scenario is six numbers, not code: the Zakai coefficients are
``constant`` and ``affine`` fields of ``CoefficientSet.from_fields``.  A
nonlinear drift or sensor would enter the same way, as a declared field
family, not as a callable.

Everything is driven by precomputed dBbar increments; the observation path
is never regenerated inside a solve.  Both density equations step with the
solver's one scheme, backward Euler in the generator on zero-flux walls.

The particle cloud is cut into ``PARTICLE_BLOCKS`` contiguous blocks, and
block b draws its prior and its step noise from its own counter-based stream
Philox(SeedSequence(entropy=seed, spawn_key=(7, b))).  The blocks are stepped
on a thread pool; the block count is a constant, so the cloud has the same
bytes on every machine and at any number of threads.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateMassError, ScenarioError, ValidationError
from .families import ScalarField
from .grids import DensityField, Grid
from .model import CoefficientSet, reuse_if_static
from .noise import BrownianPath, coarsen
from .solver import SolverConfig, Stepper, Trajectory, _march, solve
# bound here for perfbench's tracer test, which reads this name
from .solver import assemble_generator  # noqa: F401

# The particle cloud is stepped in this many blocks, each with its own
# random stream.  It is a constant, never the core count, so that the cloud
# has the same bytes on every machine; ROADMAP.md ("Perf levers") gives the
# timing table it was chosen from.
PARTICLE_BLOCKS = 2


@dataclass(frozen=True)
class FilterScenario:
    """The 1-d linear-Gaussian model: the signal dx = A x dt + Q dW observed
    through dy = H x dt + R dV, with the prior N(prior_mean, prior_var).

    Build it with ``linear_gaussian``, which refuses what the pipeline
    cannot run.  The truth simulation and the particle step read the numbers
    on Python floats and flat arrays, the filters through
    ``zakai_coefficients`` and the Kalman-Bucy oracle from the declared
    prior moments.  No part depends on t or y, so the filters build their
    operators once per run.
    """

    A: float
    Q: float
    H: float
    R: float
    prior_mean: float
    prior_var: float

    @classmethod
    def linear_gaussian(cls, A: float, Q: float, H: float, R: float,
                        prior_mean: float = 0.0, prior_var: float = 1.0):
        """The scenario, with finite A, Q, H, R, a nonzero R and a prior
        with a finite mean and a finite, positive variance."""
        if not all(math.isfinite(v) for v in (A, Q, H, R)):
            raise ValidationError("the filter parameters must be finite, got "
                                  f"A={A!r}, Q={Q!r}, H={H!r}, R={R!r}")
        if R == 0.0:
            raise ValidationError("the observation noise R must be nonzero")
        if not (math.isfinite(prior_mean) and math.isfinite(prior_var) and prior_var > 0):
            raise ValidationError("the prior needs a finite mean and a finite, positive "
                                  f"variance, got N({prior_mean!r}, {prior_var!r})")
        return cls(A, Q, H, R, prior_mean, prior_var)

    def pi0(self, X):
        """The prior density at points X of shape (m, 1)."""
        return (np.exp(-(X[:, 0] - self.prior_mean) ** 2 / (2 * self.prior_var))
                / np.sqrt(2 * np.pi * self.prior_var))

    def sample_prior(self, rng, n):
        """n draws from the prior, shape (n, 1)."""
        return self.prior_mean + np.sqrt(self.prior_var) * rng.standard_normal((n, 1))

    def validate(self, grid: Grid) -> None:
        """The grid holds the prior: its mass there is 1 within 1e-10."""
        mass = grid.integrate(self.pi0(grid.points()))
        if abs(mass - 1.0) > 1e-10:
            raise ValidationError(f"prior mass {mass!r} is not 1 within 1e-10")


@dataclass(eq=False)
class TruthRealization:
    """One realized signal/observation pair with its driver bookkeeping.
    Realizations compare and hash by identity; a field-wise ``==`` over the
    arrays would have no single truth value."""

    x_path: np.ndarray        # (n_steps + 1, 1)
    y_path: np.ndarray        # (n_steps + 1, 1)
    bbar_increments: np.ndarray  # (n_steps, 1)
    seed: int
    dt: float

    @property
    def n_steps(self) -> int:
        return self.bbar_increments.shape[0]


def simulate_truth(sc: FilterScenario, seed: int, n_steps: int,
                   dt: float) -> TruthRealization:
    """Euler-Maruyama on the joint system, stepped on Python floats; dy is
    materialized from dBbar so the change-of-measure bookkeeping is
    consistent by construction."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    x = sc.sample_prior(rng, 1)[0]
    dW = rng.standard_normal((n_steps, 1)) * np.sqrt(dt)
    dV = rng.standard_normal((n_steps, 1)) * np.sqrt(dt)
    A, Q, H, R = (float(v) for v in (sc.A, sc.Q, sc.H, sc.R))
    r_inv = 1.0 / R
    x, y, dt = float(x[0]), 0.0, float(dt)
    xs, ys, bbar = [x], [y], []
    for n, (dw, dv) in enumerate(zip(dW[:, 0].tolist(), dV[:, 0].tolist())):
        b = r_inv * (H * x) * dt + dv
        y = y + R * b
        x = x + A * x * dt + Q * dw
        if not math.isfinite(x):
            raise ScenarioError(f"signal exploded at step {n}")
        xs.append(x)
        ys.append(y)
        bbar.append(b)
    return TruthRealization(x_path=np.array(xs).reshape(-1, 1),
                            y_path=np.array(ys).reshape(-1, 1),
                            bbar_increments=np.array(bbar).reshape(-1, 1),
                            seed=int(seed), dt=dt)


def coarsen_truth(truth: TruthRealization, k: int) -> TruthRealization:
    """The record read every k steps: the signal and the observation at
    every k-th step boundary and dBbar summed over blocks of k steps.  As
    ``noise.coarsen`` does, refuses a k that does not divide the steps."""
    obs = coarsen(_observation_path(truth), k)
    return TruthRealization(x_path=truth.x_path[::k], y_path=truth.y_path[::k],
                            bbar_increments=obs.increments, seed=truth.seed, dt=obs.dt)


def zakai_coefficients(sc: FilterScenario) -> CoefficientSet:
    """The Zakai generator and noise as declared fields: the Fokker-Planck
    form d(a du) - d(A x u) puts a = Q^2 / 2 in the diffusion slot and
    b = -A x in the divergence-form drift slot, and the noise is
    multiplication by h = (H / R) x along the one observation driver."""
    return CoefficientSet.from_fields(
        d=1, L=1, a=0.5 * sc.Q * sc.Q, b=ScalarField("affine", 1, slope=-sc.A),
        h=ScalarField("affine", 1, slope=sc.H / sc.R))


def _snapshot_times(n_steps: int, dt: float):
    """The step boundaries nearest to each tenth of the horizon."""
    ks = sorted(set(int(round(n_steps * k / 10)) for k in range(11)))
    return [k * dt for k in ks]


def _observation_path(truth: TruthRealization) -> BrownianPath:
    """The transformed observation increments dBbar as the filters' driver."""
    return BrownianPath(dt=truth.dt, increments=truth.bbar_increments, seed=truth.seed)


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
    x_sums: np.ndarray    # (n_steps + 1, 2): sum_i u_i x_i and sum_i u_i x_i^2

    def posterior_moments(self):
        """Per-step mean and variance of the normalized density (d = 1)."""
        vol = self.u.grid.cell_volume
        mass = self.u.mass_series
        mean = self.x_sums[:, 0] * vol / mass
        second = self.x_sums[:, 1] * vol / mass
        return mean, second - mean**2


def run_zakai(sc: FilterScenario, truth: TruthRealization, grid: Grid,
              cfg: SolverConfig) -> ZakaiResult:
    """Solve the driven linear SPDE and normalize its snapshots.

    The first two x-moments of u are summed at every step as the solve
    runs, so no step history is kept unless ``cfg.store_every`` asks for
    one.  The sums are einsum loops, not BLAS, so their bits do not depend
    on the BLAS thread count."""
    coeffs = zakai_coefficients(sc)
    sc.validate(grid)
    p0 = normalize(sc.pi0(grid.points()), grid)
    x = grid.x
    xs = np.stack([x, x * x])
    sums = np.empty((truth.n_steps + 1, 2))

    def observe(n, u):
        np.einsum("ji,i->j", xs, u, out=sums[n])
    traj = solve(coeffs, p0, grid, cfg, _observation_path(truth),
                 _snapshot_times(truth.n_steps, truth.dt), observe)
    mass = traj.mass_series
    if np.any(mass <= 0):
        raise DegenerateMassError(
            f"unnormalized mass hit {mass.min():.3e}; the scenario is under-resolved")
    pi_fields = [DensityField(grid=grid, values=normalize(f.values, grid),
                              time_index=f.time_index) for f in traj.fields]
    pi_traj = Trajectory(grid=grid, times=traj.times, fields=pi_fields,
                         mass_series=np.ones_like(mass), l2_series=traj.l2_series / mass,
                         dt=traj.dt)
    return ZakaiResult(u=traj, pi=pi_traj, x_sums=sums)


def run_kushner(sc: FilterScenario, truth: TruthRealization, grid: Grid,
                cfg: SolverConfig) -> Trajectory:
    """Step the normalized density directly with innovation-driven sources.

    Each step is the ``solve`` step with the explicit noise source
    h pi - pi(h) pi against dBcheck = dBbar - pi(h) dt in place of the
    Zakai noise term, followed by renormalization (the source moves no mass,
    so this is bit-level hygiene).  The factored backward-Euler system and
    the stability guard come from the same ``Stepper``, and the march and
    its records from the same loop, as in ``solve``.

    The explicit innovation source needs no dt-h bound of its own.  It
    multiplies pi pointwise by the bounded h - pi(h) and takes no spatial
    derivative, so one step grows the mean square of a cell by at most a
    factor 1 + |h - pi(h)|^2 dt, with no 1/h^2 in it.  The dt sum|sigma|^2/h^2
    budget of ``check_stability`` exists only for the first-order sigma.grad
    noise term, which the filter does not have.
    """
    coeffs = zakai_coefficients(sc)
    sc.validate(grid)
    path = _observation_path(truth)
    dt = truth.dt
    stepper = Stepper(coeffs, grid, dt, True)
    pts = stepper.pts
    vol = grid.cell_volume
    h = reuse_if_static(coeffs.h, not coeffs.time_dependent)

    def update(n, pi):
        stepper.at(n)
        hv = h(n * dt, pts)                         # (m, 1)
        pi_h = (pi @ hv) * vol                      # (1,)
        dBcheck = path.increments[n] - pi_h * dt
        src = (hv - pi_h[None, :]) * pi[:, None]    # (m, 1)
        return normalize(stepper.system.solve(pi + src @ dBcheck), grid)
    pi0 = normalize(sc.pi0(pts), grid)
    return _march(update, pi0, grid, cfg, path, coeffs.L,
                  _snapshot_times(truth.n_steps, dt), cfg.store_every == 1)


def particle_ensemble(sc: FilterScenario, truth: TruthRealization, N: int,
                      seed: int):
    """Terminal particle cloud and weights under the reference measure.

    Fresh signal paths are simulated with drift A x and diffusion Q from
    independent drivers, on flat arrays, and weighted by
    exp(int h dBbar - 1/2 int h^2 dt) along the FIXED observation drivers.
    Returns (X_T of shape (N, 1), weights).

    The cloud is cut into ``PARTICLE_BLOCKS`` contiguous blocks: block b
    holds particles b N // B up to (b + 1) N // B and takes its prior draw
    and then its step noise, step by step, from its own stream
    Philox(SeedSequence(entropy=seed, spawn_key=(7, b))).  The blocks are
    stepped on a pool of min(B, usable cores) threads, each under the
    caller's numpy error state; numpy releases the interpreter lock while it
    draws and in its elementwise loops, so blocks overlap.  B is fixed, so
    the bytes do not depend on the machine or on the number of threads.
    """
    if N < 100:
        raise ConfigurationError("particle methods need N >= 100")
    A, Q, H = (float(v) for v in (sc.A, sc.Q, sc.H))
    r_inv = 1.0 / float(sc.R)
    dt = truth.dt
    sq = np.sqrt(dt)
    bbar = truth.bbar_increments[:, 0].tolist()
    X = np.empty((N, 1))
    logw = np.zeros(N)

    # Runs on a worker thread, so it calls no spdelab function that
    # perfbench traces: the tracer keeps one span stack for the process, and
    # a span opened here would nest under whatever the caller has open.
    def step_block(b):
        lo, hi = b * N // PARTICLE_BLOCKS, (b + 1) * N // PARTICLE_BLOCKS
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=int(seed), spawn_key=(7, b))))
        X[lo:hi] = sc.sample_prior(rng, hi - lo)
        x, lw = X[lo:hi, 0], logw[lo:hi]     # views: stepping them steps X, logw
        h, t, dW = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        # in place, the IEEE operations of h = (H x) R^-1, logw += h bb -
        # (0.5 (h h)) dt, x += (A x) dt and x += Q (sq dW), in that order
        # (swapping a product's operands does not change its bits)
        for bb in bbar:
            np.multiply(x, H, out=h)
            h *= r_inv
            np.multiply(h, h, out=t)
            t *= 0.5
            t *= dt
            h *= bb
            h -= t
            lw += h
            np.multiply(x, A, out=t)
            t *= dt
            x += t
            rng.standard_normal(out=dW)
            dW *= sq
            dW *= Q
            x += dW

    with ThreadPoolExecutor(min(PARTICLE_BLOCKS, _usable_cores())) as pool:
        # a new thread starts from numpy's default error state (numpy keeps
        # it in a context variable), so each block runs in a copy of ours
        blocks = [pool.submit(contextvars.copy_context().run, step_block, b)
                  for b in range(PARTICLE_BLOCKS)]
        for block in blocks:
            block.result()
    with np.errstate(over="ignore"):
        w = np.exp(logw)
    bad = np.count_nonzero(~np.isfinite(w))
    if bad:
        raise ScenarioError(f"{bad} of {N} particle weights are not finite")
    return X, w


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def weighted_estimate(X: np.ndarray, w: np.ndarray, phi):
    """Weighted Monte Carlo estimate (value, standard error) of int u_T phi
    from a ``particle_ensemble`` cloud; phi = 1 recovers the unnormalized mass."""
    vals = np.asarray(phi(X), float).ravel() * w
    est = float(np.mean(vals))
    stderr = float(np.std(vals) / math.sqrt(len(vals)))
    return est, stderr


def kalman_bucy_oracle(sc: FilterScenario, truth: TruthRealization):
    """Closed-form conditional mean/variance for the linear-Gaussian case.

    The variance Riccati equation is integrated with classical 4th-order
    steps between observation increments; the mean picks up the measurement
    update with the left-point gain.  The loop runs on Python floats and
    starts from the prior moments the scenario declares.
    """
    A, Q, H, R, mk, pk = (float(v) for v in astuple(sc))
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
