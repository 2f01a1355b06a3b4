"""Fixed-point solver for the nonlinear SPDE

    du = (L u + f(u)) dt + (M^l u + g^l(u)) dB^l

by successive linear solves: iterate u^k solves the linear SPDE with the
sources frozen at the previous iterate, f(u^{k-1}) and g(u^{k-1}), on the
same driver path.  The drift source is evaluated implicitly in time (at the
step endpoint, against the previous iterate's endpoint value), so that when
f(u) = lam u the fixed point coincides exactly with the linear solve whose
zero-order coefficient is c + lam; the noise source stays at the left point
(Ito).  The stopping metric is the sup over steps of the spatial L2
difference of successive iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, ParseError, ValidationError
from .families import parse_field
from .grids import DensityField, Grid
from .model import CoefficientSet
from .noise import BrownianPath
from .solver import SolverConfig, Stepper, Trajectory, _march
# bound here for perfbench's tracer test, which reads this name
from .solver import assemble_generator  # noqa: F401


@dataclass
class NonlinearSources:
    """State-dependent sources with a declared Lipschitz constant in u.

    ``f(t, X, z) -> (m,)`` and ``g(t, X, z) -> (m, L)`` where ``z`` is the
    field value at the same points.
    """

    f: object
    g: object
    L: int
    K: float

    @classmethod
    def independent(cls, f_field=None, g_fields=None, L=1):
        ff = f_field if f_field is not None else (lambda X: np.zeros(X.shape[0]))
        gs = g_fields or []

        def f(t, X, z):
            return np.asarray(ff(X), float)

        def g(t, X, z):
            out = np.zeros((X.shape[0], L))
            for l, fld in enumerate(gs[:L]):
                out[:, l] = np.asarray(fld(X), float)
            return out
        return cls(f=f, g=g, L=L, K=0.0)

    @classmethod
    def sin_of_u(cls, scale: float, L: int = 1):
        def f(t, X, z):
            return scale * np.sin(z)

        def g(t, X, z):
            return np.zeros((X.shape[0], L))
        return cls(f=f, g=g, L=L, K=abs(scale))

    @classmethod
    def linear_in_u(cls, lam: float, L: int = 1):
        def f(t, X, z):
            return lam * z

        def g(t, X, z):
            return np.zeros((X.shape[0], L))
        return cls(f=f, g=g, L=L, K=abs(lam))

    @classmethod
    def from_spec(cls, spec: str, L: int, d: int):
        """The sources of a ``[picard] f`` spec: ``none``, ``independent:f=<field>``,
        ``sin_of_u:scale=..`` or ``linear_in_u:coeff=..``."""
        spec = spec.strip()
        if spec in ("none", ""):
            return cls.independent(L=L)
        name, _, body = spec.partition(":")
        if name == "independent":
            # everything after f= is one field spec, commas included
            key, eq, field = body.partition("=")
            if body.strip() and (key.strip() != "f" or not eq):
                raise ParseError(f"independent takes f=<field>, got {spec!r}")
            return cls.independent(f_field=parse_field(field if eq else "zero", d), L=L)
        params = {}
        for item in filter(None, body.split(",")):
            key, eq, value = item.partition("=")
            if not eq:
                raise ParseError(f"bad picard source parameter {item!r} in {spec!r}")
            params[key.strip()] = value.strip()

        def number(key, default):
            value = params.pop(key, default)
            try:
                if math.isfinite(float(value)):
                    return float(value)
            except ValueError:
                pass
            raise ParseError(f"{key} takes a finite number, got {value!r} in "
                             f"picard source {spec!r}")

        if name == "sin_of_u":
            src = cls.sin_of_u(number("scale", 0.1), L=L)
        elif name == "linear_in_u":
            src = cls.linear_in_u(number("coeff", 0.1), L=L)
        else:
            raise ParseError(f"unknown picard source {spec!r}")
        if params:
            raise ParseError(f"unknown picard source parameter(s) {sorted(params)} "
                             f"in {spec!r}")
        return src

    def lipschitz_check(self, grid: Grid, times, seed: int = 0,
                        n_samples: int = 64, slack: float = 1e-10) -> None:
        """Sampled verification of the declared Lipschitz constant."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        X = grid.points()
        m = X.shape[0]
        times = list(times)
        for _ in range(n_samples):
            t = times[rng.integers(len(times))]
            z = rng.standard_normal(m) * rng.uniform(0.1, 3.0)
            dz = rng.standard_normal(m) * rng.uniform(1e-3, 1.0)
            fd = np.abs(self.f(t, X, z + dz) - self.f(t, X, z))
            gd = np.linalg.norm(self.g(t, X, z + dz) - self.g(t, X, z), axis=1)
            bound = self.K * np.abs(dz) + slack
            if np.any(fd + gd > bound):
                worst = float(np.max((fd + gd) - self.K * np.abs(dz)))
                raise ValidationError(
                    f"sampled Lipschitz check failed: excess {worst:.3e} over K={self.K}")


def _linear_sweep(coeffs, grid, cfg, path, output_times, u0_vals, prev_hist, sources):
    """One linear solve with sources frozen at prev_hist, keeping every step."""
    stepper = Stepper(coeffs, grid, cfg.dt, cfg.theta, False)
    pts = stepper.pts

    def update(n, u):
        t = n * cfg.dt
        return stepper.advance(u, n, path.increments[n],
                               f=sources.f(t + cfg.dt, pts, prev_hist[n + 1]),
                               g=sources.g(t, pts, prev_hist[n]))
    return _march(update, u0_vals, grid, cfg, path, coeffs.L, output_times, True)


def picard_solve(coeffs: CoefficientSet, sources: NonlinearSources, u0,
                 grid: Grid, cfg: SolverConfig, path: BrownianPath,
                 tol: float = 1e-8, max_iter: int = 50,
                 output_times=None, initial_guess=None):
    """Iterate linear solves until successive iterates differ by < tol.

    Returns (trajectory of the final iterate, iterates_log) where the log
    rows are (iteration, sup_t L2 difference, ratio to the previous row).
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    if sources.L != coeffs.L:
        raise ConfigurationError("sources and coefficients disagree on L")
    u0_vals = u0.values if isinstance(u0, DensityField) else np.asarray(u0, float).ravel()
    if output_times is None:
        output_times = [path.n_steps * cfg.dt]
    if len(output_times) == 0:
        raise ConfigurationError("output_times is empty")
    n_steps = int(round(max(output_times) / cfg.dt))
    sources.lipschitz_check(grid, [0.0, n_steps * cfg.dt / 2], seed=path.seed or 0)

    vol = grid.cell_volume
    guess = u0_vals if initial_guess is None else np.asarray(initial_guess, float).ravel()
    prev = np.tile(guess, (n_steps + 1, 1))
    log = []
    for it in range(1, max_iter + 1):
        traj = _linear_sweep(coeffs, grid, cfg, path, output_times, u0_vals, prev,
                             sources)
        diffs = np.sqrt(np.sum((traj.full_history - prev) ** 2, axis=1) * vol)
        sup_diff = float(np.max(diffs))
        ratio = sup_diff / log[-1][1] if log and log[-1][1] > 0 else math.nan
        log.append((it, sup_diff, ratio))
        prev = traj.full_history
        if sup_diff < tol:
            return traj, log
    raise NonConvergenceError(
        f"no contraction below tol={tol} within {max_iter} iterations", log=log)


def frozen_source_coefficients(coeffs: CoefficientSet, sources: NonlinearSources,
                               traj: Trajectory) -> CoefficientSet:
    """Linear coefficient set whose sources are f/g evaluated on the final
    iterate, for running the weak-form residual on the converged solution."""
    hist = traj.full_history
    dt = traj.dt
    n_max = hist.shape[0] - 1

    def idx(t):
        return min(int(np.floor(t / dt + 1e-9)), n_max)

    def f_fn(t, X):
        return coeffs.f(t, X) + sources.f(t, X, hist[idx(t)])

    def g_fn(t, X):
        return coeffs.g(t, X) + sources.g(t, X, hist[idx(t)])

    return CoefficientSet(coeffs.d, coeffs.L, coeffs.a, coeffs.b, coeffs.c,
                          coeffs.sigma, coeffs.h, f_fn, g_fn,
                          da=coeffs.da, div_b=coeffs.div_b,
                          div_sigma=coeffs.div_sigma, grad_h=coeffs.grad_h,
                          time_dependent=True, label="picard-frozen")
