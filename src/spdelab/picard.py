"""Fixed-point solver for the nonlinear SPDE

    du = (L u + f(u)) dt + M^l u dB^l

by successive linear solves: iterate u^k solves the linear SPDE with the
source frozen at the previous iterate, f(u^{k-1}), on the same driver path.
``NonlinearSources`` declares f(u) as a kind and one number: zero, coeff
sin u or coeff u.  A source that does not depend on u is the coefficient
set's own f (and g<l> for the noise), which every linear solve adds.  The
source is evaluated implicitly in time (at the step endpoint, against the
previous iterate's endpoint value), so that when f(u) = lam u the fixed
point coincides exactly with the linear solve whose zero-order coefficient
is c + lam.  The stopping metric is the sup over steps of the spatial L2
difference of successive iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, ParseError, ValidationError
from .grids import DensityField, Grid
from .model import CoefficientSet
from .noise import BrownianPath
from .solver import SolverConfig, Stepper, Trajectory, _march
# bound here for perfbench's tracer test, which reads this name
from .solver import assemble_generator  # noqa: F401

# the kinds of f(u) and the name of their number in a [picard] f spec
_SPEC_PARAMETER = {"none": None, "sin_of_u": "scale", "linear_in_u": "coeff"}


@dataclass(frozen=True)
class NonlinearSources:
    """The drift source f(u) of the Picard equation: zero (``none``),
    ``coeff * sin(u)`` (``sin_of_u``) or ``coeff * u`` (``linear_in_u``)."""

    kind: str
    coeff: float

    def __post_init__(self):
        if self.kind not in _SPEC_PARAMETER:
            raise ValidationError(f"unknown picard source kind {self.kind!r}; the kinds "
                                  f"are {', '.join(_SPEC_PARAMETER)}")
        if not math.isfinite(self.coeff):
            raise ValidationError(f"picard source {self.kind} takes a finite coeff, "
                                  f"got {self.coeff!r}")

    @classmethod
    def sin_of_u(cls, scale: float):
        return cls("sin_of_u", scale)

    @classmethod
    def linear_in_u(cls, lam: float):
        return cls("linear_in_u", lam)

    @classmethod
    def from_spec(cls, spec: str):
        """The source of a ``[picard] f`` spec: ``none``, ``sin_of_u:scale=..``
        or ``linear_in_u:coeff=..``, the number 0.1 when it is not given."""
        spec = spec.strip()
        if spec in ("none", ""):
            return cls("none", 0.0)
        kind, _, body = spec.partition(":")
        if kind == "independent":
            raise ParseError(f"picard source {spec!r}: a source that does not depend "
                             f"on u is the field [coefficients] f, with [picard] f = none")
        name = _SPEC_PARAMETER.get(kind)
        if name is None:
            raise ParseError(f"unknown picard source {spec!r}")
        key, eq, value = body.partition("=")
        if body and (key.strip() != name or not eq):
            raise ParseError(f"picard source {kind} takes {name}=<number>, got {spec!r}")
        try:
            return cls(kind, float(value) if body else 0.1)
        except ValueError:
            raise ParseError(f"{name} takes a finite number, got {value!r} in "
                             f"picard source {spec!r}") from None

    def f(self, z: np.ndarray) -> np.ndarray:
        """f at the field values ``z``."""
        if self.kind == "sin_of_u":
            return self.coeff * np.sin(z)
        if self.kind == "linear_in_u":
            return self.coeff * z
        return np.zeros_like(z)


def _linear_sweep(coeffs, grid, cfg, path, output_times, u0_vals, prev_hist, sources):
    """One linear solve with the source frozen at prev_hist, keeping every step."""
    stepper = Stepper(coeffs, grid, cfg.dt, False)

    def update(n, u):
        return stepper.advance(u, n, path.increments[n], f=sources.f(prev_hist[n + 1]))
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
    u0_vals = u0.values if isinstance(u0, DensityField) else np.asarray(u0, float).ravel()
    if output_times is None:
        output_times = [path.n_steps * cfg.dt]
    if len(output_times) == 0:
        raise ConfigurationError("output_times is empty")
    n_steps = int(round(max(output_times) / cfg.dt))

    vol = grid.cell_volume
    guess = u0_vals if initial_guess is None else np.asarray(initial_guess, float).ravel()
    if guess.size != grid.npts:
        raise ConfigurationError(f"{'u0' if initial_guess is None else 'initial_guess'} "
                                 "does not match the grid")
    prev = np.broadcast_to(guess, (n_steps + 1, guess.size))
    log = []
    for it in range(1, max_iter + 1):
        traj = _linear_sweep(coeffs, grid, cfg, path, output_times, u0_vals, prev,
                             sources)
        diff = traj.full_history - prev
        diffs = np.sqrt(np.sum(np.square(diff, out=diff), axis=1) * vol)
        del diff    # not held through the next sweep
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
    """Linear coefficient set whose f adds the source evaluated on the final
    iterate at the endpoint of the step that holds t, as the Picard sweep
    reads it: its linear solve reproduces the iterate, and the weak-form
    residual runs on the converged solution."""
    hist = traj.full_history
    dt = traj.dt
    n_max = hist.shape[0] - 1

    def idx(t):
        return min(int(np.floor(t / dt + 1e-9)) + 1, n_max)

    def f_fn(t, X):
        return coeffs.f(t, X) + sources.f(hist[idx(t)])

    return CoefficientSet(coeffs.d, coeffs.L, coeffs.a, coeffs.b, coeffs.c,
                          coeffs.sigma, coeffs.h, f_fn, coeffs.g,
                          da=coeffs.da, div_sigma=coeffs.div_sigma,
                          time_dependent=True)
