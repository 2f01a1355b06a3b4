"""Numerical checks of the a-priori estimates: positivity propagation, the
per-step energy balance, and weak time-continuity moduli.

Checks are pure functions of (trajectory, declared hypotheses); they refuse
to run outside their hypothesis set rather than report vacuous passes (the
positivity statement requires vanishing stochastic sources, so a run with
g != 0 is rejected, not ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, HypothesisError
from .model import CoefficientSet
from .noise import BrownianPath
from .solver import Stepper, Trajectory
# bound here for perfbench's tracer test, which reads this name
from .solver import assemble_generator  # noqa: F401


@dataclass
class CheckReport:
    name: str
    passed: bool
    measured: float
    threshold: float
    context: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.measured) and (np.isfinite(self.threshold)
                                                or self.threshold == np.inf)):
            raise ConfigurationError("report values must be finite")

    def as_dict(self):
        out = {"name": self.name, "pass": bool(self.passed),
               "measured": float(self.measured), "threshold": float(self.threshold)}
        out.update({k: v for k, v in self.context.items()})
        return out


@dataclass(frozen=True)
class Hypotheses:
    """Declared structural facts about a scenario, spot-verified by checks."""

    u0_nonneg: bool = False
    f_nonneg: bool = False
    g_zero: bool = False


def check_positivity(traj: Trajectory, tol: float = 1e-8,
                     hypotheses: Hypotheses | None = None,
                     context=None) -> CheckReport:
    """Undershoot of the nonnegativity principle: max (-u)+ / sup|u|.

    Requires the scenario to declare u0 >= 0, f >= 0 and g = 0; refuses to
    run otherwise so the claim is never vacuous.
    """
    hyp = hypotheses or Hypotheses()
    if not (hyp.u0_nonneg and hyp.f_nonneg and hyp.g_zero):
        raise HypothesisError(
            "positivity requires declared u0 >= 0, f >= 0 and g = 0")
    data = traj.full_history if traj.full_history is not None \
        else np.stack([f.values for f in traj.fields])
    if data[0].min() < -1e-14 * max(1.0, np.abs(data[0]).max()):
        raise HypothesisError("declared-nonnegative initial state has negative values")
    lo, hi = data.min(), data.max()                 # no history-sized temporaries
    sup = max(hi, -lo)
    measured = float(max(0.0, -lo) / sup) if sup > 0 else 0.0
    return CheckReport(name="positivity", passed=measured <= tol,
                       measured=measured, threshold=tol, context=context or {})


def energy_report(traj: Trajectory, coeffs: CoefficientSet, path: BrownianPath,
                  threshold: float = np.inf, context=None) -> CheckReport:
    """Accumulate the discrete Ito energy balance and report the net defect.

    Per step, with ubar the drift-only implicit update and w the explicit
    noise increment, the budget is

        generator:   2 dt <L ubar + f, ubar>
        martingale:  2 <u_n, w_n>
        ito:         <w_n, w_n>

    and defect_n = (||u_{n+1}||^2 - ||u_n||^2) - budget.  The measured value
    is |sum_n defect_n|, which is O(dt) along a fixed path and halves under
    dt-halving on the coarsened path; the per-step |defect| is also recorded.
    """
    if traj.full_history is None:
        raise ConfigurationError("energy_report needs a store_every=1 trajectory")
    if traj.theta != 1.0:
        raise ConfigurationError("energy accounting is defined for theta = 1")
    grid = traj.grid
    vol = grid.cell_volume
    hist = traj.full_history
    n_steps = hist.shape[0] - 1
    dt = traj.dt
    stepper = Stepper(coeffs, grid, dt, 1.0, False)
    net = 0.0
    total_abs = 0.0
    gen_total = mart_total = ito_total = 0.0
    per_step = np.zeros(n_steps)
    for n in range(n_steps):
        stepper.at(n)
        u = hist[n]
        fv, gv, _ = stepper.sources(n)
        w = np.zeros_like(u)
        for l in range(coeffs.L):
            dB = path.increments[n, l]
            if dB != 0.0:
                w += (stepper.noise_op(l) @ u + gv[:, l]) * dB
        ubar = stepper.system.solve(u + dt * fv)
        gen = 2.0 * dt * (float((stepper.Lop @ ubar) @ ubar) + float(fv @ ubar)) * vol
        mart = 2.0 * float(u @ w) * vol
        ito = float(w @ w) * vol
        d = (float(hist[n + 1] @ hist[n + 1]) - float(u @ u)) * vol - gen - mart - ito
        net += d
        total_abs += abs(d)
        per_step[n] = d
        gen_total += gen
        mart_total += mart
        ito_total += ito
    measured = abs(net)
    return CheckReport(name="energy-balance", passed=measured <= threshold,
                       measured=measured, threshold=float(threshold),
                       context=context or {},
                       extra={"defect_abs_sum": total_abs, "generator": gen_total,
                              "martingale": mart_total, "ito": ito_total,
                              "per_step": per_step})


def continuity_modulus(traj: Trajectory, phi_set, ratio_bound: float = 0.8,
                       n_levels: int = 3, context=None) -> CheckReport:
    """Weak time-continuity modulus against halving output spacings.

    For each test function phi, s(D) = max over adjacent output times at
    spacing D of |<u_{t+D} - u_t, phi>|, starting from D = T/8.  The
    reported measure is the median per-halving shrink factor s(D/2)/s(D)
    across levels and test functions: pathwise maxima of martingale
    increments are extreme-value noisy, so single ratios jitter while the
    median tracks the O(D) drift / sqrt(D) noise scaling (about 0.5 for
    diffusive runs, about 0.7 for observation-driven ones).
    """
    if traj.full_history is None:
        raise ConfigurationError("continuity_modulus needs a store_every=1 trajectory")
    grid = traj.grid
    pts = grid.points()
    vol = grid.cell_volume
    hist = traj.full_history
    n_steps = hist.shape[0] - 1
    m0 = n_steps // 8
    if m0 // (2 ** (n_levels - 1)) < 1:
        raise ConfigurationError("trajectory too short for the requested levels")
    ratios = []
    moduli = {}
    for j, phi in enumerate(phi_set):
        proj = (hist @ phi.value(pts)) * vol
        levels = []
        m = m0
        for _ in range(n_levels):
            deltas = np.abs(proj[m::m] - proj[:-m:m])
            levels.append(float(np.max(deltas)))
            m //= 2
        moduli[f"phi{j}"] = levels
        ratios.extend(s2 / s1 for s1, s2 in zip(levels, levels[1:]) if s1 > 0)
    measured = float(np.median(ratios)) if ratios else 0.0
    return CheckReport(name="continuity-modulus", passed=measured < ratio_bound,
                       measured=measured, threshold=ratio_bound,
                       context=context or {}, extra={"moduli": moduli})
