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
from .grids import dot
from .model import CoefficientSet
from .noise import BrownianPath
from .solver import Stepper, Trajectory, check_path
# bound here for perfbench's tracer test, which reads this name
from .solver import assemble_generator  # noqa: F401

POSITIVITY_TOL = 1e-8
MODULUS_RATIO_BOUND = 0.8
MODULUS_LEVELS = 3


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


def check_positivity(traj: Trajectory, hypotheses: Hypotheses) -> CheckReport:
    """Undershoot of the nonnegativity principle: max (-u)+ / sup|u|, which
    passes at most 1e-8.

    Requires the scenario to declare u0 >= 0, f >= 0 and g = 0; refuses to
    run otherwise so the claim is never vacuous.
    """
    if not (hypotheses.u0_nonneg and hypotheses.f_nonneg and hypotheses.g_zero):
        raise HypothesisError(
            "positivity requires declared u0 >= 0, f >= 0 and g = 0")
    data = traj.full_history if traj.full_history is not None \
        else np.stack([f.values for f in traj.fields])
    if data[0].min() < -1e-14 * max(1.0, np.abs(data[0]).max()):
        raise HypothesisError("declared-nonnegative initial state has negative values")
    lo, hi = data.min(), data.max()                 # no history-sized temporaries
    sup = max(hi, -lo)
    measured = float(max(0.0, -lo) / sup) if sup > 0 else 0.0
    return CheckReport(name="positivity", passed=measured <= POSITIVITY_TOL,
                       measured=measured, threshold=POSITIVITY_TOL)


def energy_report(traj: Trajectory, coeffs: CoefficientSet,
                  path: BrownianPath) -> CheckReport:
    """Accumulate the discrete Ito energy balance and report the net defect.

    Per step, with ubar the drift-only implicit update and w the explicit
    noise increment from ``Stepper.add_noise``, the budget is

        generator:   2 dt <L ubar + f, ubar>
        martingale:  2 <u_n, w_n>
        ito:         <w_n, w_n>

    and defect_n = (||u_{n+1}||^2 - ||u_n||^2) - budget.  The measured value
    is |sum_n defect_n|, which is O(dt) along a fixed path and halves under
    dt-halving on the coarsened path; the per-step defect is also recorded.
    The report records the defect without a verdict (threshold inf).
    ``path`` must pass ``solver.check_path`` against the trajectory.
    """
    if traj.full_history is None:
        raise ConfigurationError("energy_report needs a store_every=1 trajectory")
    grid = traj.grid
    vol = grid.cell_volume
    hist = traj.full_history
    n_steps = hist.shape[0] - 1
    dt = traj.dt
    check_path(path, dt, n_steps, coeffs.L)
    stepper = Stepper(coeffs, grid, dt, False)
    net = 0.0
    per_step = np.zeros(n_steps)
    sq_next = dot(hist[0], hist[0])
    for n in range(n_steps):
        stepper.at(n)
        u = hist[n]
        fv, gv, forced = stepper.sources(n)
        w = stepper.add_noise(np.zeros_like(u), u, gv, path.increments[n])
        ubar = stepper.system.solve(u + dt * fv)
        inner = dot(stepper.Lop @ ubar, ubar)
        if forced:
            inner += dot(fv, ubar)
        gen = 2.0 * dt * inner * vol
        mart = 2.0 * dot(u, w) * vol
        ito = dot(w, w) * vol
        sq, sq_next = sq_next, dot(hist[n + 1], hist[n + 1])
        d = (sq_next - sq) * vol - gen - mart - ito
        net += d
        per_step[n] = d
    return CheckReport(name="energy-balance", passed=True, measured=float(abs(net)),
                       threshold=np.inf, extra={"per_step": per_step})


def continuity_modulus(traj: Trajectory, phi_set) -> CheckReport:
    """Weak time-continuity modulus against halving output spacings.

    For each test function phi, s(D) = max over adjacent output times at
    spacing D of |<u_{t+D} - u_t, phi>|, for D = T/8, T/16 and T/32.  The
    reported measure is the median per-halving shrink factor s(D/2)/s(D)
    across levels and test functions: pathwise maxima of martingale
    increments are extreme-value noisy, so single ratios jitter while the
    median tracks the O(D) drift / sqrt(D) noise scaling (about 0.5 for
    diffusive runs, about 0.7 for observation-driven ones); it passes
    below 0.8.  An empty ``phi_set``, or one for which no ratio forms
    because every modulus a ratio would divide by is 0, is refused, not
    passed.
    """
    if traj.full_history is None:
        raise ConfigurationError("continuity_modulus needs a store_every=1 trajectory")
    grid = traj.grid
    pts = grid.points()
    vol = grid.cell_volume
    hist = traj.full_history
    n_steps = hist.shape[0] - 1
    if not phi_set:
        raise ConfigurationError("continuity_modulus needs at least one test function")
    m0 = n_steps // 8
    if m0 // (2 ** (MODULUS_LEVELS - 1)) < 1:
        raise ConfigurationError("trajectory too short for the requested levels")
    ratios = []
    moduli = {}
    for j, phi in enumerate(phi_set):
        phiv = phi.value_grad_hess(pts)[0]
        levels = []
        m = m0
        for _ in range(MODULUS_LEVELS):
            # <u_n, phi> only at the rows the level reads: no copy of the history
            proj = dot(hist[::m], phiv) * vol
            levels.append(float(np.max(np.abs(np.diff(proj)))))
            m //= 2
        moduli[f"phi{j}"] = levels
        ratios.extend(s2 / s1 for s1, s2 in zip(levels, levels[1:]) if s1 > 0)
    if not ratios:
        raise HypothesisError("no continuity ratio forms: every modulus a ratio "
                              "would divide by is 0")
    measured = float(np.median(ratios))
    return CheckReport(name="continuity-modulus", passed=measured < MODULUS_RATIO_BOUND,
                       measured=measured, threshold=MODULUS_RATIO_BOUND,
                       extra={"moduli": moduli})
