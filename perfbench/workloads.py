"""The four benchmark workloads, each built so that one layer does most of the
work while another workload barely touches it.

A workload has a default seed (the acceptance seed), ``setup(seed, workdir)``
which builds every input from the seed, and ``body(inputs, checks)`` which
drives spdelab's public API, checks the outputs against the acceptance
oracles through ``checks`` and returns ``(oracle_err, expected_counts)``.
The expected counts are the span and counter totals the workload's
definition implies; a traced run must reproduce them exactly.
"""

from __future__ import annotations

import ast
import contextlib
import filecmp
import functools
import inspect
import io
import math
import re
import shutil
import traceback

import numpy as np

from spdelab import acceptance, cli, diagnostics, filtering, noise, picard, solver
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig, TestFunction

# Bounds the acceptance module does not pin, taken from the test suite:
# tests/test_solver.py::test_stochastic_run_residual (weak residual of a
# stochastic run) and tests/test_filtering.py::test_tracks_normalized_zakai_
# first_order (a pathwise first-order gap, Kushner against normalized Zakai,
# 50 (dt + h^2)).  The same first-order bound gates the Kalman-Bucy gaps at
# every seed; the pinned 0.02 holds for the acceptance realization only.
WEAK_RESIDUAL_BOUND = 2e-2
FIRST_ORDER_FACTOR = 50.0
# Truth batch: the normalized errors (x_T - m_T) / sqrt(P_T) are N(0, 1) under
# the model, so their mean and mean square are checked at five standard
# errors (false alarm below 1e-6 per check).
BATCH_Z = 5.0


def shifted(base: int, seed: int, default: int) -> int:
    """Seed n moves every acceptance seed of a workload by n - default."""
    return (base + seed - default) % 2**32


@functools.lru_cache(maxsize=None)
def acceptance_tolerances() -> dict:
    """Literal thresholds of acceptance.py's ``_report`` rows, by row name.

    Names built with f-strings are keyed by their literal prefix plus '*'.
    """
    tree = ast.parse(inspect.getsource(acceptance))
    out = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report"
                and len(node.args) >= 4):
            continue
        crit, name, _, thr = node.args[:4]
        if not (isinstance(crit, ast.Constant) and isinstance(thr, ast.Constant)):
            continue
        if isinstance(name, ast.Constant):
            key = name.value
        elif isinstance(name, ast.JoinedStr):
            key = "".join(v.value for v in name.values
                          if isinstance(v, ast.Constant)) + "*"
        else:
            continue
        out[f"c{crit.value}:{key}"] = float(thr.value)
    return out


def tol(key: str) -> float:
    return acceptance_tolerances()[key]


class Checks:
    """Correctness checks of one sample; an exception counts as a failure.

    Some acceptance criteria hold for the realization acceptance.py pins
    (its seeds), not for every path: the c1 transport errors, the c4
    representation bounds and the c5 Kalman-Bucy gaps.  Those rows are gated
    only when the workload runs at its acceptance seed.  At any other seed
    they are still recorded, verdict included, with ``gated`` false, and
    only the gated rows count as attempted or failed.
    """

    def __init__(self, acceptance_seed: bool = True):
        self.acceptance_seed = acceptance_seed
        self.rows = []

    def _add(self, name, passed, measured=None, threshold=None, error=None, gated=True):
        row = {"name": name, "passed": bool(passed), "gated": bool(gated)}
        if hasattr(measured, "item"):
            measured = measured.item()      # repr of the plain Python scalar
        if measured is not None:
            row["measured"] = repr(measured)
        if threshold is not None:
            row["threshold"] = repr(threshold)
        if error is not None:
            row["error"] = error
        self.rows.append(row)

    def le(self, name, measured, threshold):
        self._add(name, measured <= threshold, measured, threshold)

    def pinned(self, name, measured, threshold):
        """A criterion pinned to the acceptance realization."""
        self._add(name, measured <= threshold, measured, threshold,
                  gated=self.acceptance_seed)

    def true(self, name, ok, measured=None):
        self._add(name, ok, measured)

    def report(self, rep, pinned=False):
        """A diagnostics.CheckReport row with its own verdict."""
        self._add(rep.name, rep.passed, rep.measured, rep.threshold,
                  gated=self.acceptance_seed or not pinned)

    def run(self, body, *args):
        """Call body(*args); an exception becomes one failed check."""
        try:
            return body(*args)
        except Exception as exc:  # the sample must still report
            traceback.print_exc()
            self._add("exception", False, error=f"{type(exc).__name__}: {exc}")
            return None

    @property
    def attempted(self) -> int:
        return sum(r["gated"] for r in self.rows)

    @property
    def failed(self) -> int:
        return sum(r["gated"] and not r["passed"] for r in self.rows)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _gauss(x, var=0.25):
    return np.exp(-x**2 / (2 * var))


# -- transport-1d -------------------------------------------------------------

class Transport1d:
    """Degenerate stochastic transport (c1, a = 1/2, sigma = 1): static
    coefficients, so the run is the per-step solve and its mass/L2 series."""

    default_seed = acceptance.TRANSPORT_SEED

    @staticmethod
    def setup(seed, workdir):
        fine = noise.generate(seed, 1, 5000, 5e-5)
        runs = []
        for n, path in ((1024, noise.coarsen(fine, 2)), (2048, fine)):
            grid = Grid.line(-8, 8, n)
            runs.append((grid, path, _gauss(grid.x)))
        return {"coeffs": CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0),
                "runs": runs, "B_T": float(fine.endpoint()[0]),
                "phis": [TestFunction.bump((0.0,), 4.0), TestFunction.bump((1.0,), 3.0)]}

    @staticmethod
    def body(inp, checks):
        cs, phis = inp["coeffs"], inp["phis"]
        hyp = diagnostics.Hypotheses(u0_nonneg=True, f_nonneg=True, g_zero=True)
        errs = []
        for grid, path, u0 in inp["runs"]:
            traj = solver.solve(cs, u0, grid, SolverConfig(dt=path.dt, store_every=1),
                                path, [0.25])
            exact = _gauss(grid.x + inp["B_T"])
            errs.append(grid.l2(traj.fields[-1].values - exact) / grid.l2(exact))
            m0 = traj.mass_series[0]
            checks.le(f"c3:mass-conservation-transport-n{grid.n[0]}",
                      float(np.max(np.abs(traj.mass_series - m0)) / abs(m0)),
                      tol("c3:mass-conservation-*"))
            energy = diagnostics.energy_report(traj, cs, path)
            checks.true(f"energy-defect-n{grid.n[0]}", np.isfinite(energy.measured),
                        energy.measured)
            for j, phi in enumerate(phis):
                checks.le(f"weak-residual-n{grid.n[0]}-phi{j}",
                          solver.weak_residual(traj, phi, cs, path), WEAK_RESIDUAL_BOUND)
            checks.report(diagnostics.check_positivity(traj, hypotheses=hyp))
            # recorded, not gated: on a Brownian-driven transport the median
            # shrink factor is near 1/sqrt(2) and single paths exceed the
            # default 0.8 verdict (seed 5 gives 1.00 and 0.92)
            modulus = diagnostics.continuity_modulus(traj, phis)
            checks.true(f"continuity-modulus-n{grid.n[0]}", np.isfinite(modulus.measured),
                        modulus.measured)
        checks.pinned("c1:transport-rel-l2", errs[0], tol("c1:transport-rel-l2"))
        checks.pinned("c1:transport-refinement-ratio", errs[1] / errs[0],
                      tol("c1:transport-refinement-ratio"))
        steps = sum(path.n_steps for _, path, _ in inp["runs"])
        expect = {"solver.steps": steps, "solver.solve.calls": 2,
                  "solver.assemble_generator.calls": 4, "solver.factor.calls": 4,
                  "solver.assemble_noise_op.calls": 4, "solver.check_stability.calls": 2,
                  "solver.implicit_solve.calls": 2 * steps,
                  "diagnostics.energy_report.implicit_solves": steps,
                  "solver.weak_residual.calls": 4}
        return errs[1], expect


# -- filter-1d ----------------------------------------------------------------

class Filter1d:
    """Linear-Gaussian filter (c4/c5): Zakai and Kushner solves with static
    coefficients, the particle oracle, Kalman-Bucy, and a batch of truths."""

    default_seed = acceptance.FILTER_SEED
    particles = 40_000
    batch = 64
    batch_steps = 500

    @classmethod
    def setup(cls, seed, workdir):
        sc = filtering.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        fine = filtering.simulate_truth(sc, seed, 4000, 2.5e-4)
        coarse = filtering.TruthRealization(
            x_path=fine.x_path[::2], y_path=fine.y_path[::2],
            bbar_increments=noise.block_sums(fine.bbar_increments, 2),
            seed=fine.seed, dt=5e-4)
        batch0 = shifted(acceptance.ENSEMBLE_SEED0, seed, cls.default_seed)
        return {"sc": sc, "fine": fine, "coarse": coarse,
                "grid_c": Grid.line(-8, 8, 512), "grid_f": Grid.line(-8, 8, 1024),
                "particle_seed": shifted(acceptance.PARTICLE_SEED, seed, cls.default_seed),
                "batch_seeds": [(batch0 + k) % 2**32 for k in range(cls.batch)]}

    @classmethod
    def body(cls, inp, checks):
        sc, coarse, fine = inp["sc"], inp["coarse"], inp["fine"]
        grid_c, grid_f = inp["grid_c"], inp["grid_f"]
        res_c = filtering.run_zakai(sc, coarse, grid_c, SolverConfig(dt=coarse.dt))
        res_f = filtering.run_zakai(sc, fine, grid_f, SolverConfig(dt=fine.dt))
        kushner = filtering.run_kushner(sc, coarse, grid_c, SolverConfig(dt=coarse.dt))
        gap = max(grid_c.l1(a.values - b.values)
                  for a, b in zip(kushner.fields, res_c.pi.fields))
        first_order = FIRST_ORDER_FACTOR * (coarse.dt + grid_c.hs[0] ** 2)
        checks.le("kushner-vs-zakai-l1", gap, first_order)

        X, w = filtering.particle_ensemble(sc, coarse, cls.particles, inp["particle_seed"])
        runs = {"sc": sc, "fine": fine, "coarse": coarse, "grid_c": grid_c,
                "grid_f": grid_f, "res_c": res_c, "res_f": res_f}
        for rep in _with_acceptance_cache({"filter": runs, "particles": (X, w)},
                                          acceptance.criterion_4):
            checks.report(rep, pinned=True)

        m, P = filtering.kalman_bucy_oracle(sc, coarse)
        mean, var = res_c.posterior_moments()
        mean_gap = float(np.max(np.abs(mean - m)))
        var_gap = float(np.max(np.abs(var - P)))
        checks.pinned("c5:kalman-mean-gap", mean_gap, tol("c5:kalman-mean-gap"))
        checks.pinned("c5:kalman-var-gap", var_gap, tol("c5:kalman-var-gap"))
        checks.le("kalman-mean-gap-first-order", mean_gap, first_order)
        checks.le("kalman-var-gap-first-order", var_gap, first_order)

        z = []
        for s in inp["batch_seeds"]:
            truth = filtering.simulate_truth(sc, s, cls.batch_steps, coarse.dt)
            mk, Pk = filtering.kalman_bucy_oracle(sc, truth)
            z.append((truth.x_path[-1, 0] - mk[-1]) / math.sqrt(Pk[-1]))
        z = np.asarray(z)
        se = 1.0 / math.sqrt(len(z))
        checks.le("batch-kb-mean-z", abs(float(z.mean())), BATCH_Z * se)
        checks.le("batch-kb-second-moment", abs(float(np.mean(z * z)) - 1.0),
                  BATCH_Z * math.sqrt(2.0) * se)

        steps = coarse.n_steps + fine.n_steps
        expect = {"solver.steps": steps, "solver.solve.calls": 2,
                  "solver.factor.calls": 3, "solver.assemble_generator.calls": 3,
                  "solver.implicit_solve.calls": steps + coarse.n_steps,
                  "filtering.particle_steps": cls.particles * coarse.n_steps,
                  "filtering.simulate_truth.calls": 1 + cls.batch,
                  "filtering.truth_steps": fine.n_steps + cls.batch * cls.batch_steps,
                  "filtering.kalman_bucy_oracle.calls": 1 + cls.batch}
        return mean_gap, expect


def _with_acceptance_cache(entries, criterion):
    """Run an acceptance criterion on this workload's runs instead of the
    acceptance module's own cached scenarios."""
    saved = dict(acceptance._cache)
    acceptance._cache.clear()
    acceptance._cache.update(entries)
    try:
        return criterion()
    finally:
        acceptance._cache.clear()
        acceptance._cache.update(saved)


# -- nonlinear-2d -------------------------------------------------------------

class Nonlinear2d:
    """Picard solve on a 64^2 box with the cross term on, then a linear solve
    with the frozen sources: time-dependent coefficients force assembly,
    noise operator and factorization on every step."""

    default_seed = 3
    n_steps = 50
    dt = 2e-3

    @classmethod
    def setup(cls, seed, workdir):
        grid = Grid.box2d((-4, -4), (4, 4), (64, 64))
        pts = grid.points()
        return {"grid": grid,
                "coeffs": CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5),
                                                     b=(0.3, -0.2), sigma=[(0.5, 0.3)]),
                "sources": picard.NonlinearSources.sin_of_u(0.1),
                "path": noise.generate(seed, 1, cls.n_steps, cls.dt),
                "u0": np.exp(-np.sum(pts**2, axis=1) / 0.5),
                "phis": [TestFunction.bump((0.0, 0.0), 2.0),
                         TestFunction.bump((0.5, -0.5), 1.5)]}

    @classmethod
    def body(cls, inp, checks):
        grid, cs, src, path, u0 = (inp[k] for k in ("grid", "coeffs", "sources",
                                                    "path", "u0"))
        T = cls.n_steps * cls.dt
        traj, log = picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=cls.dt),
                                        path, tol=1e-8, output_times=[T])
        ratios = [r for _, _, r in log[1:] if np.isfinite(r)]
        checks.le("c10:contraction-ratio", max(ratios[-3:]), tol("c10:contraction-ratio"))
        frozen = picard.frozen_source_coefficients(cs, src, traj)
        lin = solver.solve(frozen, u0, grid, SolverConfig(dt=cls.dt, store_every=1),
                           path, [T])
        residuals = [solver.weak_residual(lin, phi, frozen, path) for phi in inp["phis"]]
        for j, r in enumerate(residuals):
            checks.le(f"weak-residual-phi{j}", r, WEAK_RESIDUAL_BOUND)
        colsums = np.asarray(solver.assemble_generator(cs, grid, 0.0).sum(axis=0))
        checks.le("generator-column-sums", float(np.max(np.abs(colsums))),
                  tol("c3:mass-conservation-*"))
        it = len(log)
        per_step = cls.n_steps + it
        expect = {"solver.steps": cls.n_steps, "solver.solve.calls": 1,
                  "picard.iterations": it,
                  "solver.assemble_generator.calls": per_step + 1,
                  "solver.factor.calls": per_step,
                  "solver.assemble_noise_op.calls": per_step,
                  "solver.check_stability.calls": cls.n_steps + 1,
                  "solver.implicit_solve.calls": cls.n_steps * (it + 1),
                  "solver.weak_residual.calls": 2}
        return max(residuals), expect


# -- cli-short ----------------------------------------------------------------

class CliShort:
    """The four run subcommands on the acceptance configs, many short rounds,
    each into a fresh output root that must match the first round byte for
    byte."""

    default_seed = 0
    rounds = 32
    jobs = (("run-spde", acceptance.HEAT_CONFIG), ("run-filter", acceptance.FILTER_CONFIG),
            ("picard", acceptance.PICARD_CONFIG), ("sweep-commutator", acceptance.SWEEP_CONFIG))

    @classmethod
    def setup(cls, seed, workdir):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        configs = {}
        for sub, text in cls.jobs:
            text = re.sub(r"(?m)^((?:particle_)?seed) = (\d+)$",
                          lambda m: f"{m[1]} = {shifted(int(m[2]), seed, cls.default_seed)}",
                          text)
            configs[sub] = workdir / f"{sub}.cfg"
            configs[sub].write_text(text)
        return {"workdir": workdir, "configs": configs}

    @classmethod
    def body(cls, inp, checks):
        workdir, configs = inp["workdir"], inp["configs"]
        first = workdir / "round-0"
        try:
            for r in range(cls.rounds):
                root = workdir / f"round-{r}"
                for sub, _ in cls.jobs:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main([sub, "--config", str(configs[sub]), "--out", str(root)])
                    checks.true(f"exit-code-{sub}", rc == 0, rc)
                if r:
                    checks.true("round-bytes-match-first", _same_tree(first, root))
                    shutil.rmtree(root)
            oracle = next(first.glob("*/oracle.csv"))
            rows = np.loadtxt(oracle, delimiter=",", skiprows=1, ndmin=2)
            oracle_err = float(np.max(np.abs(rows[:, 1] - rows[:, 2])))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        R = cls.rounds
        expect = {f"cli.main.{sub}.calls": R for sub, _ in cls.jobs}
        expect.update({"config.parse_config.calls": 4 * R,
                       "manifest.write_csv.calls": 7 * R,
                       "picard.picard_solve.calls": R,
                       "commutator.convergence_sweep.calls": R,
                       "filtering.simulate_truth.calls": R,
                       "solver.steps": (100 + 250) * R})
        return oracle_err, expect


def _same_tree(a, b) -> bool:
    """Same file names (run directories included) and the same bytes."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*"))
    names_b = sorted(p.relative_to(b) for p in b.rglob("*"))
    if names_a != names_b:
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False)
               for n in names_a if (a / n).is_file())


WORKLOADS = {"transport-1d": Transport1d, "filter-1d": Filter1d,
             "nonlinear-2d": Nonlinear2d, "cli-short": CliShort}
