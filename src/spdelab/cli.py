"""Command-line interface: scenario runs, sweeps, and the acceptance suite.

Subcommands: run-spde, run-filter, sweep-commutator, picard, check.  The
four run commands share one path, ``cmd_run``: it reads and parses the
config file, refuses any section the command does not read (``_RUNS``), and
writes the outputs into a directory named by the manifest hash, so rerunning
an identical configuration reproduces identical bytes in the same place.
Exit codes: 0 on success (all requested checks passing), 1 on bad input or a
failed check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from . import commutator as com
from . import diagnostics as diag
from . import filtering as flt
from . import noise, picard, solver
from .config import ScenarioBundle, parse_config
from .errors import ConfigurationError, ParseError, SpdelabError
from .families import triangle_wave
from .manifest import RunManifest, write_csv, write_json_report
from .mollifier import MollifierParams, mollified_coefficient_set
from .solver import SolverConfig


def _build_parser():
    p = argparse.ArgumentParser(prog="spdelab",
                                description="degenerate-SPDE laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, help_ in [("run-spde", "solve a linear SPDE scenario"),
                        ("run-filter", "run the filtering pipeline"),
                        ("sweep-commutator", "commutator shrinkage sweep"),
                        ("picard", "nonlinear SPDE fixed-point solve"),
                        ("check", "run the acceptance suite")]:
        q = sub.add_parser(name, help=help_)
        if name != "check":
            q.add_argument("--config", required=True, help="scenario config file")
        q.add_argument("--out", default="runs", help="output root directory")
        if name == "check":
            q.add_argument("--only", default=None,
                           help="comma-separated criterion numbers")
    return p


@contextmanager
def _run_dir(out_root: str, manifest: RunManifest):
    """Yield a temporary directory beside ``out_root/<hash>`` to write into.

    It is renamed to the hash, replacing an earlier run of the same manifest,
    only when the block completes; if the block raises it is deleted, so a
    failed run leaves no directory behind.
    """
    root = Path(out_root)
    root.mkdir(parents=True, exist_ok=True)
    final = root / manifest.hash
    tmp = root / f".{manifest.hash}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        manifest.write(tmp)
        yield tmp
        if final.exists():
            shutil.rmtree(final)
        tmp.rename(final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _spde_inputs(bundle: ScenarioBundle):
    """The coefficients (mollified when [coefficients] mollify is set), u0
    values, driver path and solver settings of a run that solves the SPDE."""
    coeffs = bundle.coeffs
    if bundle.mollify_epsilon is not None:
        coeffs = mollified_coefficient_set(
            coeffs, MollifierParams(bundle.mollify_epsilon), bundle.grid)
    n_steps = int(round(bundle.t_end / bundle.dt))
    path = noise.generate(bundle.seeds["path"], coeffs.L, max(n_steps, 1), bundle.dt)
    cfg = SolverConfig(dt=bundle.dt, theta=bundle.theta, store_every=1)
    return coeffs, bundle.u0_field(bundle.grid.points()), path, cfg


def _run_spde(bundle: ScenarioBundle, out: Path) -> None:
    coeffs, u0, path, cfg = _spde_inputs(bundle)
    traj = solver.solve(coeffs, u0, bundle.grid, cfg, path, bundle.output_times)
    rows = []
    for t, fld in zip(traj.times, traj.fields):
        for x, u in zip(bundle.grid.points(), fld.values):
            rows.append((t, *x, u))
    write_csv(out / "trajectory.csv",
              ["t"] + [f"x{i+1}" for i in range(bundle.grid.d)] + ["u"], rows)
    defect_series = _energy_defect_series(traj, coeffs, path)
    write_csv(out / "series.csv", ["t", "mass", "l2", "energy_defect"],
              [(t, m, l2, d) for t, m, l2, d in
               zip(traj.step_times, traj.mass_series, traj.l2_series,
                   defect_series)])


def _energy_defect_series(traj, coeffs, path):
    """Per-step energy-balance defect aligned with the step grid (0 at t=0);
    NaN throughout when theta != 1, where the balance is not defined."""
    if traj.theta != 1.0:
        return np.full(len(traj.step_times), np.nan)
    rep = diag.energy_report(traj, coeffs, path)
    return np.concatenate([[0.0], rep.extra["per_step"]])


def _run_filter(bundle: ScenarioBundle, out: Path) -> None:
    sc, cfg = bundle.filter, SolverConfig(dt=bundle.dt, theta=bundle.theta)
    n_steps = int(round(bundle.t_end / bundle.dt))
    truth = flt.simulate_truth(sc, bundle.seeds["path"], n_steps, bundle.dt)
    res = flt.run_zakai(sc, truth, bundle.grid, cfg)
    mean, var = res.posterior_moments()
    m_kb, P_kb = flt.kalman_bucy_oracle(sc, truth)
    rows = []
    for t, fld in zip(res.pi.times, res.pi.fields):
        for x, v in zip(bundle.grid.x, fld.values):
            rows.append((t, x, v))
    write_csv(out / "posterior.csv", ["t", "x", "pi"], rows)
    ts = res.u.step_times
    write_csv(out / "moments.csv", ["t", "mean", "var", "mass"],
              zip(ts, mean, var, res.u.mass_series))
    part_est, part_se = (np.nan, np.nan)
    if bundle.n_particles:
        part_est, part_se = flt.particle_estimate(
            sc, truth, bundle.n_particles, lambda X: np.ones(len(X)),
            bundle.seeds["particles"])
    oracle_rows = []
    for k, t in enumerate(ts):
        last = k == len(ts) - 1
        oracle_rows.append((t, mean[k], m_kb[k], var[k], P_kb[k],
                            part_est if last else np.nan,
                            part_se if last else np.nan))
    write_csv(out / "oracle.csv",
              ["t", "pde_mean", "kb_mean", "pde_var", "kb_var",
               "particle_phi", "stderr"], oracle_rows)


def _sweep_commutator(bundle: ScenarioBundle, out: Path) -> None:
    tri = triangle_wave(period=2.0)
    sweep = com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri,
                                  [0.2, 0.1, 0.05, 0.025], R=3.0)
    write_csv(out / "sweep.csv", ["epsilon", "norm", "consistency_gap"],
              zip(sweep.epsilons, sweep.norms, sweep.gaps))


def _picard(bundle: ScenarioBundle, out: Path) -> None:
    coeffs, u0, path, cfg = _spde_inputs(bundle)
    _, log = picard.picard_solve(coeffs, bundle.sources, u0, bundle.grid, cfg, path,
                                 tol=bundle.tol, max_iter=bundle.max_iter,
                                 output_times=bundle.output_times)
    write_csv(out / "iterates.csv", ["iter", "sup_diff", "ratio"], log)


# Per run command: its body, the sections it needs and the ones it may also
# take beyond [run], [grid] and [time], and whether its manifest records the
# whole grid or only n.
_RUNS = {
    "run-spde": (_run_spde, {"coefficients", "initial"}, set(), True),
    "run-filter": (_run_filter, {"filter"}, set(), True),
    "picard": (_picard, {"coefficients", "initial"}, {"picard"}, False),
    "sweep-commutator": (_sweep_commutator, set(), set(), False),
}


def cmd_run(args) -> int:
    """Read and parse the config, refuse what the command does not read, and
    run the command's body in the run directory its manifest names."""
    body, needs, takes, whole_grid = _RUNS[args.subcommand]
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {args.config}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
    bundle = parse_config(text)
    given = set(bundle.sections) - {"run", "grid", "time"}
    unread, missing = sorted(given - needs - takes), sorted(needs - given)
    if unread:
        raise ParseError(f"{args.subcommand} does not read [{unread[0]}]")
    if missing:
        raise ConfigurationError(f"config lacks a [{missing[0]}] section")
    if args.subcommand == "run-filter" and "time.output_times" in bundle.raw:
        raise ParseError("run-filter does not read [time] output_times: its "
                         "posterior snapshots are at fixed tenths of t_end")
    grid = {"n": list(bundle.grid.n)}
    if whole_grid:
        grid.update(x_min=list(bundle.grid.x_min), x_max=list(bundle.grid.x_max),
                    boundary=bundle.grid.boundary)
    manifest = RunManifest(scenario=bundle.name, subcommand=args.subcommand,
                           parameters=dict(bundle.raw), grid=grid, dt=bundle.dt,
                           L=bundle.coeffs.L if bundle.coeffs else 1,
                           seeds=bundle.seeds)
    with _run_dir(args.out, manifest) as out:
        body(bundle, out)
    print(Path(args.out) / manifest.hash)
    return 0


def cmd_check(args) -> int:
    from . import acceptance
    only = None
    if args.only:
        try:
            only = [int(t) for t in args.only.split(",") if t.strip()]
        except ValueError:
            raise ParseError(f"--only takes criterion numbers, got {args.only!r}") from None
        unknown = sorted(set(only) - set(acceptance.CRITERIA))
        if unknown:
            raise ParseError(f"no acceptance criterion {unknown}")
    manifest = RunManifest(scenario="acceptance", subcommand="check",
                           parameters={"only": args.only or "all"},
                           seeds={"path": acceptance.TRANSPORT_SEED,
                                  "filter": acceptance.FILTER_SEED,
                                  "particles": acceptance.PARTICLE_SEED})
    with _run_dir(args.out, manifest) as out:
        reports, ok = acceptance.run(only=only)
        write_json_report(out / "report.json", reports, manifest.hash)
    print(Path(args.out) / manifest.hash / "report.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return (cmd_check if args.subcommand == "check" else cmd_run)(args)
    except SpdelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
