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
    """The coefficients, u0 values, driver path and solver settings of a run
    that solves the SPDE."""
    coeffs = bundle.coeffs
    n_steps = int(round(bundle.output_times[-1] / bundle.dt))
    path = noise.generate(bundle.seeds["path"], coeffs.L, max(n_steps, 1), bundle.dt)
    cfg = SolverConfig(dt=bundle.dt, store_every=1)
    return coeffs, bundle.u0_field(bundle.grid.points()), path, cfg


def _run_spde(bundle: ScenarioBundle, out: Path) -> None:
    coeffs, u0, path, cfg = _spde_inputs(bundle)
    traj = solver.solve(coeffs, u0, bundle.grid, cfg, path, bundle.output_times)
    write_csv(out / "trajectory.csv",
              ["t"] + [f"x{i+1}" for i in range(bundle.grid.d)] + ["u"],
              _snapshot_columns(traj, bundle.grid.points()))
    defects = diag.energy_report(traj, coeffs, path).extra["per_step"]
    write_csv(out / "series.csv", ["t", "mass", "l2", "energy_defect"],
              [traj.step_times, traj.mass_series, traj.l2_series,
               np.concatenate([[0.0], defects])])   # 0 at t = 0


def _snapshot_columns(traj, pts):
    """t, the point coordinates and the value, one row per snapshot and point."""
    n = len(traj.fields)
    return [np.repeat(traj.times, len(pts)), *np.tile(pts, (n, 1)).T,
            np.concatenate([fld.values for fld in traj.fields])]


def _run_filter(bundle: ScenarioBundle, out: Path) -> None:
    sc, cfg = bundle.filter, SolverConfig(dt=bundle.dt)
    n_steps = int(round(bundle.output_times[-1] / bundle.dt))
    truth = flt.simulate_truth(sc, bundle.seeds["path"], n_steps, bundle.dt)
    res = flt.run_zakai(sc, truth, bundle.grid, cfg)
    mean, var = res.posterior_moments()
    m_kb, P_kb = flt.kalman_bucy_oracle(sc, truth)
    write_csv(out / "posterior.csv", ["t", "x", "pi"],
              _snapshot_columns(res.pi, bundle.grid.points()))
    ts = res.u.step_times
    write_csv(out / "moments.csv", ["t", "mean", "var", "mass"],
              [ts, mean, var, res.u.mass_series])
    write_csv(out / "oracle.csv", ["t", "pde_mean", "kb_mean", "pde_var", "kb_var"],
              [ts, mean, m_kb, var, P_kb])


def _sweep_commutator(bundle: ScenarioBundle, out: Path) -> None:
    epsilons = [0.2, 0.1, 0.05, 0.025]
    sweep = com.convergence_sweep(lambda p: np.sin(p[:, 0]), triangle_wave(), epsilons)
    write_csv(out / "sweep.csv", ["epsilon", "norm", "consistency_gap"],
              [epsilons, sweep.norms, sweep.gaps])


def _picard(bundle: ScenarioBundle, out: Path) -> None:
    # the sweeps run unguarded; a config's set is static, so t = 0 is solve's check
    solver.check_stability(bundle.coeffs, bundle.grid, 0.0, bundle.dt)
    coeffs, u0, path, cfg = _spde_inputs(bundle)
    _, log = picard.picard_solve(coeffs, bundle.sources, u0, bundle.grid, cfg, path,
                                 tol=bundle.tol, max_iter=bundle.max_iter,
                                 output_times=bundle.output_times)
    write_csv(out / "iterates.csv", ["iter", "sup_diff", "ratio"], zip(*log))


# Per run command: its body, the sections it needs and the ones it may also
# take.  A command that takes [grid] solves on it, and its manifest records
# the grid, the time step, the driver count and the seeds; any other command
# records none of them.
_RUNS = {
    "run-spde": (_run_spde, {"coefficients", "initial"}, {"run", "grid", "time"}),
    "run-filter": (_run_filter, {"filter"}, {"run", "grid", "time"}),
    "picard": (_picard, {"coefficients", "initial"}, {"run", "grid", "time", "picard"}),
    "sweep-commutator": (_sweep_commutator, set(), {"run"}),
}

# Keys of sections a command reads that the command itself does not read.
_UNREAD_KEYS = {
    "run-filter": {"time.output_times": "its posterior snapshots are at fixed "
                                        "tenths of t_end"},
    "sweep-commutator": {"run.seed": "it draws no driver path"},
}


def cmd_run(args) -> int:
    """Read and parse the config, refuse what the command does not read, and
    run the command's body in the run directory its manifest names."""
    body, needs, takes = _RUNS[args.subcommand]
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {args.config}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
    bundle = parse_config(text)
    given = set(bundle.sections)
    unread, missing = sorted(given - needs - takes), sorted(needs - given)
    if unread:
        raise ParseError(f"{args.subcommand} does not read [{unread[0]}]")
    if missing:
        raise ConfigurationError(f"config lacks a [{missing[0]}] section")
    for key, why in _UNREAD_KEYS.get(args.subcommand, {}).items():
        if key in bundle.raw:
            section, name = key.split(".")
            raise ParseError(f"{args.subcommand} does not read [{section}] {name}: {why}")
    if body in (_run_spde, _picard):    # both keep every step of the solve
        solver.check_history_size(round(bundle.output_times[-1] / bundle.dt),
                                  bundle.grid.npts)
    read = {}
    if "grid" in takes:
        grid = dict(n=list(bundle.grid.n), x_min=list(bundle.grid.x_min),
                    x_max=list(bundle.grid.x_max), boundary="zero-flux")
        read = dict(grid=grid, dt=bundle.dt, L=bundle.coeffs.L if bundle.coeffs else 1,
                    seeds=bundle.seeds)
    manifest = RunManifest(scenario=bundle.name, subcommand=args.subcommand,
                           parameters=dict(bundle.raw), **read)
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
