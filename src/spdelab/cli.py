"""Command-line interface: scenario runs, sweeps, and the acceptance suite.

Subcommands: run-spde, run-filter, sweep-commutator, picard, check.  Each
run writes its outputs into a directory named by the manifest hash, so
rerunning an identical configuration reproduces identical bytes in the same
place.  Exit codes: 0 on success (all requested checks passing), 1 on check
failure, 2 on usage errors.
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
from .errors import ParseError, SpdelabError
from .manifest import RunManifest, write_csv, write_json_report
from .mollifier import MollifierParams, mollified_coefficient_set
from .picard import NonlinearSources
from .solver import SolverConfig
from .families import parse_field, triangle_wave


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


def _solve_bundle(bundle: ScenarioBundle):
    n_steps = int(round(bundle.t_end / bundle.dt))
    path = noise.generate(bundle.seeds["path"], bundle.coeffs.L,
                          max(n_steps, 1), bundle.dt)
    cfg = SolverConfig(dt=bundle.dt, theta=bundle.theta, store_every=1)
    coeffs = bundle.coeffs
    if bundle.mollify_epsilon is not None:
        coeffs = mollified_coefficient_set(
            coeffs, MollifierParams(bundle.mollify_epsilon), bundle.grid)
    u0 = bundle.u0_field(bundle.grid.points())
    traj = solver.solve(coeffs, u0, bundle.grid, cfg, path,
                        bundle.output_times)
    return coeffs, path, traj


def cmd_run_spde(args) -> int:
    bundle = parse_config(args.config)
    manifest = RunManifest(scenario=bundle.name, subcommand="run-spde",
                           parameters=bundle.manifest_parameters(),
                           grid={"n": list(bundle.grid.n),
                                 "x_min": list(bundle.grid.x_min),
                                 "x_max": list(bundle.grid.x_max),
                                 "boundary": bundle.grid.boundary},
                           dt=bundle.dt, L=bundle.coeffs.L, seeds=bundle.seeds)
    with _run_dir(args.out, manifest) as out:
        coeffs, path, traj = _solve_bundle(bundle)
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
    print(Path(args.out) / manifest.hash)
    return 0


def _energy_defect_series(traj, coeffs, path):
    """Per-step energy-balance defect aligned with the step grid (0 at t=0);
    NaN throughout when theta != 1, where the balance is not defined."""
    if traj.theta != 1.0:
        return np.full(len(traj.step_times), np.nan)
    rep = diag.energy_report(traj, coeffs, path)
    return np.concatenate([[0.0], rep.extra["per_step"]])


def cmd_run_filter(args) -> int:
    bundle = parse_config(args.config)
    fp = bundle.filter_params
    if not fp:
        raise SpdelabError("config lacks a [filter] section")
    manifest = RunManifest(scenario=bundle.name, subcommand="run-filter",
                           parameters=bundle.manifest_parameters(),
                           grid={"n": list(bundle.grid.n),
                                 "x_min": list(bundle.grid.x_min),
                                 "x_max": list(bundle.grid.x_max),
                                 "boundary": bundle.grid.boundary},
                           dt=fp["dt"], L=1, seeds=bundle.seeds)
    with _run_dir(args.out, manifest) as out:
        sc = flt.FilterScenario.linear_gaussian(
            A=fp["A"], Q=fp["Q"], H=fp["H"], R=fp["R"],
            prior_mean=fp["prior_mean"], prior_var=fp["prior_var"])
        n_steps = int(round(fp["t_end"] / fp["dt"]))
        truth = flt.simulate_truth(sc, bundle.seeds["path"], n_steps, fp["dt"])
        res = flt.run_zakai(sc, truth, bundle.grid, SolverConfig(dt=fp["dt"]))
        mean, var = res.posterior_moments()
        m_kb, P_kb = flt.kalman_bucy_oracle(sc, truth)
        rows = []
        for t, fld in zip(res.pi.times, res.pi.fields):
            for x, v in zip(bundle.grid.x, fld.values):
                rows.append((t, x, v))
        write_csv(out / "posterior.csv", ["t", "x", "pi"], rows)
        ts = res.u.step_times
        write_csv(out / "moments.csv", ["t", "mean", "var", "mass"],
                  zip(ts, mean, var, res.mass_series))
        part_est, part_se = (np.nan, np.nan)
        if fp["n_particles"]:
            part_est, part_se = flt.particle_estimate(
                sc, truth, fp["n_particles"], lambda X: np.ones(len(X)),
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
    print(Path(args.out) / manifest.hash)
    return 0


def cmd_sweep_commutator(args) -> int:
    bundle = parse_config(args.config)
    manifest = RunManifest(scenario=bundle.name, subcommand="sweep-commutator",
                           parameters=bundle.manifest_parameters(),
                           grid={"n": list(bundle.grid.n)},
                           dt=bundle.dt, L=1, seeds=bundle.seeds)
    with _run_dir(args.out, manifest) as out:
        tri = triangle_wave(period=2.0)
        sweep = com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri,
                                      [0.2, 0.1, 0.05, 0.025], R=3.0)
        write_csv(out / "sweep.csv", ["epsilon", "norm", "consistency_gap"],
                  zip(sweep.epsilons, sweep.norms, sweep.gaps))
    print(Path(args.out) / manifest.hash)
    return 0


def cmd_picard(args) -> int:
    bundle = parse_config(args.config)
    pp = bundle.picard_params or {"f": "none", "tol": 1e-8, "max_iter": 50}
    manifest = RunManifest(scenario=bundle.name, subcommand="picard",
                           parameters=bundle.manifest_parameters(),
                           grid={"n": list(bundle.grid.n)},
                           dt=bundle.dt, L=bundle.coeffs.L, seeds=bundle.seeds)
    with _run_dir(args.out, manifest) as out:
        n_steps = int(round(bundle.t_end / bundle.dt))
        path = noise.generate(bundle.seeds["path"], bundle.coeffs.L, n_steps,
                              bundle.dt)
        src = _parse_source(pp["f"], bundle.coeffs.L, bundle.grid.d)
        u0 = bundle.u0_field(bundle.grid.points())
        _, log = picard.picard_solve(bundle.coeffs, src, u0, bundle.grid,
                                     SolverConfig(dt=bundle.dt), path,
                                     tol=pp["tol"], max_iter=pp["max_iter"],
                                     output_times=bundle.output_times)
        write_csv(out / "iterates.csv", ["iter", "sup_diff", "ratio"], log)
    print(Path(args.out) / manifest.hash)
    return 0


def _parse_source(spec: str, L: int, d: int) -> NonlinearSources:
    spec = spec.strip()
    if spec in ("none", ""):
        return NonlinearSources.independent(L=L)
    name, _, body = spec.partition(":")
    if name == "independent":
        # everything after f= is one field spec, commas included
        key, eq, field = body.partition("=")
        if body.strip() and (key.strip() != "f" or not eq):
            raise ParseError(f"independent takes f=<field>, got {spec!r}")
        return NonlinearSources.independent(
            f_field=parse_field(field if eq else "zero", d), L=L)
    params = {}
    for item in filter(None, body.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise ParseError(f"bad picard source parameter {item!r} in {spec!r}")
        params[key.strip()] = value.strip()

    def number(key, default):
        value = params.pop(key, default)
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"non-numeric {key} {value!r} in picard source "
                             f"{spec!r}") from None

    if name == "sin_of_u":
        src = NonlinearSources.sin_of_u(number("scale", 0.1), L=L)
    elif name == "linear_in_u":
        src = NonlinearSources.linear_in_u(number("coeff", 0.1), L=L)
    else:
        raise ParseError(f"unknown picard source {spec!r}")
    if params:
        raise ParseError(f"unknown picard source parameter(s) {sorted(params)} "
                         f"in {spec!r}")
    return src


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
    handlers = {"run-spde": cmd_run_spde, "run-filter": cmd_run_filter,
                "sweep-commutator": cmd_sweep_commutator,
                "picard": cmd_picard, "check": cmd_check}
    try:
        return handlers[args.subcommand](args)
    except SpdelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
