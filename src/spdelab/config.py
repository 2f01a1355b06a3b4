"""Scenario configuration: a flat INI-style text format, strictly validated.

Sections and keys (all values are plain scalars, space-separated vectors, or
field specs 'family:key=val,...'):

    [run]           name, seed, particle_seed, direction_seed
    [grid]          dim, x_min, x_max, n, boundary
    [time]          dt, t_end, output_times, theta, store_every
    [coefficients]  L, a (or a11 a12 a22), b (or b1 b2), c, f,
                    sigma0..k, h0..k, g0..k, sigma_hat0..k, mollify
    [initial]       u0
    [filter]        kind, A, Q, H, R, prior_mean, prior_var, t_end, dt,
                    n_particles
    [picard]        f, tol, max_iter
    [checks]        positivity_tol, run

Unknown sections or keys are rejected at parse time, and the model
invariants run immediately so a bad scenario never reaches a solver.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .families import parse_field
from .grids import Grid
from .model import CoefficientSet

_SECTION_KEYS = {
    "run": {"name", "seed", "particle_seed", "direction_seed"},
    "grid": {"dim", "x_min", "x_max", "n", "boundary"},
    "time": {"dt", "t_end", "output_times", "theta", "store_every"},
    "coefficients": None,  # validated by pattern below
    "initial": {"u0"},
    "filter": {"kind", "A", "Q", "H", "R", "prior_mean", "prior_var",
               "t_end", "dt", "n_particles"},
    "picard": {"f", "tol", "max_iter"},
    "checks": {"positivity_tol", "run"},
}
_COEFF_KEY = re.compile(
    r"^(L|a|a11|a12|a22|b|b1|b2|c|f|mollify|(sigma|h|g|sigma_hat)\d+(_[12])?)$")


@dataclass
class ScenarioBundle:
    name: str
    grid: Grid
    dt: float
    t_end: float
    output_times: list
    theta: float
    store_every: int
    coeffs: CoefficientSet | None
    u0_field: object
    seeds: dict
    filter_params: dict = field(default_factory=dict)
    picard_params: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    mollify_epsilon: float | None = None
    raw: dict = field(default_factory=dict)

    def manifest_parameters(self) -> dict:
        return dict(self.raw)


def parse_config(source) -> ScenarioBundle:
    """Parse a config file path or literal text into a validated bundle."""
    text = source
    try:
        import os
        if isinstance(source, (str, bytes)) and os.path.exists(source):
            with open(source) as fh:
                text = fh.read()
        elif hasattr(source, "read_text"):
            text = source.read_text()
    except OSError:
        pass
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#",), strict=True)
    cp.optionxform = str  # keys are case-sensitive (L vs l, A/Q/H/R)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"config parse failure: {exc}") from None

    raw = {}
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ParseError(f"unknown section [{section}]")
        allowed = _SECTION_KEYS[section]
        for key in cp[section]:
            if allowed is None:
                if not _COEFF_KEY.match(key):
                    raise ParseError(f"unknown key '{key}' in [{section}]")
            elif key not in allowed:
                raise ParseError(f"unknown key '{key}' in [{section}]")
            raw[f"{section}.{key}"] = cp[section][key]

    def get(section, key, default=None):
        return cp.get(section, key, fallback=default)

    def get_float(section, key, default=None):
        v = get(section, key)
        if v is None:
            return default
        try:
            return float(v)
        except ValueError:
            raise ParseError(f"non-numeric value for {section}.{key}: {v!r}") from None

    def get_int(section, key, default=None):
        v = get(section, key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError:
            raise ParseError(f"non-integer value for {section}.{key}: {v!r}") from None

    # grid
    dim = get_int("grid", "dim", 1)
    if dim not in (1, 2):
        raise ValidationError("grid.dim must be 1 or 2")

    def vec(section, key, default, conv=float):
        """One value per axis; a single value broadcasts to every axis."""
        v = get(section, key)
        if v is None:
            return (default,) * dim
        try:
            parts = tuple(conv(t) for t in v.split())
        except ValueError:
            raise ParseError(f"non-numeric value for {section}.{key}: {v!r}") from None
        return parts * dim if len(parts) == 1 else parts  # Grid checks the length

    boundary = get("grid", "boundary", "zero-flux")
    grid = Grid(dim, vec("grid", "x_min", -8.0), vec("grid", "x_max", 8.0),
                vec("grid", "n", 64, int), boundary)

    # time
    dt = get_float("time", "dt", 1e-3)
    t_end = get_float("time", "t_end", 0.25)
    theta = get_float("time", "theta", 1.0)
    store_every = get_int("time", "store_every", 0)
    out_raw = get("time", "output_times")
    output_times = ([float(t) for t in out_raw.split()] if out_raw else [t_end])

    # coefficients
    L = get_int("coefficients", "L", 1)
    coeffs = None
    mollify_epsilon = get_float("coefficients", "mollify")
    if cp.has_section("coefficients"):
        def fld(key):
            v = get("coefficients", key)
            return parse_field(v, dim) if v is not None else None

        def per_driver(prefix):
            out = []
            for l in range(L):
                if dim == 1:
                    out.append(fld(f"{prefix}{l}"))
                else:
                    pair = (fld(f"{prefix}{l}_1"), fld(f"{prefix}{l}_2"))
                    out.append(None if pair[0] is None and pair[1] is None else
                               tuple(p if p is not None else parse_field("zero", dim)
                                     for p in pair))
            if all(v is None for v in out):
                return None
            return [v if v is not None else
                    (parse_field("zero", dim) if dim == 1 else
                     (parse_field("zero", dim),) * dim) for v in out]

        if dim == 1:
            a_spec = fld("a")
            b_spec = fld("b")
        else:
            a_spec = (fld("a11") or parse_field("zero", 2),
                      fld("a12") or parse_field("zero", 2),
                      fld("a22") or parse_field("zero", 2))
            b_spec = (fld("b1") or parse_field("zero", 2),
                      fld("b2") or parse_field("zero", 2))
        coeffs = CoefficientSet.from_fields(
            d=dim, L=L, a=a_spec, b=b_spec, c=fld("c"), f=fld("f"),
            sigma=per_driver("sigma"), h=per_driver("h"), g=per_driver("g"),
            sigma_hat=per_driver("sigma_hat"),
            label=get("run", "name", "scenario"))
        times_probe = [0.0, t_end / 2 if t_end else 0.0]
        probe = Grid(dim, grid.x_min, grid.x_max,
                     tuple(max(16, n // 8) for n in grid.n), boundary)
        coeffs.validate(probe, times_probe)

    u0_field = None
    if cp.has_option("initial", "u0"):
        u0_field = parse_field(get("initial", "u0"), dim)

    seeds = {"path": get_int("run", "seed", 0),
             "particles": get_int("run", "particle_seed", 1),
             "directions": get_int("run", "direction_seed", 2)}

    filter_params = {}
    if cp.has_section("filter"):
        filter_params = {
            "kind": get("filter", "kind", "linear-gaussian"),
            "A": get_float("filter", "A", -0.5),
            "Q": get_float("filter", "Q", 1.0),
            "H": get_float("filter", "H", 1.0),
            "R": get_float("filter", "R", 1.0),
            "prior_mean": get_float("filter", "prior_mean", 0.0),
            "prior_var": get_float("filter", "prior_var", 1.0),
            "t_end": get_float("filter", "t_end", t_end),
            "dt": get_float("filter", "dt", dt),
            "n_particles": get_int("filter", "n_particles", 0),
        }
        if filter_params["kind"] != "linear-gaussian":
            raise ParseError(f"unsupported filter kind {filter_params['kind']!r}")

    picard_params = {}
    if cp.has_section("picard"):
        picard_params = {"f": get("picard", "f", "none"),
                         "tol": get_float("picard", "tol", 1e-8),
                         "max_iter": get_int("picard", "max_iter", 50)}

    checks = {}
    if cp.has_section("checks"):
        checks = {"positivity_tol": get_float("checks", "positivity_tol", 1e-8),
                  "run": get("checks", "run", "all")}

    name = get("run", "name", "scenario")
    # structural validation of the time grid
    if dt <= 0:
        raise ValidationError("time.dt must be positive")
    for t in output_times:
        k = round(t / dt)
        if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValidationError(f"output time {t} is not a multiple of dt")

    return ScenarioBundle(name=name, grid=grid, dt=dt, t_end=t_end,
                          output_times=output_times, theta=theta,
                          store_every=store_every, coeffs=coeffs,
                          u0_field=u0_field, seeds=seeds,
                          filter_params=filter_params,
                          picard_params=picard_params, checks=checks,
                          mollify_epsilon=mollify_epsilon, raw=raw)
