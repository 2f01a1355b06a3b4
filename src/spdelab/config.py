"""Scenario configuration: a flat INI-style text format, strictly validated.

Sections and keys (all values are plain scalars, space-separated vectors, or
field specs 'family:key=val,...'):

    [run]           name, seed
    [grid]          dim, x_min, x_max, n
    [time]          dt, t_end, output_times
    [coefficients]  L and the field keys of _coefficient_keys(dim, L)
    [initial]       u0
    [filter]        A, Q, H, R, prior_mean, prior_var
    [picard]        f (none, sin_of_u:scale=.. or linear_in_u:coeff=..), tol, max_iter

``parse_config`` is the one reader of this text: it returns the run's inputs
as objects (a ``CoefficientSet``, the ``u0`` field, a linear-Gaussian
``FilterScenario`` on the ``[time]`` step and horizon, the Picard source
f(u) as a ``NonlinearSources`` kind and number), so a command only picks the
ones it runs.  A source that does not depend on u is ``[coefficients] f``.
Unknown sections or keys, and coefficient keys that the file's dim and L do
not define, are rejected at parse time; numbers must be finite, and
output_times must end at t_end.  Four sizes are refused with ``SizeError``
before the memory they name, each above 2e8 values: here, the grid points,
and, with [coefficients], the driver count L, when the driver path (steps x
L) or one sigma sample (grid points x dim x L) is larger; in ``cli``, a
run-spde or picard history of (steps + 1) x grid points; and in
``filtering.simulate_truth``, a run-filter truth path of 2 x steps
increments.  The model invariants and the range checks run immediately, on
a probe grid of at most ``PROBE_MAX_N`` points per axis, so a bad scenario
never reaches a solver.  The CLI reads the file and refuses a section or key
that its command does not read.  There is no key for the scheme or the
walls: every run steps backward Euler on zero-flux walls.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ParseError, SizeError, ValidationError
from .families import parse_field
from .filtering import FilterScenario
from .grids import Grid
from .model import CoefficientSet
from .noise import _MAX_ELEMENTS
from .picard import NonlinearSources

# points per axis of the grid the coefficients are validated on at parse
# time: n // 8, at least 16 and at most this, so the probe stays small
# however large the run's grid is
PROBE_MAX_N = 256

_SECTION_KEYS = {
    "run": {"name", "seed"},
    "grid": {"dim", "x_min", "x_max", "n"},
    "time": {"dt", "t_end", "output_times"},
    "coefficients": None,  # the keys of _coefficient_keys(dim, L)
    "initial": {"u0"},
    "filter": {"A", "Q", "H", "R", "prior_mean", "prior_var"},
    "picard": {"f", "tol", "max_iter"},
}


def _coefficient_keys(dim: int, L: int) -> dict:
    """The [coefficients] field keys for ``dim`` and ``L``, laid out as the
    arguments of ``CoefficientSet.from_fields``: a key per scalar, a tuple
    per vector, a list over the drivers l < L.  dim 1: a b c f, sigma<l>
    h<l> g<l>; dim 2: a11 a12 a22 b1 b2 c f, sigma<l>_1 sigma<l>_2 h<l>
    g<l>."""
    def pair(name, sep):
        return name if dim == 1 else (f"{name}{sep}1", f"{name}{sep}2")
    return {"a": "a" if dim == 1 else ("a11", "a12", "a22"), "b": pair("b", ""),
            "c": "c", "f": "f",
            "sigma": [pair(f"sigma{l}", "_") for l in range(L)],
            "h": [f"h{l}" for l in range(L)], "g": [f"g{l}" for l in range(L)]}


def _leaves(keys):
    """Every name in a nested layout of names, tuples and lists."""
    for key in keys:
        yield from (key,) if isinstance(key, str) else _leaves(key)


@dataclass
class ScenarioBundle:
    """A run's inputs.  Without [coefficients], [initial] or [filter] the
    matching object is None; the [picard] values always have defaults."""

    name: str
    grid: Grid
    dt: float
    output_times: list   # ends at [time] t_end
    coeffs: CoefficientSet | None
    u0_field: object
    seeds: dict
    sources: NonlinearSources    # [picard] f, the zero source by default
    tol: float
    max_iter: int
    filter: FilterScenario | None = None
    sections: tuple = ()
    raw: dict = field(default_factory=dict)  # section.key -> text, hashed


def parse_config(text: str) -> ScenarioBundle:
    """Parse config text into a validated bundle."""
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
            if allowed is not None and key not in allowed:
                raise ParseError(f"unknown key '{key}' in [{section}]")
            raw[f"{section}.{key}"] = cp[section][key]

    def get(section, key, default=None):
        return cp.get(section, key, fallback=default)

    def numbers(section, key, conv=float):
        """The space-separated values of a key, each a finite ``conv``."""
        v = get(section, key)
        try:
            parts = [conv(t) for t in v.split()]
            ok = conv is int or all(map(math.isfinite, parts))
        except ValueError:
            ok = False
        if not ok:
            kind = "an integer" if conv is int else "a finite number"
            raise ParseError(f"{section}.{key} takes {kind} per entry, got {v!r}")
        return parts

    def number(section, key, default, conv=float):
        if get(section, key) is None:
            return default
        parts = numbers(section, key, conv)
        if len(parts) != 1:
            raise ParseError(f"{section}.{key} takes one value, got {get(section, key)!r}")
        return parts[0]

    # grid
    dim = number("grid", "dim", 1, int)
    if dim not in (1, 2):
        raise ValidationError("grid.dim must be 1 or 2")

    def vec(key, default, conv=float):
        """One value per axis; a single value broadcasts to every axis."""
        if get("grid", key) is None:
            return (default,) * dim
        parts = tuple(numbers("grid", key, conv))
        return parts * dim if len(parts) == 1 else parts  # Grid checks the length

    grid = Grid(dim, vec("x_min", -8.0), vec("x_max", 8.0), vec("n", 64, int))
    if grid.npts > _MAX_ELEMENTS:
        raise SizeError(f"a grid of {' x '.join(map(str, grid.n))} points exceeds "
                        f"the safety limit of {_MAX_ELEMENTS} points")

    # time
    dt = number("time", "dt", 1e-3)
    t_end = number("time", "t_end", 0.25)
    output_times = (numbers("time", "output_times")
                    if get("time", "output_times") else [t_end])
    if dt <= 0:
        raise ValidationError("time.dt must be positive")
    for t in [t_end, *output_times]:
        if not 0 <= t / dt < math.inf:
            raise ValidationError(f"time: time {t} is not a finite, "
                                  f"nonnegative number of dt = {dt} steps")
    for t in output_times:
        k = round(t / dt)
        if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValidationError(f"output time {t} is not a multiple of dt")
        if t > t_end:
            raise ValidationError(f"output time {t} is past t_end = {t_end}")
    if output_times[-1] != t_end:
        raise ValidationError(f"the last output time {output_times[-1]} is not "
                              f"t_end = {t_end}")

    # coefficients: exactly the keys this file's dim and L define
    L = number("coefficients", "L", 1, int)
    if L < 1:
        raise ValidationError(f"coefficients.L must be at least 1, got {L}")
    coeffs = None
    if cp.has_section("coefficients"):
        # the driver path and one sigma sample, before any per-driver work
        steps = round(t_end / dt)
        for what, per_driver in [("driver path", steps), ("sigma sample", grid.npts * dim)]:
            if per_driver * L > _MAX_ELEMENTS:
                raise SizeError(f"a {what} of {per_driver} x {L} values exceeds the "
                                f"safety limit of {_MAX_ELEMENTS} values")
        layout = _coefficient_keys(dim, L)
        given = set(cp["coefficients"])
        undefined = sorted(given - set(_leaves(layout.values())) - {"L"})
        if undefined:
            raise ParseError(f"key '{undefined[0]}' in [coefficients] is not "
                             f"defined for dim = {dim} and L = {L}")

        def fields(keys):
            if isinstance(keys, str):
                return parse_field(get("coefficients", keys), dim) if keys in given else None
            return type(keys)(map(fields, keys))

        coeffs = CoefficientSet.from_fields(
            d=dim, L=L, **{name: fields(keys) for name, keys in layout.items()})
        probe = Grid(dim, grid.x_min, grid.x_max,
                     tuple(min(max(16, n // 8), PROBE_MAX_N) for n in grid.n))
        coeffs.validate(probe, [0.0])   # from_fields sets are time independent

    u0_field = None
    if cp.has_section("initial"):
        if not cp.has_option("initial", "u0"):
            raise ParseError("[initial] lacks u0")
        u0_field = parse_field(get("initial", "u0"), dim)

    seeds = {"path": number("run", "seed", 0, int)}
    if seeds["path"] < 0:
        raise ValidationError("run.seed must be nonnegative")

    filter_scenario = None
    if cp.has_section("filter"):
        if dim != 1:
            raise ValidationError(f"the linear-Gaussian [filter] is 1-d, got grid.dim = {dim}")
        filter_scenario = FilterScenario.linear_gaussian(
            A=number("filter", "A", -0.5), Q=number("filter", "Q", 1.0),
            H=number("filter", "H", 1.0), R=number("filter", "R", 1.0),
            prior_mean=number("filter", "prior_mean", 0.0),
            prior_var=number("filter", "prior_var", 1.0))

    sources = NonlinearSources.from_spec(get("picard", "f", "none"))
    tol = number("picard", "tol", 1e-8)
    max_iter = number("picard", "max_iter", 50, int)
    if tol <= 0 or max_iter < 1:
        raise ValidationError(f"picard.tol must be positive and picard.max_iter at "
                              f"least 1, got {tol} and {max_iter}")

    name = get("run", "name", "scenario")

    return ScenarioBundle(name=name, grid=grid, dt=dt,
                          output_times=output_times, coeffs=coeffs,
                          u0_field=u0_field, seeds=seeds, sources=sources,
                          tol=tol, max_iter=max_iter, filter=filter_scenario,
                          sections=tuple(cp.sections()), raw=raw)
