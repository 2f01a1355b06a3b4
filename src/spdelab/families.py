"""Parametric scalar-field families used to declare scenario coefficients.

Scenarios must be serializable, so coefficients are not arbitrary code but
members of a small set of named families (constant, affine, sinusoidal,
piecewise-linear, gaussian).  Every family knows its own spatial gradient,
which is what the operator assembly and the adjoint computations consume.
Fields are functions of space only; time dependence enters elsewhere (e.g.
the Picard iteration's frozen sources close over the previous sweep).
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError, ParseError

FAMILY_PARAMS = {"constant": {"value"}, "affine": {"c0", "slope"},
                 "sinusoidal": {"amp", "freq", "phase", "offset"},
                 "pwlinear": {"xs", "ys"}, "gaussian": {"amp", "center", "width"}}
FAMILY_NAMES = tuple(FAMILY_PARAMS)
VECTOR_PARAMS = {"slope", "freq", "center", "xs", "ys"}


def _as_points(x, dim):
    """Normalize point input to an (m, dim) array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    if x.shape[-1] != dim:
        raise EvaluationError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


class ScalarField:
    """One scalar coefficient field from a named parametric family.

    ``field(x)`` evaluates at points ``x`` of shape (m,) for 1-d or (m, d);
    ``field.grad(x)`` returns the spatial gradient with shape (m, d).
    """

    def __init__(self, family: str, dim: int, **params):
        if family not in FAMILY_NAMES:
            raise ParseError(f"unknown field family '{family}'")
        self.family = family
        self.dim = int(dim)
        self.params = params
        self._check_params()

    def _check_params(self):
        p = self.params
        d = self.dim
        unknown = sorted(set(p) - FAMILY_PARAMS[self.family])
        if unknown:
            raise ParseError(f"unknown {self.family} parameter(s) {unknown}")
        for key in set(p) - VECTOR_PARAMS:
            if np.ndim(p[key]) != 0:
                raise ParseError(f"{self.family} {key} takes one value")
        if self.family == "constant":
            p.setdefault("value", 0.0)
        elif self.family == "affine":
            p.setdefault("c0", 0.0)
            self._per_axis("slope", 0.0)
        elif self.family == "sinusoidal":
            p.setdefault("amp", 1.0)
            p.setdefault("phase", 0.0)
            p.setdefault("offset", 0.0)
            self._per_axis("freq", 1.0)
        elif self.family == "pwlinear":
            if d != 1:
                raise ParseError("pwlinear fields are 1-d only")
            if not {"xs", "ys"} <= set(p):
                raise ParseError("pwlinear needs both xs and ys knots")
            xs = np.asarray(p["xs"], dtype=float)
            ys = np.asarray(p["ys"], dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
                raise ParseError("pwlinear needs matching xs/ys with >= 2 knots")
            if np.any(np.diff(xs) <= 0):
                raise ParseError("pwlinear knots must be strictly increasing")
            with np.errstate(over="ignore"):
                slopes = np.diff(ys) / np.diff(xs)
            if not np.all(np.isfinite(slopes)):
                raise ParseError("pwlinear knots are too close: a slope overflows")
            p["xs"], p["ys"] = xs, ys
        elif self.family == "gaussian":
            p.setdefault("amp", 1.0)
            p.setdefault("width", 1.0)
            self._per_axis("center", 0.0)
            if p["width"] <= 0:
                raise ParseError("gaussian width must be positive")

    def _per_axis(self, key, default):
        """One value per axis; a single value broadcasts to every axis."""
        v = np.atleast_1d(np.asarray(self.params.get(key, default), dtype=float))
        if v.shape not in ((1,), (self.dim,)):
            raise ParseError(f"{self.family} {key} takes {self.dim} value(s) or one "
                             f"for every axis, got {v.size}")
        self.params[key] = np.broadcast_to(v, (self.dim,)).copy()

    def __call__(self, x):
        x = _as_points(x, self.dim)
        p = self.params
        if self.family == "constant":
            return np.full(x.shape[0], float(p["value"]))
        if self.family == "affine":
            return p["c0"] + x @ p["slope"]
        if self.family == "sinusoidal":
            return p["amp"] * np.sin(x @ p["freq"] + p["phase"]) + p["offset"]
        if self.family == "pwlinear":
            # constant extension outside the knot range
            return np.interp(x[:, 0], p["xs"], p["ys"])
        # gaussian
        r2 = np.sum((x - p["center"]) ** 2, axis=1)
        return p["amp"] * np.exp(-r2 / (2.0 * p["width"] ** 2))

    def grad(self, x):
        x = _as_points(x, self.dim)
        m, d = x.shape
        p = self.params
        if self.family == "constant":
            return np.zeros((m, d))
        if self.family == "affine":
            return np.tile(p["slope"], (m, 1))
        if self.family == "sinusoidal":
            core = p["amp"] * np.cos(x @ p["freq"] + p["phase"])
            return core[:, None] * p["freq"][None, :]
        if self.family == "pwlinear":
            xs, ys = p["xs"], p["ys"]
            slopes = np.diff(ys) / np.diff(xs)
            idx = np.clip(np.searchsorted(xs, x[:, 0], side="right") - 1, 0, len(slopes) - 1)
            g = slopes[idx]
            g = np.where((x[:, 0] < xs[0]) | (x[:, 0] > xs[-1]), 0.0, g)
            return g[:, None]
        # gaussian
        val = self(x)
        return -(x - p["center"]) / p["width"] ** 2 * val[:, None]


def parse_field(text: str, dim: int) -> ScalarField:
    """Parse 'family:key=val,key=val' (or 'constant:0.5')."""
    text = text.strip()
    name, _, body = text.partition(":")
    name = name.strip()
    if name not in FAMILY_NAMES:
        raise ParseError(f"unknown field family '{name}' in {text!r}")
    params = {}
    body = body.strip()
    if body:
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                if name == "constant" and "value" not in params:
                    params["value"] = _parse_value(item, text)
                    continue
                raise ParseError(f"bad field parameter {item!r} in {text!r}")
            key, _, raw = item.partition("=")
            params[key.strip()] = _parse_value(raw, text)
    try:
        return ScalarField(name, dim, **params)
    except (ParseError, TypeError) as exc:   # TypeError: a key named dim or family
        raise ParseError(f"bad parameters for {text!r}: {exc}") from None


def _parse_value(raw, context):
    parts = raw.split()
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise ParseError(f"non-numeric value {raw!r} in {context!r}") from None
    if not vals:
        raise ParseError(f"empty value in {context!r}")
    return vals[0] if len(vals) == 1 else np.asarray(vals)


def triangle_wave() -> ScalarField:
    """Piecewise-linear triangle wave of period 2 and unit amplitude: knots
    at the integers -41..41, valued 0 at the even ones and 1 at the odd."""
    k = np.arange(-41, 42)
    return ScalarField("pwlinear", 1, xs=k * 1.0, ys=(k % 2).astype(float))
