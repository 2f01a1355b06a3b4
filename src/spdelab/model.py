"""Coefficient data model for the drift-diffusion operator and its noise
operators, plus the parabolicity predicate.

The generator acts in divergence form,

    L u = d_i(a^{ij} d_j u) + d_i(b^i u) + c u,

and each noise operator is first order,

    M^l u = sigma^{il} d_i u + h^l u,      l = 0..L-1.

The central quadratic form is

    defect(t, x, xi) = 2 xi'a xi - sum_l (sigma' xi)_l^2,

which must be nonnegative for the estimates downstream to hold;
``verify_parabolicity`` takes its exact minimum over unit directions, the
smallest eigenvalue of 2a - sigma sigma', at every sampled (t, x).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, EvaluationError, ValidationError
from .families import ScalarField
from .grids import Grid

PARABOLIC_TOL = 1e-12
SYMMETRY_TOL = 1e-14   # largest |a^{ij} - a^{ji}| that ``CoefficientSet.sample`` accepts
# each field's sample axes after the point axis, by attribute name (d or L)
_AXES = dict(a="dd", b="d", c="", sigma="dL", h="L", f="", g="L", da="d", div_sigma="L")


class CoefficientSet:
    """Immutable bundle of coefficient/source callables with fixed shapes.

    Every callable takes ``(t, x)`` with ``x`` of shape (m, d) and returns:

        a -> (m, d, d)    b -> (m, d)    c -> (m,)
        sigma -> (m, d, L)    h -> (m, L)
        f -> (m,)    g -> (m, L)

    Derivative hooks (``da`` = d_j a^{ij} as (m, d), ``div_sigma`` =
    d_i sigma^{il} as (m, L)) are the ones ``solver.weak_residual`` reads;
    a set built without them has them as None.  These shapes are enforced:
    every evaluation goes through ``sample``.

    ``time_dependent = False`` is a contract: no callable depends on ``t``.
    The solve paths then build the operators and evaluate ``f``, ``g`` and
    ``h`` once per run and reuse the values at every step; a set whose
    fields do vary in time must be flagged ``time_dependent = True``.
    """

    # perfbench's tracer wraps these names on every set; nothing else reads them
    sigma_hat = div_b = grad_h = None

    def __init__(self, d, L, a, b, c, sigma, h, f, g, da=None, div_sigma=None,
                 time_dependent=False):
        self.d = int(d)
        self.L = int(L)
        self.a, self.b, self.c = a, b, c
        self.sigma, self.h = sigma, h
        self.f, self.g = f, g
        self.da, self.div_sigma = da, div_sigma
        self.time_dependent = bool(time_dependent)

    def sample(self, name: str, t: float, X: np.ndarray) -> np.ndarray:
        """Field ``name`` at time t on the points X (m, d), from one call:
        refused with EvaluationError when it is not of its documented shape
        or not finite everywhere, and, for ``a``, with ValidationError when
        a^{ij} and a^{ji} differ by more than ``SYMMETRY_TOL``."""
        out = np.asarray(getattr(self, name)(t, X))
        shape = (len(X), *(getattr(self, k) for k in _AXES[name]))
        if out.shape != shape:
            raise EvaluationError(f"field '{name}' has shape {out.shape} at t={t}, "
                                  f"not {shape}")
        if not np.isfinite(out).all():
            raise EvaluationError(f"field '{name}' is non-finite at t={t}")
        if name == "a" and any(np.any(np.abs(out[:, i, j] - out[:, j, i]) > SYMMETRY_TOL)
                               for i in range(self.d) for j in range(i)):
            raise ValidationError(f"field 'a' is not symmetric at t={t}")
        return out

    def validate(self, grid: Grid, times) -> None:
        """Sample every coefficient and source on grid x times."""
        X = grid.points()
        for t in times:
            for name in ("a", "b", "c", "sigma", "h", "f", "g"):
                self.sample(name, t, X)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_fields(cls, d=1, L=1, a=None, b=None, c=None, sigma=None, h=None,
                    f=None, g=None):
        """Build from ScalarFields (or plain numbers for constants; None is 0).

        For d = 1, ``a``..``g`` are single fields and ``sigma``/``h``/``g``
        may be lists over the driver index.  For d = 2, ``a`` is given as
        (a11, a12, a22), ``b`` as (b1, b2), and each sigma^l as a pair.
        A driver list may list fewer than L drivers.  Internally every
        coefficient is one nested list of fields: a is d x d, b is d, sigma
        is d x L, h and g are L, c and f scalars, and an absent entry is
        None, which reads as zeros.  A layout that does not fit d and L is
        refused with ValidationError.
        """
        if d not in (1, 2) or L < 1:
            raise ValidationError(f"from_fields takes d = 1 or 2 and L >= 1, "
                                  f"got d = {d} and L = {L}")

        def F(v):
            if v is None or isinstance(v, ScalarField):
                return v
            return ScalarField("constant", d, value=float(v))

        def entries(name, v, n):
            v = (None,) * n if v is None else v
            if not isinstance(v, (list, tuple)) or len(v) != n:
                raise ValidationError(f"from_fields: {name} needs {n} entries for "
                                      f"d = {d}, got {v!r}")
            return v

        def drivers(name, v):
            v = list(v) if isinstance(v, (list, tuple)) else [] if v is None else [v]
            if len(v) > L:
                raise ValidationError(f"from_fields: {name} lists {len(v)} drivers, "
                                      f"but L = {L} takes at most {L}")
            return v + [None] * (L - len(v))

        if d == 1:
            A, B = [[F(a)]], [F(b)]
            cols = [(e,) for e in drivers("sigma", sigma)]
        else:
            a11, a12, a22 = map(F, entries("a", a, 3))
            A, B = [[a11, a12], [a12, a22]], list(map(F, entries("b", b, 2)))
            cols = [entries(f"sigma[{l}]", e, 2)
                    for l, e in enumerate(drivers("sigma", sigma))]
        S = [[F(col[i]) for col in cols] for i in range(d)]   # driver l in column l

        def values(tree):
            return lambda t, x: _evaluate(tree, lambda fld: fld(x), len(x))

        def divergence(rows):
            return lambda t, x: _divergence(rows, x)

        return cls(d, L, values(A), values(B), values(F(c)), values(S),
                   values([F(v) for v in drivers("h", h)]),
                   values(F(f)), values([F(v) for v in drivers("g", g)]),
                   da=divergence([list(col) for col in zip(*A)]),
                   div_sigma=divergence(S))


def _evaluate(tree, leaf, m):
    """``leaf(field)`` at m points over a nested list of fields: each list
    level is one axis after the point axis, so a d x L tree gives an
    (m, d, L) array.  A None entry is left zero; no field stands for it."""
    fields = np.array(tree, dtype=object)
    out = np.zeros((m, *fields.shape))
    for idx, fld in np.ndenumerate(fields):
        if fld is not None:
            out[(slice(None), *idx)] = leaf(fld)
    return out


def _divergence(rows, x):
    """sum_k d_k rows[k], each rows[k] a nested list of fields, accumulated
    from zero in k order."""
    out = 0.0
    for k, tree in enumerate(rows):
        out = out + _evaluate(tree, lambda fld: fld.grad(x)[:, k], len(x))
    return out


def reuse_if_static(fn, static: bool):
    """``fn`` itself, or for static coefficients a stand-in that calls it on
    first use and returns that value, arrays read-only, on every later call:
    static fields do not depend on the time (or observation) argument."""
    if not static:
        return fn
    memo = []

    def first(*args):
        if not memo:
            memo.append(_read_only(fn(*args)))
        return memo[0]
    return first


def _read_only(value):
    if isinstance(value, tuple):
        return tuple(_read_only(v) for v in value)
    if isinstance(value, np.ndarray):
        value = value.view()   # the caller's own array keeps its flags
        value.flags.writeable = False
    return value


# -- parabolicity ---------------------------------------------------------

def verify_parabolicity(coeffs: CoefficientSet, grid: Grid, times) -> float:
    """Exact minimum of the defect over unit directions at every grid point
    and time: the smallest eigenvalue of 2a - sigma sigma' found there.  The
    condition holds when it is >= -PARABOLIC_TOL."""
    times = list(times)
    if grid.npts == 0 or not times:
        raise ConfigurationError("verify_parabolicity needs a nonempty grid and times")
    X = grid.points()
    return _worst_defect((coeffs.sample("a", t, X), coeffs.sample("sigma", t, X))
                         for t in times)


def _worst_defect(samples) -> float:
    """Smallest eigenvalue of 2a - sigma sigma' over (a, sigma) samples of
    shapes (m, d, d) and (m, d, L): per point, the minimum of the defect over
    unit directions xi."""
    return min(float(np.min(np.linalg.eigvalsh(2.0 * A - np.einsum("mil,mjl->mij", S, S))))
               for A, S in samples)
