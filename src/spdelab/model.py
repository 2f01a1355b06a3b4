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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError, ValidationError
from .families import ScalarField
from .grids import Grid

SIGMA_HAT_RTOL = 1e-12
PARABOLIC_TOL = 1e-12
_FD_STEP = 1e-3  # 4th-order central differences for missing derivative hooks


def _fd_grad(fn, t, x, dim):
    """4th-order central difference gradient of a scalar-valued field callable."""
    g = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = _FD_STEP
        g.append((fn(t, x - 2 * e) - 8 * fn(t, x - e)
                  + 8 * fn(t, x + e) - fn(t, x + 2 * e)) / (12 * _FD_STEP))
    return np.stack(g, axis=-1)


class CoefficientSet:
    """Immutable bundle of coefficient/source callables with fixed shapes.

    Every callable takes ``(t, x)`` with ``x`` of shape (m, d) and returns:

        a -> (m, d, d)    b -> (m, d)    c -> (m,)
        sigma -> (m, d, L)    h -> (m, L)
        f -> (m,)    g -> (m, L)    sigma_hat -> (m, d, L') (optional)

    Derivative hooks (``da`` = d_j a^{ij} as (m, d), ``div_b`` as (m,),
    ``div_sigma`` = d_i sigma^{il} as (m, L), ``grad_h`` as (m, d, L)) default
    to 4th-order central differences of the primary callables.

    ``time_dependent = False`` is a contract: no callable depends on ``t``.
    The solve paths then build the operators and evaluate ``f``, ``g`` and
    ``h`` once per run and reuse the values at every step; a set whose
    fields do vary in time must be flagged ``time_dependent = True``.
    """

    def __init__(self, d, L, a, b, c, sigma, h, f, g, sigma_hat=None,
                 da=None, div_b=None, div_sigma=None, grad_h=None,
                 time_dependent=False, label=""):
        self.d = int(d)
        self.L = int(L)
        self.a, self.b, self.c = a, b, c
        self.sigma, self.h = sigma, h
        self.f, self.g = f, g
        self.sigma_hat = sigma_hat
        self.time_dependent = bool(time_dependent)
        self.label = label
        self.da = da or (lambda t, x: self._fd_da(t, x))
        self.div_b = div_b or (lambda t, x: self._fd_div_b(t, x))
        self.div_sigma = div_sigma or (lambda t, x: self._fd_div_sigma(t, x))
        self.grad_h = grad_h or (lambda t, x: self._fd_grad_h(t, x))

    # fallback finite-difference derivative hooks
    def _fd_da(self, t, x):
        cols = [_fd_grad(lambda tt, xx, j=j: self.a(tt, xx)[:, :, j], t, x, self.d)
                for j in range(self.d)]
        # cols[j][:, i, k] = d_k a^{ij}; want sum_j d_j a^{ij}
        return sum(cols[j][:, :, j] for j in range(self.d))

    def _fd_div_b(self, t, x):
        g = _fd_grad(lambda tt, xx: self.b(tt, xx), t, x, self.d)  # (m, d_comp, d_dir)
        return np.einsum("mii->m", g)

    def _fd_div_sigma(self, t, x):
        g = _fd_grad(lambda tt, xx: self.sigma(tt, xx), t, x, self.d)  # (m, d, L, d)
        return np.einsum("mili->ml", g)

    def _fd_grad_h(self, t, x):
        g = _fd_grad(lambda tt, xx: self.h(tt, xx), t, x, self.d)  # (m, L, d)
        return np.transpose(g, (0, 2, 1))

    def validate(self, grid: Grid, times) -> None:
        """Run the structural invariants on grid x times samples."""
        X = grid.points()
        for t in times:
            names = [("a", self.a(t, X)), ("b", self.b(t, X)), ("c", self.c(t, X)),
                     ("sigma", self.sigma(t, X)), ("h", self.h(t, X)),
                     ("f", self.f(t, X)), ("g", self.g(t, X))]
            if self.sigma_hat is not None:
                names.append(("sigma_hat", self.sigma_hat(t, X)))
            for name, arr in names:
                if not np.all(np.isfinite(arr)):
                    raise EvaluationError(f"field '{name}' is non-finite at t={t}")
            A = dict(names)["a"]
            if not np.allclose(A, np.transpose(A, (0, 2, 1)), rtol=0, atol=1e-14):
                raise ValidationError("a(t,x) must be symmetric at all sampled points")
            if self.sigma_hat is not None:
                S = dict(names)["sigma_hat"]
                AA = np.einsum("mik,mjk->mij", S, S)  # sigma_hat sigma_hat^T
                scale = np.maximum(np.max(np.abs(A)), 1e-300)
                if np.max(np.abs(AA - A)) > SIGMA_HAT_RTOL * scale:
                    raise ValidationError(
                        "sigma_hat inconsistent: a != sigma_hat sigma_hat^T "
                        f"(max deviation {np.max(np.abs(AA - A)):.3e})")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_fields(cls, d=1, L=1, a=None, b=None, c=None, sigma=None, h=None,
                    f=None, g=None, sigma_hat=None, label=""):
        """Build from ScalarFields (or plain numbers for constants; None is 0).

        For d = 1, ``a``..``g`` are single fields and ``sigma``/``h``/``g``/
        ``sigma_hat`` may be lists over the driver index.  For d = 2, ``a`` is
        given as (a11, a12, a22), ``b`` as (b1, b2), and each sigma^l (and
        sigma_hat^l) as a pair.  Driver lists are padded with zeros to L.
        Internally every coefficient is one nested list of fields: a is d x d,
        b is d, sigma and sigma_hat are d x L, h and g are L, c and f scalars.
        """
        def F(v):
            if isinstance(v, ScalarField):
                return v
            return ScalarField("constant", d, value=0.0 if v is None else float(v))

        def drivers(v):
            v = list(v) if isinstance(v, (list, tuple)) else [] if v is None else [v]
            return (v + [None] * L)[:L]

        def columns(v):                       # d x L, driver l in column l
            cols = [(e,) if d == 1 else e or (None,) * d for e in drivers(v)]
            return [[F(col[i]) for col in cols] for i in range(d)]

        if d == 1:
            A, B = [[F(a)]], [F(b)]
        else:
            a11, a12, a22 = (F(v) for v in (a or (None,) * 3))
            A, B = [[a11, a12], [a12, a22]], [F(v) for v in (b or (None,) * 2)]
        S = columns(sigma)
        H = [F(v) for v in drivers(h)]

        def values(tree):
            return lambda t, x: _evaluate(tree, lambda fld: fld(x))

        def divergence(rows):
            return lambda t, x: _divergence(rows, x)

        return cls(d, L, values(A), values(B), values(F(c)), values(S), values(H),
                   values(F(f)), values([F(v) for v in drivers(g)]),
                   sigma_hat=None if sigma_hat is None else values(columns(sigma_hat)),
                   da=divergence([list(col) for col in zip(*A)]),
                   div_b=divergence(B), div_sigma=divergence(S),
                   grad_h=lambda t, x: np.stack([fld.grad(x) for fld in H], axis=2),
                   time_dependent=False, label=label)


def _evaluate(tree, leaf):
    """``leaf(field)`` over a nested list of fields: each list level stacks
    its entries on axis 1, so a d x L tree gives an (m, d, L) array."""
    if isinstance(tree, list):
        return np.stack([_evaluate(sub, leaf) for sub in tree], axis=1)
    return leaf(tree)


def _divergence(rows, x):
    """sum_k d_k rows[k], each rows[k] a nested list of fields, accumulated
    from zero in k order."""
    out = 0.0
    for k, tree in enumerate(rows):
        out = out + _evaluate(tree, lambda fld: fld.grad(x)[:, k])
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

@dataclass
class ParabolicityReport:
    """Outcome of the parabolic quadratic form at the sampled (t, x).

    ``min_defect`` is its exact minimum over unit directions and the sampled
    points: the smallest eigenvalue of 2a - sigma sigma' found there.
    """

    min_defect: float
    tol: float = PARABOLIC_TOL

    @property
    def passes(self) -> bool:
        return self.min_defect >= -self.tol


def verify_parabolicity(coeffs: CoefficientSet, grid: Grid, times) -> ParabolicityReport:
    """Exact minimum of the defect over unit directions at every grid point
    and time; passes when it is >= -1e-12."""
    times = list(times)
    if grid.npts == 0 or not times:
        raise ConfigurationError("verify_parabolicity needs a nonempty grid and times")
    X = grid.points()

    def fields(t):
        A, S = coeffs.a(t, X), coeffs.sigma(t, X)
        for name, arr in (("a", A), ("sigma", S)):
            if not np.all(np.isfinite(arr)):
                raise EvaluationError(f"field '{name}' is non-finite at t={t}")
        return A, S
    return _worst_defect(map(fields, times), PARABOLIC_TOL)


def _worst_defect(samples, tol: float) -> ParabolicityReport:
    """Smallest eigenvalue of 2a - sigma sigma' over (a, sigma) samples of
    shapes (m, d, d) and (m, d, L): per point, the minimum of the defect over
    unit directions xi."""
    worst = min(float(np.min(np.linalg.eigvalsh(2.0 * A - np.einsum("mil,mjl->mij", S, S))))
                for A, S in samples)
    return ParabolicityReport(min_defect=worst, tol=tol)
