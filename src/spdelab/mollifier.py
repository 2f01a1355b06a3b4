"""Regularization machinery: smoothing kernel, plateau cutoff, mollified
coefficients, and the quantitative bounds they obey.

One fixed analytic kernel/cutoff pair is used everywhere so every bound in
the test suite is reproducible:

* kernel  rho(x) = Z exp(-1/(1-|x|^2)) on |x| < 1, zero outside, with Z
  frozen below so the kernel has unit mass (12 digits, high-resolution
  quadrature);
* cutoff  chi_eps(x) = psi(eps |x|) where psi is the smooth transition
  built from the same bump: identically 1 on [0, 1], identically 0 on
  [2, inf), with sup |psi'| = 2 attained at the midpoint.

Discrete convolutions use the sampled kernel over its support, renormalized
to unit mass, so convolution with a constant is exact at any admissible
resolution (the raw quadrature weight error would otherwise leak into every
downstream bound).  A scale eps is admissible on spacing h when eps >= 2h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HypothesisError, UnderResolvedError
from .grids import Grid
from .model import (CoefficientSet, ParabolicityReport, _worst_defect,
                    verify_parabolicity)

# unit-mass normalizations of exp(-1/(1-|x|^2)) on the unit ball
Z_1D = 2.252283621044
Z_2D = 2.143565775792
PSI_SUP_DERIV = 2.0  # sup |psi'| of the fixed transition profile, at r = 3/2
MIN_POINTS_PER_RADIUS = 2


@dataclass(frozen=True)
class MollifierParams:
    """Scale parameter for the fixed kernel/cutoff pair."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0e6:
            raise ConfigurationError(
                f"epsilon must lie in (0, 1e6), got {self.epsilon!r}")

    def require_resolved(self, h: float):
        h = float(np.max(h))
        if self.epsilon < MIN_POINTS_PER_RADIUS * h:
            raise UnderResolvedError(
                f"epsilon={self.epsilon} under-resolved on spacing {h}; "
                f"need epsilon >= {MIN_POINTS_PER_RADIUS * h}",
                required_epsilon=MIN_POINTS_PER_RADIUS * h)


def kernel_value(x, epsilon: float, d: int = 1) -> np.ndarray:
    """Pointwise rho_eps(x) = eps^-d rho(x/eps)."""
    x = np.asarray(x, dtype=float)
    if d == 1:
        r2 = (x / epsilon) ** 2
        Z = Z_1D
    else:
        r2 = np.sum((x / epsilon) ** 2, axis=-1)
        Z = Z_2D
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = Z * np.exp(-1.0 / (1.0 - r2[inside])) / epsilon ** d
    return out


def cutoff_value(x, epsilon: float) -> np.ndarray:
    """chi_eps(x): 1 on |x| <= 1/eps, 0 on |x| >= 2/eps, smooth between."""
    x = np.asarray(x, dtype=float)
    r = np.abs(x) if x.ndim <= 1 else np.linalg.norm(x, axis=-1)
    return _psi(epsilon * r)


def _psi(r):
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    rm = r[mid]
    A = np.exp(-1.0 / (2.0 - rm))
    B = np.exp(-1.0 / (rm - 1.0))
    out[mid] = A / (A + B)
    return out


# -- discrete stencils ----------------------------------------------------

def stencil(params: MollifierParams, hs, d: int = 1) -> np.ndarray:
    """Sampled unit-mass convolution stencil over the kernel support.

    1-d: returns offsets -m..m as a vector.  2-d: an (2m1+1, 2m2+1) array.
    """
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    params.require_resolved(np.max(hs))
    eps = params.epsilon
    if d == 1:
        m = int(np.floor(eps / hs[0]))
        k = np.arange(-m, m + 1)
        w = kernel_value(k * hs[0], eps) * hs[0]
    else:
        m1 = int(np.floor(eps / hs[0]))
        m2 = int(np.floor(eps / hs[1]))
        k1 = np.arange(-m1, m1 + 1) * hs[0]
        k2 = np.arange(-m2, m2 + 1) * hs[1]
        pts = np.stack(np.meshgrid(k1, k2, indexing="ij"), axis=-1)
        w = kernel_value(pts, eps, d=2) * hs[0] * hs[1]
    total = w.sum()
    if total <= 0:
        raise UnderResolvedError("stencil has no interior samples",
                                 required_epsilon=2 * float(np.max(hs)))
    return w / total


def _extended_lattice(grid: Grid, pad_cells):
    axes = []
    for i in range(grid.d):
        h = grid.hs[i]
        n = grid.n[i]
        p = pad_cells[i]
        axes.append(grid.x_min[i] + (np.arange(-p, n + p) + 0.5) * h)
    return axes


def _padded_samples(fn, grid: Grid, w) -> np.ndarray:
    """fn sampled once on the grid's lattice padded by the stencil's
    half-width: fn's component axes first, the lattice axes last."""
    axes = _extended_lattice(grid, [(s - 1) // 2 for s in np.shape(w)])
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.d)
    vals = np.asarray(fn(pts), dtype=float)
    return np.moveaxis(vals, 0, -1).reshape(vals.shape[1:] + tuple(map(len, axes)))


def _smooth(samples, w, grid: Grid, factor=None) -> np.ndarray:
    """Collar-free convolution of each component of ``_padded_samples``
    with w, times ``factor`` if given; 2-d lattices come out flat."""
    comps = samples.shape[:samples.ndim - grid.d]
    out = np.empty(comps + ((grid.npts,) if grid.d == 2 else grid.n))
    for idx in np.ndindex(*comps):
        conv = _convolve_valid(samples[idx], w)
        out[idx] = (conv if factor is None else conv * factor).ravel()
    return out


def mollify_callable(fn, params: MollifierParams, grid: Grid) -> np.ndarray:
    """(fn * rho_eps) chi_eps on the grid, sampling fn beyond the box so the
    convolution is collar-free everywhere on the grid."""
    w = stencil(params, grid.hs, grid.d)
    return _smooth(_padded_samples(fn, grid, w), w, grid, _chi_grid(grid, params))


def _convolve_valid(values, w):
    if values.ndim == 1:
        return np.convolve(values, w[::-1], mode="valid")
    from scipy.signal import convolve2d
    return convolve2d(values, w[::-1, ::-1], mode="valid")


def _chi_grid(grid: Grid, params: MollifierParams) -> np.ndarray:
    pts = grid.points()
    chi = cutoff_value(pts if grid.d > 1 else pts[:, 0], params.epsilon)
    return chi if grid.d == 1 else chi.reshape(grid.n)


def mollify_field(values: np.ndarray, params: MollifierParams, grid: Grid) -> np.ndarray:
    """v * rho_eps for a field already sampled on the grid.

    Zero extension applies outside the box; interior points further than eps
    from a wall are unaffected by it.
    """
    values = np.asarray(values, dtype=float)
    w = stencil(params, grid.hs, grid.d)
    if grid.d == 1:
        return np.convolve(values, w[::-1], mode="same")
    from scipy.signal import convolve2d
    return convolve2d(values.reshape(grid.n), w[::-1, ::-1], mode="same").ravel()


# -- coefficient-level mollification and checks ---------------------------

def mollify_coefficients(coeffs: CoefficientSet, params: MollifierParams,
                         grid: Grid, t: float):
    """Mollified coefficient samples on the grid at time t.

    a picks up chi^2, sigma/c/h/f/g pick up chi, and b is truncated at 1/eps
    before smoothing (no cutoff).  Returns a dict of arrays, each with the
    coefficient's component axes first and the grid last.  Every coefficient
    is evaluated once on the padded lattice.
    """
    w = stencil(params, grid.hs, grid.d)
    chi = _chi_grid(grid, params)
    cap = 1.0 / params.epsilon

    def mol(name, factor):
        return _smooth(_padded_samples(lambda x: getattr(coeffs, name)(t, x), grid, w),
                       w, grid, factor)
    out = {"a": mol("a", chi ** 2)}
    out.update((name, mol(name, chi)) for name in ("sigma", "c", "h", "f", "g"))
    out["b"] = _smooth(np.clip(_padded_samples(lambda x: coeffs.b(t, x), grid, w),
                               -cap, cap), w, grid)
    return out


def mollified_coefficient_set(coeffs: CoefficientSet, params: MollifierParams,
                              grid: Grid) -> CoefficientSet:
    """Freeze mollified coefficient samples into a grid-backed bundle.

    The returned callables only answer at the grid's own points (that is all
    the solver ever asks for) and refuse any other points.  The set has no
    derivative hooks, so ``weak_residual`` refuses it; time dependence is
    dropped, matching the omission of time mollification: the coefficients
    are sampled at t = 0.
    """
    m = mollify_coefficients(coeffs, params, grid, 0.0)
    pts = grid.points()

    def frozen(name):
        points_first = np.moveaxis(m[name], -1, 0)

        def fn(tt, X):
            if not np.array_equal(X, pts):
                raise ConfigurationError(
                    "mollified coefficients are grid samples; evaluate at the grid's points")
            return points_first
        return fn

    return CoefficientSet(coeffs.d, coeffs.L,
                          *map(frozen, ("a", "b", "c", "sigma", "h", "f", "g")))


def mollified_parabolicity_check(coeffs: CoefficientSet, params: MollifierParams,
                                 grid: Grid, times) -> ParabolicityReport:
    """Exact minimum over unit directions of the mollified form
    2 xi'a_eps xi - |sigma_eps'xi|^2 at every grid point and time, the
    smallest eigenvalue of 2a_eps - sigma_eps sigma_eps'; passes when it is
    >= -1e-10.

    The raw coefficients must satisfy the parabolic condition first;
    otherwise the hypothesis is violated and this refuses to run.
    """
    times = list(times)
    raw = verify_parabolicity(coeffs, grid, times)
    if not raw.passes:
        raise HypothesisError(
            f"raw coefficients violate the parabolic condition (min {raw.min_defect:.3e})")

    def fields(t):
        m = mollify_coefficients(coeffs, params, grid, t)   # grid axis last
        return np.moveaxis(m["a"], -1, 0), np.moveaxis(m["sigma"], -1, 0)
    return _worst_defect(map(fields, times), 1e-10)


# -- divergence bound (drift smoothing keeps div uniformly bounded) --------

@dataclass
class DivBoundResult:
    sup_div_mollified: float
    bound: float


# From the shell estimate: |(b*rho_eps) grad chi_eps| <= sup|psi'| (2 eps + 2)
# ||b/(1+|x|)||, and |(div b * rho_eps) chi| <= ||div b||; eps < 1 gives
DIV_BOUND_C = max(1.0, 4.0 * PSI_SUP_DERIV)


def div_bound_check(b, params: MollifierParams) -> DivBoundResult:
    """Compare sup |d/dx((b * rho_eps) chi_eps)| against the structural bound
    C (||div b||_inf + ||b/(1+|x|)||_inf) on the shell-covering domain (1-d).

    ``b`` is a callable or ScalarField; norms are measured on the working
    lattice, which spans the full cutoff support [-2/eps - 1, 2/eps + 1] at
    eight points per eps.
    """
    eps = params.epsilon
    h = eps / 8
    half = 2.0 / eps + 1.0 + 4 * eps
    n = max(16, int(np.ceil(2 * half / h)))
    work = Grid.line(-half, half, n)
    bvals = np.asarray(b(work.points()), dtype=float).ravel()
    x = work.x
    hh = work.hs[0]
    m = mollify_callable(lambda p: np.asarray(b(p), float).ravel(), params, work)
    dm = np.gradient(m, hh)
    sup_div = float(np.max(np.abs(dm)))
    div_b = np.gradient(bvals, hh)
    norm_div = float(np.max(np.abs(div_b)))
    norm_ratio = float(np.max(np.abs(bvals) / (1.0 + np.abs(x))))
    return DivBoundResult(sup_div_mollified=sup_div,
                          bound=DIV_BOUND_C * (norm_div + norm_ratio))


def div_bound_sweep(b, epsilons) -> list:
    """div_bound_check over strictly decreasing eps, one result per level."""
    eps_list = list(epsilons)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("epsilons must be strictly decreasing")
    return [div_bound_check(b, MollifierParams(e)) for e in eps_list]
