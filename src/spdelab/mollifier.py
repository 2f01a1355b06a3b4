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
from functools import partial

import numpy as np

from .errors import ConfigurationError, HypothesisError, UnderResolvedError
from .grids import Grid
from .model import PARABOLIC_TOL, CoefficientSet, _worst_defect, verify_parabolicity

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


def kernel_value(x, epsilon: float) -> np.ndarray:
    """Pointwise rho_eps(x) = eps^-d rho(x/eps).  As in ``cutoff_value``,
    x holds 1-d coordinates when it has at most one axis, and otherwise the
    d coordinates of each point on its last axis."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        x = x[..., None]
    d = x.shape[-1]
    r2 = np.sum((x / epsilon) ** 2, axis=-1)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    Z = Z_1D if d == 1 else Z_2D
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


# -- discrete stencils, lattices and convolution ---------------------------

def stencil(params: MollifierParams, hs) -> np.ndarray:
    """Sampled unit-mass convolution stencil over the kernel support, with
    one axis of offsets -m..m per cell size in ``hs``: a vector in 1-d, an
    (2m1+1, 2m2+1) array in 2-d."""
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    params.require_resolved(np.max(hs))
    eps = params.epsilon
    offsets = [np.arange(-m, m + 1) * h for h, m in zip(hs, np.floor(eps / hs).astype(int))]
    w = kernel_value(np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1), eps)
    for h in hs:    # one cell size at a time, in axis order
        w = w * h
    total = w.sum()
    if total <= 0:
        raise UnderResolvedError("stencil has no interior samples",
                                 required_epsilon=2 * float(np.max(hs)))
    return w / total


def _extended_lattice(grid: Grid, pad_cells):
    """The grid's cell centers along each axis, extended by ``pad_cells[i]``
    cells beyond both ends of axis i."""
    return [grid.x_min[i] + (np.arange(-p, n + p) + 0.5) * h
            for i, (h, n, p) in enumerate(zip(grid.hs, grid.n, pad_cells))]


def _sample(fn, grid: Grid, pad_cells) -> np.ndarray:
    """fn sampled once on ``_extended_lattice(grid, pad_cells)``: fn's
    component axes first, the lattice axes last."""
    axes = _extended_lattice(grid, pad_cells)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.d)
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape[:1] != (len(pts),):
        raise ConfigurationError("field callable must return one value per point")
    return np.moveaxis(vals, 0, -1).reshape(vals.shape[1:] + tuple(map(len, axes)))


def _correlate(v, w, mode: str) -> np.ndarray:
    """y_i = sum_j w[j] v[i + j], with w's axes matching v's: over every
    window inside v for mode "valid"; centered on each point of v, with v
    zero beyond its edges, for "same"."""
    if v.ndim == 1:
        return np.convolve(v, w[::-1], mode=mode)
    from scipy.signal import convolve2d
    return convolve2d(v, w[::-1, ::-1], mode=mode)


def _smooth(fn, params: MollifierParams, grid: Grid, factor) -> np.ndarray:
    """Each component of fn, sampled on the grid's lattice padded by the
    stencil's half-widths, convolved collar-free with the stencil and
    multiplied by ``factor``; component axes first, the grid's points (flat)
    last."""
    w = stencil(params, grid.hs)
    samples = _sample(fn, grid, [(s - 1) // 2 for s in w.shape])
    comps = samples.shape[:samples.ndim - grid.d]
    out = np.empty(comps + (grid.npts,))
    for idx in np.ndindex(*comps):
        out[idx] = (_correlate(samples[idx], w, "valid") * factor).ravel()
    return out


def _chi_grid(grid: Grid, params: MollifierParams) -> np.ndarray:
    pts = grid.points()
    return cutoff_value(pts if grid.d > 1 else pts[:, 0], params.epsilon).reshape(grid.n)


def mollify_field(values: np.ndarray, params: MollifierParams, grid: Grid) -> np.ndarray:
    """v * rho_eps for a field already sampled on the grid.

    Zero extension applies outside the box; interior points further than eps
    from a wall are unaffected by it.
    """
    values = np.asarray(values, dtype=float).reshape(grid.n)
    return _correlate(values, stencil(params, grid.hs), "same").ravel()


# -- coefficient-level mollification and checks ---------------------------

def _mollify(coeffs: CoefficientSet, name: str, params: MollifierParams,
             grid: Grid, t: float) -> np.ndarray:
    """One coefficient mollified on the grid at time t, its component axes
    first and the grid last, from one evaluation on the padded lattice: a
    picks up chi^2, sigma/c/h/f/g pick up chi, and b is truncated at 1/eps
    before smoothing (no cutoff)."""
    fn = partial(coeffs.sample, name, t)
    if name == "b":
        cap = 1.0 / params.epsilon
        return _smooth(lambda x: np.clip(fn(x), -cap, cap), params, grid, 1.0)
    chi = _chi_grid(grid, params)
    return _smooth(fn, params, grid, chi ** 2 if name == "a" else chi)


def mollified_parabolicity_check(coeffs: CoefficientSet, params: MollifierParams,
                                 grid: Grid, times) -> float:
    """Exact minimum over unit directions of the mollified form
    2 xi'a_eps xi - |sigma_eps'xi|^2 at every grid point and time, the
    smallest eigenvalue of 2a_eps - sigma_eps sigma_eps'.

    The raw coefficients must satisfy the parabolic condition first;
    otherwise the hypothesis is violated and this refuses to run.
    """
    times = list(times)
    raw = verify_parabolicity(coeffs, grid, times)
    if raw < -PARABOLIC_TOL:
        raise HypothesisError(
            f"raw coefficients violate the parabolic condition (min {raw:.3e})")

    def fields(t):   # grid axis first
        return [np.moveaxis(_mollify(coeffs, name, params, grid, t), -1, 0)
                for name in ("a", "sigma")]
    return _worst_defect(map(fields, times))


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
    eight points per eps.  b is sampled once, on that lattice padded by the
    stencil's half-width; (b * rho_eps) chi_eps is the collar-free
    convolution of that sample, and the norms read its interior, which is b
    at the lattice's own points.
    """
    eps = params.epsilon
    h = eps / 8
    half = 2.0 / eps + 1.0 + 4 * eps
    n = max(16, int(np.ceil(2 * half / h)))
    work = Grid.line(-half, half, n)
    w = stencil(params, work.hs)
    pad = (len(w) - 1) // 2
    padded = _sample(lambda p: np.asarray(b(p), float).ravel(), work, [pad])
    bvals = padded[pad:pad + n]
    x = work.x
    hh = work.hs[0]
    m = _correlate(padded, w, "valid") * _chi_grid(work, params)
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
