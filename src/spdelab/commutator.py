"""Smoothing/transport commutators computed two independent ways, with
shrinkage sweeps over the smoothing scale.

For a smoothing kernel at scale eps and a drift field b, the first-order
commutator is

    [smooth, b d](u) = smooth(b . grad u) - b . grad(smooth u),

and the zero-order one is [smooth, c](u) = smooth(c u) - c smooth(u).
The direct route evaluates that formula with a 4th-order discrete gradient.
The integral route transliterates the kernel-difference representation

    int (b(y) - b(x)) . grad_ker(x - y) u(y) dy - int div b(y) u(y) ker(x-y) dy,

realized with the derivative stencil t = D * s (discrete derivative of the
smoothing stencil) and the same discrete divergence, so the two routes agree
up to a Leibniz remainder that vanishes at 4th order on smooth fields and
cancels in the mean across kinks.  Both are reported on points at distance
more than eps from the domain boundary; inputs are callables, sampled on an
extended lattice so no boundary effect enters at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, HypothesisError
from .grids import Grid
from .mollifier import MollifierParams, stencil

_D4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # offsets -2..2, divide by h


def _apply(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """y_i = sum_j w[m+j] v_{i+j} for an odd offset-kernel w."""
    return np.convolve(v, w[::-1], mode="same")


@dataclass
class _Workspace:
    """Shared lattice data for one (grid, eps) pair (1-d)."""

    x: np.ndarray            # extended lattice
    keep: slice              # restriction back to the requested window
    s: np.ndarray            # smoothing stencil
    t: np.ndarray            # derivative stencil  t = D4 * s
    h: float

    def smooth(self, v):
        return _apply(self.s, v)

    def dsmooth(self, v):
        return _apply(self.t, v)

    def d4(self, v):
        return _apply(_D4 / self.h, v)


def _workspace(grid: Grid, eps: float) -> _Workspace:
    if grid.d != 1:
        raise ConfigurationError("commutator fields are 1-d (see module docs)")
    h = grid.hs[0]
    p = MollifierParams(eps)
    s = stencil(p, h)
    t = np.convolve(s, _D4 / h)
    pad = (len(t) - 1) // 2 + 4
    x = grid.x
    ext = np.concatenate([x[0] + np.arange(-pad, 0) * h, x,
                          x[-1] + np.arange(1, pad + 1) * h])
    return _Workspace(x=ext, keep=slice(pad, pad + len(x)), s=s, t=t, h=h)


def _sample(fn, x):
    vals = np.asarray(fn(x[:, None]), dtype=float).ravel()
    if vals.shape != x.shape:
        raise ConfigurationError("field callable must return one value per point")
    return vals


def collar_mask(grid: Grid, eps: float) -> np.ndarray:
    """Points further than eps (plus the difference-stencil reach) from a wall."""
    margin = eps + 2 * max(grid.hs)
    pts = grid.points()
    ok = np.ones(grid.npts, dtype=bool)
    for i in range(grid.d):
        ok &= (pts[:, i] > grid.x_min[i] + margin) & (pts[:, i] < grid.x_max[i] - margin)
    return ok


def commutator_direct(b, u, eps: float, grid: Grid) -> np.ndarray:
    """smooth(b u') - b (smooth u)' on the grid."""
    ws = _workspace(grid, eps)
    bv, uv = _sample(b, ws.x), _sample(u, ws.x)
    out = ws.smooth(bv * ws.d4(uv)) - bv * ws.dsmooth(uv)
    return out[ws.keep]


def commutator_integral(b, u, eps: float, grid: Grid) -> np.ndarray:
    """Kernel-difference route, with div b the discrete divergence."""
    ws = _workspace(grid, eps)
    bv, uv = _sample(b, ws.x), _sample(u, ws.x)
    out = ws.dsmooth(bv * uv) - bv * ws.dsmooth(uv) - ws.smooth(ws.d4(bv) * uv)
    return out[ws.keep]


def for1_defect(a, u, eps: float, grid: Grid) -> np.ndarray:
    """d[smooth, a](u) - [smooth, da](u) - [smooth, a d](u)  (identity defect)."""
    ws = _workspace(grid, eps)
    av, uv = _sample(a, ws.x), _sample(u, ws.x)
    dav = ws.d4(av)
    zero_order = ws.smooth(av * uv) - av * ws.smooth(uv)
    lhs = ws.d4(zero_order)
    term_da = ws.smooth(dav * uv) - dav * ws.smooth(uv)
    term_ad = ws.smooth(av * ws.d4(uv)) - av * ws.dsmooth(uv)
    return (lhs - term_da - term_ad)[ws.keep]


def for2_defect(a, b, u, eps: float, grid: Grid) -> np.ndarray:
    """[smooth, (ab) d](u) - a [smooth, b d](u) - [smooth, a](b u') defect."""
    ws = _workspace(grid, eps)
    av, bv, uv = _sample(a, ws.x), _sample(b, ws.x), _sample(u, ws.x)
    du = ws.d4(uv)
    lhs = ws.smooth(av * bv * du) - av * bv * ws.dsmooth(uv)
    first = av * (ws.smooth(bv * du) - bv * ws.dsmooth(uv))
    v = bv * du
    second = ws.smooth(av * v) - av * ws.smooth(v)
    return (lhs - first - second)[ws.keep]


@dataclass
class CommutatorSweep:
    """Shrinkage record of commutator norms over decreasing eps."""

    epsilons: list
    norms: list
    ball_radius: float
    consistency_gap: float
    gaps: list = field(default_factory=list)
    r: int = 2
    quadrature_tol: float = 1e-6

    def __post_init__(self):
        if any(e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigurationError("epsilons must be strictly decreasing")
        if self.consistency_gap > self.quadrature_tol:
            raise ConfigurationError(
                f"direct/integral routes disagree: gap {self.consistency_gap:.2e} "
                f"exceeds the declared quadrature tolerance {self.quadrature_tol:.0e}")


def convergence_sweep(b, u, epsilons, R: float = 3.0, grid: Grid | None = None,
                      r: int = 2, b_differentiable: bool = True,
                      u_differentiable: bool = False,
                      quadrature_tol: float = 1e-6) -> CommutatorSweep:
    """Sweep the first-order commutator over decreasing eps.

    One of b, u must be declared differentiable (the shrinkage hypothesis).
    Norms are L^r over the ball of radius R, excluding an eps-collar; the
    consistency gap is the worst relative L^2 direct-vs-integral discrepancy.
    Its denominator is floored at 1e-6 sup|b| ||u||_L2 so that identically
    vanishing commutators (constant b) do not divide roundoff by roundoff.
    """
    if not (b_differentiable or u_differentiable):
        raise HypothesisError("commutator shrinkage needs b or u differentiable")
    eps_list = sorted(set(float(e) for e in epsilons), reverse=True)
    if list(epsilons) != eps_list:
        raise ConfigurationError("epsilons must be strictly decreasing")
    if grid is None:
        h = min(eps_list) / 64.0
        half = R + 2 * max(eps_list) + 0.5
        n = int(np.ceil(2 * half / h / 2)) * 2
        grid = Grid.line(-half, half, n)
    for e in eps_list:
        MollifierParams(e).require_resolved(max(grid.hs))
    x = grid.x
    vol = grid.hs[0]
    ball = np.abs(x) <= R
    pts = grid.points()
    scale = float(np.max(np.abs(np.asarray(b(pts), float).ravel()[ball])))
    l2 = lambda v: np.sqrt(np.sum(v * v) * vol)  # noqa: E731
    scale *= l2(np.asarray(u(pts), float).ravel()[ball])
    norms, gaps = [], []
    for e in eps_list:
        direct = commutator_direct(b, u, e, grid)
        integral = commutator_integral(b, u, e, grid)
        mask = ball & collar_mask(grid, e)
        lr = float((np.sum(np.abs(direct[mask]) ** r) * vol) ** (1.0 / r))
        denom = max(l2(direct[mask]), 1e-6 * scale, 1e-300)
        gaps.append(l2((direct - integral)[mask]) / denom)
        norms.append(lr)
    return CommutatorSweep(epsilons=eps_list, norms=norms, ball_radius=R,
                           consistency_gap=max(gaps), gaps=gaps, r=r,
                           quadrature_tol=quadrature_tol)
