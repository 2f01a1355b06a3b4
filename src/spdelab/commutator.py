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
cancels in the mean across kinks.  Inputs are callables, sampled on a
lattice extended beyond the grid, so no boundary effect enters at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grids import Grid
from .mollifier import MollifierParams, _correlate, _sample, stencil

_D4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # offsets -2..2, divide by h
SWEEP_RADIUS = 3.0
QUADRATURE_TOL = 1e-6     # largest admissible direct/integral gap of a sweep


class _Workspace:
    """The smoothing stencil s and its derivative stencil t = D4 * s for one
    (grid, eps) pair (1-d), on the grid's lattice padded far enough that
    every window of t, and the D4 under it, stays on the lattice.  Lattice
    index ``keep.start + i`` is grid point i."""

    def __init__(self, grid: Grid, eps: float):
        if grid.d != 1:
            raise ConfigurationError("commutator fields are 1-d (see module docs)")
        self.grid = grid
        self.h = grid.hs[0]
        self.s = stencil(MollifierParams(eps), self.h)
        self.t = np.convolve(self.s, _D4 / self.h)
        self.pad = (len(self.t) - 1) // 2 + 4
        self.keep = slice(self.pad, self.pad + grid.npts)

    def sample(self, fn):
        """The scalar field fn on the padded lattice; an (m, 1) result, as
        a 1-d drift gives, is read as (m,)."""
        v = _sample(fn, self.grid, [self.pad])
        if v.size != v.shape[-1]:
            raise ConfigurationError("field callable must return one value per point")
        return v.reshape(-1)

    def apply(self, w, v, rows):
        """y_i = sum_j w[m+j] v_{i+j} for an odd offset-kernel w and the
        lattice indices ``rows``, which must keep the whole kernel inside v.
        Each y_i is one full-length dot product, so its bits do not depend
        on which rows are asked for."""
        m = len(w) // 2
        return _correlate(v[rows.start - m:rows.stop + m], w, "valid")

    def d4(self, v):
        """On the whole lattice; its two-point edges lie outside every
        smoothing window."""
        return _correlate(v, _D4 / self.h, "same")


def _routes(ws: _Workspace, bv, uv, rows: slice):
    """Direct and integral commutators at the grid indices ``rows``, from one
    b dsmooth(u) and b and u sampled by the workspace of any eps >= ws's.
    Grid point i sits at x_min + (i + 1/2) h at every padding, so the
    lattice of ``ws`` is the sample's centered slice."""
    c = (len(bv) - ws.grid.npts) // 2 - ws.pad
    bv, uv = bv[c:len(bv) - c], uv[c:len(uv) - c]
    s, t = ws.s, ws.t
    ext = slice(rows.start + ws.pad, rows.stop + ws.pad)
    b_dsu = bv[ext] * ws.apply(t, uv, ext)
    direct = ws.apply(s, bv * ws.d4(uv), ext) - b_dsu
    integral = ws.apply(t, bv * uv, ext) - b_dsu - ws.apply(s, ws.d4(bv) * uv, ext)
    return direct, integral


def for1_defect(a, u, eps: float, grid: Grid) -> np.ndarray:
    """d[smooth, a](u) - [smooth, da](u) - [smooth, a d](u)  (identity defect)."""
    ws = _Workspace(grid, eps)
    s, t, k = ws.s, ws.t, ws.keep
    wide = slice(k.start - 2, k.stop + 2)  # the reach of the outer d4
    av, uv = ws.sample(a), ws.sample(u)
    dav = ws.d4(av)
    zero_order = ws.apply(s, av * uv, wide) - av[wide] * ws.apply(s, uv, wide)
    lhs = ws.d4(zero_order)[2:-2]
    term_da = ws.apply(s, dav * uv, k) - dav[k] * ws.apply(s, uv, k)
    term_ad = ws.apply(s, av * ws.d4(uv), k) - av[k] * ws.apply(t, uv, k)
    return lhs - term_da - term_ad


def for2_defect(a, b, u, eps: float, grid: Grid) -> np.ndarray:
    """[smooth, (ab) d](u) - a [smooth, b d](u) - [smooth, a](b u') defect."""
    ws = _Workspace(grid, eps)
    s, k = ws.s, ws.keep
    av, bv, uv = ws.sample(a), ws.sample(b), ws.sample(u)
    du = ws.d4(uv)
    dsu = ws.apply(ws.t, uv, k)
    lhs = ws.apply(s, av * bv * du, k) - av[k] * bv[k] * dsu
    first = av[k] * (ws.apply(s, bv * du, k) - bv[k] * dsu)
    v = bv * du
    second = ws.apply(s, av * v, k) - av[k] * ws.apply(s, v, k)
    return lhs - first - second


@dataclass
class CommutatorSweep:
    """Shrinkage record of commutator norms over the decreasing eps of the
    sweep, with the relative direct-vs-integral gap at each eps."""

    norms: list
    gaps: list

    @property
    def consistency_gap(self) -> float:
        """The worst gap of the sweep."""
        return max(self.gaps)


def convergence_sweep(b, u, epsilons) -> CommutatorSweep:
    """Sweep the first-order commutator over decreasing eps.

    b and u are sampled once, on the lattice padded for the largest eps.
    Norms are L^2 over the ball of radius 3, on a grid of spacing min(eps)/64
    that reaches 2 max(eps) + 0.5 beyond the ball.  The consistency gap is
    the worst relative L^2 direct-vs-integral discrepancy and must stay
    within 1e-6.  Its denominator is floored at 1e-6 sup|b| ||u||_L2 so that
    identically vanishing commutators (constant b) do not divide roundoff by
    roundoff.
    """
    eps_list = sorted(set(float(e) for e in epsilons), reverse=True)
    if list(epsilons) != eps_list:
        raise ConfigurationError("epsilons must be strictly decreasing")
    for e in eps_list:
        MollifierParams(e)      # refuses a scale outside (0, 1e6) before h = min / 64
    h = min(eps_list) / 64.0
    half = SWEEP_RADIUS + 2 * max(eps_list) + 0.5
    n = int(np.ceil(2 * half / h / 2)) * 2
    grid = Grid.line(-half, half, n)
    x = grid.x
    vol = grid.hs[0]
    ball = np.abs(x) <= SWEEP_RADIUS
    inside = np.flatnonzero(ball)       # one run of grid indices
    rows = slice(inside[0], inside[-1] + 1)
    spaces = [_Workspace(grid, e) for e in eps_list]
    widest = spaces[0]          # the largest eps has the widest stencil
    bv, uv = widest.sample(b), widest.sample(u)
    scale = float(np.max(np.abs(bv[widest.keep][ball])))
    l2 = lambda v: np.sqrt(np.sum(v * v) * vol)  # noqa: E731
    scale *= l2(uv[widest.keep][ball])
    norms, gaps = [], []
    for ws in spaces:
        direct, integral = _routes(ws, bv, uv, rows)
        norms.append(float((np.sum(np.abs(direct) ** 2) * vol) ** (1.0 / 2)))
        denom = max(l2(direct), 1e-6 * scale, 1e-300)
        gaps.append(l2(direct - integral) / denom)
    if max(gaps) > QUADRATURE_TOL:
        raise ConfigurationError(
            f"direct/integral routes disagree: gap {max(gaps):.2e} "
            f"exceeds the declared quadrature tolerance {QUADRATURE_TOL:.0e}")
    return CommutatorSweep(norms=norms, gaps=gaps)
