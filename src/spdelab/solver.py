"""Divergence-form spatial discretization and semi-implicit time stepping.

The generator L u = d_i(a^{ij} d_j u) + d_i(b^i u) + c u is assembled in flux
form: diffusive face values by arithmetic averaging, drift fluxes by central
averaging, and (in 2-d) mixed terms with the 4-point corner average for the
transverse gradient at a face.  With c = 0 and zero-flux walls every column
of the operator sums to zero exactly, so the discrete mass telescopes: this
property is what several acceptance checks assert at the 1e-12 level, and it
is why face averaging is arithmetic (harmonic averaging kills fluxes wherever
the diffusion degenerates).

Time stepping is backward Euler in the generator and explicit (left-point
in time) in the noise term:

    (I - dt L) u_{n+1} = u_n + dt f_n + sum_l (M^l u_n + g^l_n) dB^l_n.

The stability guard, on in ``solve`` and the filters, enforces the
mean-square stability budget of the explicit noise term,
dt sum_l ||sigma^{.l}||_inf^2 <= h^2, together with the paper's degenerate
parabolic condition 2a - sigma sigma^T >= 0 at every grid point.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs
from scipy.sparse import csr_matrix, get_index_dtype, identity

from .errors import (ConfigurationError, SizeError, SolverError, StabilityError,
                     TestFunctionError, ValidationError)
from .grids import DensityField, Grid, dot
from .model import PARABOLIC_TOL, CoefficientSet, _worst_defect, reuse_if_static
from .noise import _MAX_ELEMENTS, BrownianPath

BOUNDARY_MASS_WARN_FRACTION = 1e-6
BANDED_MAX_K = 80  # widest 2-d half-bandwidth factored as a band; see _ImplicitSystem


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    store_every: int = 0  # 0: snapshots only; 1: keep the full step history

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.store_every not in (0, 1):
            raise ValidationError("store_every must be 0 (snapshots) or 1 (every step)")


@dataclass
class Trajectory:
    """Solution snapshots plus per-step mass and squared-norm series."""

    grid: Grid
    times: np.ndarray
    fields: list
    mass_series: np.ndarray      # one entry per step boundary, 0..n_steps
    l2_series: np.ndarray
    dt: float
    full_history: np.ndarray | None = None

    @property
    def step_times(self) -> np.ndarray:
        return np.arange(len(self.mass_series)) * self.dt

    @property
    def energy_series(self) -> np.ndarray:
        return self.l2_series ** 2


def _neighbours(idx: np.ndarray, axis: int):
    """Flat index of each cell's +1 and -1 neighbour along ``axis``; at a
    wall the neighbour is the cell itself (the zero-flux mirror ghost)."""
    out = []
    for step, wall in ((1, -1), (-1, 0)):
        edge = (slice(None),) * axis + (wall,)
        nb = np.roll(idx, -step, axis)
        nb[edge] = idx[edge]
        out.append(nb)
    return out


def _stacked(lists, vals, dtype):
    """One per-site entry list per block, each broadcast to the shape of its
    block's values, stacked on a last axis and raveled in C order, so the
    triplets come block by block, site by site and, within a site, in list
    order; written as ``dtype`` into one array."""
    shapes = [(*np.shape(v[0]), len(entries)) for entries, v in zip(lists, vals)]
    out = np.empty(sum(map(math.prod, shapes)), dtype)
    start = 0
    for entries, shape in zip(lists, shapes):
        block = out[start:start + math.prod(shape)].reshape(shape)
        for k, e in enumerate(entries):
            block[..., k] = e
        start += block.size
    return out


_last: dict = {}   # (grid, samples, matrix) of each operator's last build


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether float64 x and y hold the same bits, compared in place: -0.0 is not 0.0."""
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _last_build(op, grid: Grid, samples, blocks) -> csr_matrix:
    """csr of ``blocks(grid, cell numbers, *samples)``, built from float64 copies
    of the samples and read-only: the last build of ``op`` itself if its grid
    and sample bits repeat."""
    samples = [np.array(s, float) for s in samples]
    last = _last.get(op)
    if not (last and last[0] == grid and all(map(_same_bits, last[1], samples))):
        idx = np.arange(grid.npts).reshape(grid.n)
        last = _last[op] = grid, samples, _to_csr(grid, blocks(grid, idx, *samples))
    return last[2]


def _to_csr(grid: Grid, blocks) -> csr_matrix:
    """csr_matrix((vals, (rows, cols))) of ``blocks``' kept (row, col, val)
    triplets: duplicates summed in triplet order, arrays made read-only.
    Each block is (rows, cols, vals, keep), each a list of per-site entries."""
    rows, cols, vals, keep = zip(*blocks)
    keep = _stacked(keep, vals, bool)
    index = get_index_dtype(maxval=keep.size)
    ij = (_stacked(rows, vals, index)[keep], _stacked(cols, vals, index)[keep])
    out = csr_matrix((_stacked(vals, vals, float)[keep], ij), shape=(grid.npts,) * 2)
    for a in (out.data, out.indices, out.indptr):
        a.flags.writeable = False
    return out


def assemble_generator(coeffs: CoefficientSet, grid: Grid, t: float) -> csr_matrix:
    """Flux-form sparse generator at time t.

    Per face, in face order along each axis: the diffusive and drift fluxes
    (8 entries), then in 2-d the a12 cross flux with the 4-point corner
    average for the transverse gradient (8 entries, only where the face
    value of a12 is nonzero).  Then the nonzero entries of c on the
    diagonal.
    """
    pts = grid.points()
    samples = [coeffs.sample(name, t, pts) for name in ("a", "b", "c")]
    return _last_build("generator", grid, samples, _generator_blocks)


def _generator_blocks(grid: Grid, idx, A, bvec, cvec) -> list:
    blocks = []
    for ax, h in enumerate(grid.hs):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        a = A[:, ax, ax].reshape(grid.n)
        b = bvec[:, ax].reshape(grid.n)
        r0, r1 = idx[lo], idx[hi]
        af = 0.5 * (a[lo] + a[hi])
        b0, b1 = b[lo], b[hi]
        # drift flux F_{k+1/2} = (b_k u_k + b_{k+1} u_{k+1}) / 2
        rows = [r0, r0, r1, r1, r0, r0, r1, r1]
        cols = [r0, r1, r1, r0, r0, r1, r0, r1]
        vals = [-af / h**2, af / h**2, -af / h**2, af / h**2,
                b0 / (2 * h), b1 / (2 * h), -b0 / (2 * h), -b1 / (2 * h)]
        keep = [True] * 8
        if grid.d == 2:
            a12 = A[:, 0, 1].reshape(grid.n)
            cf = 0.5 * (a12[lo] + a12[hi])
            q = 1.0 / (4 * grid.hs[1 - ax])
            nbp, nbm = _neighbours(idx, 1 - ax)
            for col, w in ((nbp[lo], q), (nbp[hi], q), (nbm[lo], -q), (nbm[hi], -q)):
                rows += [r0, r1]
                cols += [col, col]
                vals += [cf * w / h, -cf * w / h]
                keep += [cf != 0.0] * 2
        blocks.append((rows, cols, vals, keep))
    c = cvec.reshape(grid.n)
    return blocks + [([idx], [idx], [c], [c != 0.0])]


def assemble_noise_op(coeffs: CoefficientSet, grid: Grid, t: float, l: int) -> csr_matrix:
    """M^l u = sigma^{il} d_i u + h^l u with central differences.

    Per cell, in cell order: the +1 and -1 neighbours along each axis (the
    cell itself at a wall), then h^l on the diagonal; zero entries are left
    out.
    """
    if not 0 <= l < coeffs.L:
        raise ConfigurationError(f"driver index {l} outside [0, {coeffs.L})")
    pts = grid.points()
    samples = coeffs.sample("sigma", t, pts)[:, :, l], coeffs.sample("h", t, pts)[:, l]
    return _last_build(("noise", l), grid, samples, _noise_blocks)


def _noise_blocks(grid: Grid, idx, S, hv) -> list:
    cols, vals = [], []
    for ax, h in enumerate(grid.hs):
        s = S[:, ax].reshape(grid.n)
        cols += _neighbours(idx, ax)
        vals += [s / (2 * h), -s / (2 * h)]
    cols.append(idx)
    vals.append(hv.reshape(grid.n))
    keep = [v != 0.0 for v in vals]
    return [([idx] * len(cols), cols, vals, keep)]


def check_stability(coeffs: CoefficientSet, grid: Grid, t: float, dt: float):
    """Explicit-noise mean-square budget and the parabolic condition: the
    smallest eigenvalue of 2a - sigma sigma^T at the grid points is >= -1e-12,
    on sigma and a samples that ``CoefficientSet.sample`` has accepted."""
    pts = grid.points()
    S = coeffs.sample("sigma", t, pts)
    A = coeffs.sample("a", t, pts)
    hmin = min(grid.hs)
    sig_sq = float(np.max(np.sum(S**2, axis=(1, 2)))) if S.size else 0.0
    if sig_sq > 0 and dt * sig_sq / hmin**2 > 1.0 + 1e-12:
        suggested = 0.95 * hmin**2 / sig_sq
        raise StabilityError(f"dt={dt} violates the noise stability budget; "
                             f"try dt={suggested:.3g}", suggested_dt=suggested)
    defect = _worst_defect([(A, S)])
    if defect < -PARABOLIC_TOL:
        raise StabilityError(f"coefficients are not parabolic at t={t}: the smallest "
                             f"eigenvalue of 2a - sigma sigma^T is {defect:.3e} < 0")


class _ImplicitSystem:
    """I - dt L, factored once; ``solve`` is the per-step solve.

    ``last`` is the caller's record of its last factorization: empty, or L,
    dt and that solve.  The same L object at the same dt takes the solve
    over; any other empties ``last`` before it is factored and records itself
    once that succeeds, so the old factorization is released first and a
    failed one is never reused.

    In 1-d the flux-form operator is tridiagonal by construction, so the
    matrix is factored with LAPACK gttrf (LU with partial pivoting) and each
    step is one gttrs call.  In 2-d, cells are numbered along the shorter
    axis first (the last axis of a square box; on an n0 x n1 box with
    n0 < n1, cell (i, j) takes number j n0 + i here, while the operators
    keep i n1 + j), so every entry lies within a half-bandwidth k of the
    diagonal: k = min(n) without the cross term, min(n) + 1 with it.  Up to
    ``BANDED_MAX_K`` the matrix is factored with LAPACK gbtrf (banded LU with
    partial pivoting).  When no row was interchanged, L and U are band
    triangles of half-bandwidth k and each step is two tbsv calls; otherwise
    it is one gbtrs call, which also sweeps the k rows of pivoting fill.
    ``BANDED_MAX_K`` is about where the banded solve stops being faster than
    the sparse LU's.  Wider bands use that sparse LU (splu, partial pivoting
    as SuperLU's default) on a minimum-degree ordering of A + A^T: every
    face flux couples its two cells both ways, so the pattern of I - dt L is
    symmetric and that ordering fills less than the default COLAMD, which
    orders A^T A.  scipy.sparse.linalg is imported on first use of that path.
    """

    def __init__(self, Lop: csr_matrix, dt: float, grid: Grid, last: list):
        if last and last[0] is Lop and last[1] == dt:
            self._solve = last[2]
            return
        last.clear()
        M = identity(Lop.shape[0], format="csr") - dt * Lop
        coo = M.tocoo()
        row, col = coo.row, coo.col
        transposed = grid.d == 2 and grid.n[0] < grid.n[1]
        if transposed:
            n0, n1 = grid.n
            row, col = row % n1 * n0 + row // n1, col % n1 * n0 + col // n1
        k = int(np.max(np.abs(row - col), initial=0))
        if grid.d == 1:
            if k > 1:
                raise SolverError("1-d implicit system is not tridiagonal")
            dl, d, du, du2, ipiv, info = dgttrf(M.diagonal(-1), M.diagonal(0),
                                                M.diagonal(1))
            if info != 0:
                raise SolverError(f"tridiagonal factorization failed (info={info})")
            self._solve = lambda r: dgttrs(dl, d, du, du2, ipiv, r)[0]
        elif k <= BANDED_MAX_K:
            # LAPACK band storage, rows [0, k) left for the pivoting fill:
            # ab[2k + i - j, j] = M[i, j].  The buffer runs 2k past the band,
            # so ``band(r)``, the same layout started r rows down, is a view;
            # tbsv reads the first k + 1 rows of band(k) (U) and band(2k) (L)
            rows, n = 3 * k + 1, M.shape[0]
            buf = np.zeros(rows * n + 2 * k)

            def band(r):
                return buf[r:r + rows * n].reshape((rows, n), order="F")
            ab = band(0)
            ab[2 * k + row - col, col] = coo.data
            lu, ipiv, info = dgbtrf(ab, k, k, overwrite_ab=1)
            if info != 0:
                raise SolverError(f"banded factorization failed (info={info})")
            if np.array_equal(ipiv, np.arange(n)):
                up, lo = band(k), band(2 * k)
                self._solve = lambda r: dtbsv(k, up, dtbsv(k, lo, r, lower=1, diag=1),
                                              overwrite_x=1)
            else:
                self._solve = lambda r: dgbtrs(lu, k, k, r, ipiv)[0]
            if transposed:
                banded = self._solve
                self._solve = lambda r: banded(r.reshape(n0, n1).T.ravel()).reshape(
                    n1, n0).T.ravel()
        else:
            from scipy.sparse.linalg import splu
            self._solve = splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        last[:] = Lop, dt, self._solve

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = self._solve(rhs)
        if not np.all(np.isfinite(out)):
            raise SolverError("implicit solve produced non-finite values")
        return out


class Stepper:
    """The semi-implicit step shared by every solve path.

    Operators for the step from t = n dt are the generator at t + dt/2 with
    its factored implicit system, and the noise operators at t, each built
    on first use.  Static coefficients build them once (at n = 0), and
    ``sources`` evaluates their f and g once; time-dependent ones rebuild
    and re-evaluate every step, releasing the previous step's operators
    first.  A generator whose samples repeat, such as a Picard frozen-source
    set's, is the same matrix (see ``_last_build``), which the stepper's one
    record (see ``_ImplicitSystem``) factors once; one factorization is alive
    at a time.  With ``guard`` the stability check runs at t = 0 and, for
    time-dependent coefficients, again at the start of every step.  The
    stepper holds no reference to itself, so reference counting frees it and
    its factorization.
    """

    def __init__(self, coeffs: CoefficientSet, grid: Grid, dt: float, guard: bool):
        self.coeffs, self.grid, self.dt = coeffs, grid, dt
        self.pts = pts = grid.points()
        self._static = not coeffs.time_dependent
        self._guard = guard
        self._n = None
        self._factored = []   # the last factorization; see _ImplicitSystem
        self._check(0.0)

        def sources(n: int):
            """f at the midpoint of step n, g at its left point, and whether
            f is nonzero."""
            t = n * dt
            fv = coeffs.sample("f", t + 0.5 * dt, pts)
            return fv, coeffs.sample("g", t, pts), bool(np.any(fv))
        self.sources = reuse_if_static(sources, self._static)

    def _check(self, t: float):
        if self._guard:
            check_stability(self.coeffs, self.grid, t, self.dt)

    def at(self, n: int):
        """Make ``Lop`` and ``system`` those of step n."""
        if self._static:
            n = 0
        if n != self._n:
            t = n * self.dt
            if not self._static:
                self._check(t)
            self.Lop = self.system = self._noise = self._n = None
            self.Lop = assemble_generator(self.coeffs, self.grid, t + 0.5 * self.dt)
            self.system = _ImplicitSystem(self.Lop, self.dt, self.grid, self._factored)
            self._noise = [None] * self.coeffs.L
            self._n = n

    def noise_op(self, l: int) -> csr_matrix:
        """M^l of the current step."""
        if self._noise[l] is None:
            self._noise[l] = assemble_noise_op(self.coeffs, self.grid,
                                               self._n * self.dt, l)
        return self._noise[l]

    def add_noise(self, out: np.ndarray, u: np.ndarray, g: np.ndarray, dB) -> np.ndarray:
        """out += sum_l (M^l u + g^l) dB^l of the current step, driver by driver."""
        for l in range(self.coeffs.L):
            if dB[l] != 0.0:
                out += (self.noise_op(l) @ u + g[:, l]) * dB[l]
        return out

    def advance(self, u: np.ndarray, n: int, dB, f=None) -> np.ndarray:
        """u_{n+1} from u_n along driver increments dB; ``f`` (m,) is an
        extra drift source added to the coefficients' f."""
        self.at(n)
        rhs = u.copy()
        fv, gv, f_nonzero = self.sources(n)
        if f is not None:
            fv = fv + f
        if f is not None or f_nonzero:
            rhs += self.dt * fv
        return self.system.solve(self.add_noise(rhs, u, gv, dB))


def solve(coeffs: CoefficientSet, u0, grid: Grid, cfg: SolverConfig,
          path: BrownianPath, output_times, observe=None) -> Trajectory:
    """March the scheme along the driver path and record snapshots; see
    ``_march`` for ``observe``."""
    stepper = Stepper(coeffs, grid, cfg.dt, True)
    return _march(lambda n, u: stepper.advance(u, n, path.increments[n]), u0,
                  grid, cfg, path, coeffs.L, output_times, cfg.store_every == 1,
                  observe)


def _march(update, u0, grid: Grid, cfg: SolverConfig, path: BrownianPath, L: int,
           output_times, keep_history: bool, observe=None) -> Trajectory:
    """Run u_{n+1} = update(n, u_n) from u0 up to the last output time and
    record the per-step mass and L2 series, the snapshots at the output times
    and, with ``keep_history``, every step.  ``observe(n, u)``, if given, is
    called at every step boundary n = 0..n_steps after the mass and L2
    records; it must not write to ``u``.  The output times are checked, the
    path against them with ``check_path``, and a kept history against
    ``check_history_size``, before any step."""
    if isinstance(u0, DensityField):
        u = u0.values.copy()
    else:
        u = np.asarray(u0, float).ravel().copy()
        if u.shape[0] != grid.npts:
            raise ConfigurationError("u0 does not match the grid")
    output_times = sorted(float(t) for t in output_times)
    if not output_times:
        raise ConfigurationError("output_times is empty")
    if output_times[0] < 0:
        raise ConfigurationError(f"output time {output_times[0]} is negative")
    t_end = output_times[-1]
    n_steps = int(round(t_end / cfg.dt))
    if abs(n_steps * cfg.dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ConfigurationError("t_end must be a multiple of dt")
    check_path(path, cfg.dt, n_steps, L)
    snap_steps = set()
    for t in output_times:
        k = int(round(t / cfg.dt))
        if abs(k * cfg.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigurationError(f"output time {t} is not a step boundary")
        if k in snap_steps:
            raise ConfigurationError(f"output time {t} is listed twice")
        snap_steps.add(k)

    if keep_history:
        check_history_size(n_steps, grid.npts)
    mass = np.empty(n_steps + 1)
    l2 = np.empty(n_steps + 1)
    vol = grid.cell_volume
    history = np.empty((n_steps + 1, grid.npts)) if keep_history else None
    fields = []
    for n in range(n_steps + 1):
        if n > 0:
            u = update(n - 1, u)
        mass[n] = np.sum(u) * vol
        l2[n] = math.sqrt(dot(u, u) * vol)
        if observe is not None:
            observe(n, u)
        if history is not None:
            history[n] = u
        if n in snap_steps:
            fields.append(DensityField(grid=grid, values=u.copy()))

    _boundary_mass_guard(grid, u)
    return Trajectory(grid=grid, times=np.asarray(output_times), fields=fields,
                      mass_series=mass, l2_series=l2, dt=cfg.dt, full_history=history)


def check_path(path: BrownianPath, dt: float, n_steps: int, L: int) -> None:
    """Refuse a driver path whose dt is not ``dt``, that is shorter than
    ``n_steps`` steps, or that has not one driver per noise term (``L``)."""
    if abs(path.dt - dt) > 1e-12 * max(path.dt, dt):
        raise ConfigurationError(f"path.dt={path.dt} differs from dt={dt}")
    if path.n_steps < n_steps:
        raise ConfigurationError("driver path is shorter than the requested horizon")
    if path.L != L:
        raise ConfigurationError(f"path has {path.L} drivers, coefficients need {L}")


def check_history_size(n_steps: int, npts: int) -> None:
    """Refuse a kept history of (n_steps + 1) x npts values above the
    element limit that driver paths also obey."""
    if (n_steps + 1) * npts > _MAX_ELEMENTS:
        raise SizeError(f"a history of {n_steps + 1} steps x {npts} points exceeds "
                        f"the safety limit of {_MAX_ELEMENTS} values")


def _boundary_mass_guard(grid: Grid, u: np.ndarray):
    total = np.sum(np.abs(u))
    if total == 0.0:
        return
    if grid.d == 1:
        edge = abs(u[0]) + abs(u[-1])
    else:
        arr = np.abs(u.reshape(grid.n))
        edge = arr[[0, -1], :].sum() + arr[1:-1, [0, -1]].sum()  # each cell once
    if edge / total > BOUNDARY_MASS_WARN_FRACTION:
        warnings.warn(
            f"boundary cells hold {edge / total:.2e} of the mass at the last step",
            stacklevel=_caller_stacklevel())


def _caller_stacklevel() -> int:
    """``stacklevel`` that makes a warning raised by this function's caller
    point at the first frame outside the spdelab package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


# -- weak-form residual ----------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Compactly supported bump exp(-s / (1 - s)) with s = |x - center|^2 /
    width^2, zero outside the ball of radius ``width``, which must be finite
    and positive."""

    __test__ = False  # not a pytest case, despite the name

    center: tuple
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise TestFunctionError(f"test function width {self.width} is not finite "
                                    "and positive")

    @classmethod
    def bump(cls, center, width):
        return cls(tuple(np.atleast_1d(np.asarray(center, float))), float(width))

    def value_grad_hess(self, X):
        """The bump's value (m,), gradient (m, d) and Hessian (m, d, d) at
        the points X (m, d), from one pass over its support."""
        X = np.asarray(X, float)
        m, d = X.shape
        diff = X - np.asarray(self.center)
        s = np.sum(diff**2, axis=1) / self.width**2
        inside = s < 1.0
        si = s[inside]
        phi = np.exp(-si / (1.0 - si))
        d1 = -phi / (1.0 - si) ** 2                       # d phi / d s
        d2 = phi / (1.0 - si) ** 4 - 2.0 * phi / (1.0 - si) ** 3
        ds = 2.0 * diff[inside] / self.width**2           # grad s
        value, grad, hess = np.zeros(m), np.zeros((m, d)), np.zeros((m, d, d))
        value[inside] = phi
        grad[inside] = d1[:, None] * 2.0 * diff[inside] / self.width**2
        hess[inside] = (np.einsum("m,mi,mj->mij", d2, ds, ds)
                        + np.einsum("m,ij->mij", d1, 2.0 * np.eye(d) / self.width**2))
        return value, grad, hess


def weak_residual(traj: Trajectory, phi: TestFunction, coeffs: CoefficientSet,
                  path: BrownianPath) -> float:
    """Defect of the weak identity along the trajectory.

    Uses the analytic adjoints forced by <L u, phi> = <u, L* phi>:

        L* phi   = d_i(a^{ij} d_j phi) - b^i d_i phi + c phi,
        M^{l*} phi = -d_i(sigma^{il} phi) + h^l phi,

    grid quadrature in space and left-point sums in time; returns the worst
    absolute defect over the snapshot times normalized by sup_t |int u_t phi|
    plus one.  A deliberately sign-flipped drift must blow this up by an
    order of magnitude (negative control in the test suite).  ``path`` must
    pass ``check_path`` against the trajectory.
    """
    if traj.full_history is None:
        raise ConfigurationError("weak_residual needs a store_every=1 trajectory")
    for name in ("da", "div_sigma"):
        if getattr(coeffs, name) is None:
            raise ConfigurationError(f"weak_residual needs the derivative hook '{name}'")
    grid = traj.grid
    for lo, hi, ci in zip(grid.x_min, grid.x_max, phi.center):
        if ci - phi.width <= lo or ci + phi.width >= hi:
            raise TestFunctionError("test function support touches the boundary")
    pts = grid.points()
    vol = grid.cell_volume
    phiv, gphi, hphi = phi.value_grad_hess(pts)
    hist = traj.full_history
    n_steps = hist.shape[0] - 1
    dt = traj.dt
    check_path(path, dt, n_steps, coeffs.L)

    def terms(n):
        """[L* phi; M^{l*} phi] of step n as rows, <f, phi> and the <g^l, phi>."""
        A, da, bv, cv, S, dS, hv, fv, gv = (
            coeffs.sample(name, n * dt, pts)
            for name in ("a", "da", "b", "c", "sigma", "div_sigma", "h", "f", "g"))
        ls = (np.einsum("mi,mi->m", da, gphi)
              + np.einsum("mij,mij->m", A, hphi)
              - np.einsum("mi,mi->m", bv, gphi) + cv * phiv)
        ms = (-dS * phiv[:, None] - np.einsum("mil,mi->ml", S, gphi)
              + hv * phiv[:, None])
        return np.vstack([ls, ms.T]), float(dot(fv, phiv)), dot(gv.T, phiv).tolist()
    terms = reuse_if_static(terms, not coeffs.time_dependent)

    lhs0 = float(dot(hist[0], phiv)) * vol
    acc = 0.0
    snap_defects = []
    snap_steps = set(int(round(t / dt)) for t in traj.times)
    obs = {}
    for n in range(n_steps + 1):
        if n in snap_steps:
            lhs = float(dot(hist[n], phiv)) * vol
            obs[n] = lhs
            snap_defects.append(abs(lhs - (lhs0 + acc)))
        if n == n_steps:
            break
        adjoints, f_phi, g_phi = terms(n)
        l_u, *m_u = dot(adjoints, hist[n]).tolist()   # <u_n, L* phi>, <u_n, M^{l*} phi>
        acc += dt * l_u * vol + dt * f_phi * vol
        for l in range(coeffs.L):
            dB = path.increments[n, l]
            if dB != 0.0:
                acc += m_u[l] * vol * dB
                acc += g_phi[l] * vol * dB
    denom = max(abs(v) for v in obs.values()) + 1.0
    return max(snap_defects) / denom
