"""Divergence-form spatial discretization and semi-implicit time stepping.

The generator L u = d_i(a^{ij} d_j u) + d_i(b^i u) + c u is assembled in flux
form: diffusive face values by arithmetic averaging, drift fluxes by central
averaging, and (in 2-d) mixed terms with the 4-point corner average for the
transverse gradient at a face.  With c = 0 and zero-flux walls every column
of the operator sums to zero exactly, so the discrete mass telescopes: this
property is what several acceptance checks assert at the 1e-12 level, and it
is why face averaging is arithmetic (harmonic averaging kills fluxes wherever
the diffusion degenerates).

Time stepping treats the generator with implicitness theta in [1/2, 1] and
the noise term explicitly (left-point in time):

    (I - theta dt L) u_{n+1} = u_n + (1-theta) dt L u_n + dt f_n
                               + sum_l (M^l u_n + g^l_n) dB^l_n.

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
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import splu

from .errors import (ConfigurationError, SizeError, SolverError, StabilityError,
                     TestFunctionError, ValidationError)
from .grids import DensityField, Grid
from .model import PARABOLIC_TOL, CoefficientSet, _worst_defect, reuse_if_static
from .noise import _MAX_ELEMENTS, BrownianPath

BOUNDARY_MASS_WARN_FRACTION = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    theta: float = 1.0
    store_every: int = 0  # 0: snapshots only; 1: keep the full step history

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if not 0.5 <= self.theta <= 1.0:
            raise ValidationError("theta must lie in [1/2, 1]")
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
    theta: float
    full_history: np.ndarray | None = None

    @property
    def step_times(self) -> np.ndarray:
        return np.arange(len(self.mass_series)) * self.dt

    @property
    def energy_series(self) -> np.ndarray:
        return self.l2_series ** 2


def _neighbours(idx: np.ndarray, axis: int, boundary: str):
    """Flat index of each cell's +1 and -1 neighbour along ``axis``, each with
    its ghost factor: 1 inside the box; at a wall the ghost is the cell itself
    times +1 (zero-flux mirror) or -1 (negated mirror for a wall zero)."""
    out = []
    for step, wall in ((1, -1), (-1, 0)):
        edge = (slice(None),) * axis + (wall,)
        nb = np.roll(idx, -step, axis)
        nb[edge] = idx[edge]
        factor = np.ones(idx.shape)
        factor[edge] = 1.0 if boundary == "zero-flux" else -1.0
        out += [nb, factor]
    return out


def _entries(rows, cols, vals, keep):
    """COO triplets from per-site entry lists: each list is stacked on a last
    axis and raveled in C order, so the triplets come site by site and, within
    a site, in list order; ``keep`` masks entries out."""
    keep = np.stack([np.broadcast_to(k, np.shape(rows[0])) for k in keep], axis=-1).ravel()
    return tuple(np.stack(part, axis=-1).ravel()[keep] for part in (rows, cols, vals))


def _to_csr(blocks, N: int) -> csr_matrix:
    # csr_matrix sums duplicate entries in triplet order, so the same triplet
    # sequence gives the same bits
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return csr_matrix((vals, (rows, cols)), shape=(N, N))


def assemble_generator(coeffs: CoefficientSet, grid: Grid, t: float) -> csr_matrix:
    """Flux-form sparse generator at time t.

    Per face, in face order along each axis: the diffusive and drift fluxes
    (8 entries), then in 2-d the a12 cross flux with the 4-point corner
    average for the transverse gradient (8 entries, only where the face
    value of a12 is nonzero).  Then the zero-value ghost terms, axis by
    axis, and the nonzero entries of c on the diagonal.
    """
    pts = grid.points()
    A = coeffs.a(t, pts)
    bvec = coeffs.b(t, pts)
    cvec = coeffs.c(t, pts)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(bvec))
            and np.all(np.isfinite(cvec))):
        raise SolverError(f"non-finite generator coefficients at t={t}")
    if not np.allclose(A, np.transpose(A, (0, 2, 1)), atol=1e-13, rtol=0):
        raise ValidationError("a(t,x) sample is not symmetric")
    shape = tuple(grid.n)
    idx = np.arange(grid.npts).reshape(shape)
    blocks, ghosts = [], []
    for ax, h in enumerate(grid.hs):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        a = A[:, ax, ax].reshape(shape)
        b = bvec[:, ax].reshape(shape)
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
            a12 = A[:, 0, 1].reshape(shape)
            cf = 0.5 * (a12[lo] + a12[hi])
            q = 1.0 / (4 * grid.hs[1 - ax])
            nbp, fp, nbm, fm = _neighbours(idx, 1 - ax, grid.boundary)
            for col, w in ((nbp[lo], fp[lo] * q), (nbp[hi], fp[hi] * q),
                           (nbm[lo], -fm[lo] * q), (nbm[hi], -fm[hi] * q)):
                rows += [r0, r1]
                cols += [col, col]
                vals += [cf * w / h, -cf * w / h]
                keep += [cf != 0.0] * 2
        blocks.append(_entries(rows, cols, vals, keep))
        if grid.boundary == "zero-value":
            # ghost = -u across the wall: diffusion doubles, drift cancels to O(h^2)
            walls = [(slice(None),) * ax + (w,) for w in (0, -1)]
            ends = [idx[w] for w in walls]
            ghosts.append(_entries(ends, ends, [-2 * a[w] / h**2 for w in walls],
                                   [True, True]))
    cflat = np.asarray(cvec, float).ravel()
    nz = np.flatnonzero(cflat)
    return _to_csr(blocks + ghosts + [(nz, nz, cflat[nz])], grid.npts)


def assemble_noise_op(coeffs: CoefficientSet, grid: Grid, t: float, l: int) -> csr_matrix:
    """M^l u = sigma^{il} d_i u + h^l u with central differences.

    Per cell, in cell order: the +1 and -1 neighbours along each axis (the
    cell itself times the ghost factor at a wall), then h^l on the
    diagonal; zero entries are left out.
    """
    if not 0 <= l < coeffs.L:
        raise ConfigurationError(f"driver index {l} outside [0, {coeffs.L})")
    pts = grid.points()
    S = coeffs.sigma(t, pts)[:, :, l]
    hv = coeffs.h(t, pts)[:, l]
    shape = tuple(grid.n)
    idx = np.arange(grid.npts).reshape(shape)
    cols, vals = [], []
    for ax, h in enumerate(grid.hs):
        s = S[:, ax].reshape(shape)
        nbp, fp, nbm, fm = _neighbours(idx, ax, grid.boundary)
        cols += [nbp, nbm]
        vals += [fp * s / (2 * h), -fm * s / (2 * h)]
    cols.append(idx)
    vals.append(hv.reshape(shape))
    keep = [v != 0.0 for v in vals]
    return _to_csr([_entries([idx] * len(cols), cols, vals, keep)], grid.npts)


def check_stability(coeffs: CoefficientSet, grid: Grid, t: float, dt: float):
    """Explicit-noise mean-square budget and the parabolic condition: the
    smallest eigenvalue of 2a - sigma sigma^T at the grid points is >= -1e-12."""
    pts = grid.points()
    S = coeffs.sigma(t, pts)
    A = coeffs.a(t, pts)
    hmin = min(grid.hs)
    sig_sq = float(np.max(np.sum(S**2, axis=(1, 2)))) if S.size else 0.0
    if sig_sq > 0 and dt * sig_sq / hmin**2 > 1.0 + 1e-12:
        raise StabilityError(
            f"dt={dt} violates the noise stability budget",
            suggested_dt=0.95 * hmin**2 / sig_sq)
    # a non-finite field gives a nan defect, which passes here and fails,
    # named as non-finite, in assembly
    defect = _worst_defect([(A, S)], PARABOLIC_TOL).min_defect
    if defect < -PARABOLIC_TOL:
        raise StabilityError(f"coefficients are not parabolic at t={t}: the smallest "
                             f"eigenvalue of 2a - sigma sigma^T is {defect:.3e} < 0")


class _ImplicitSystem:
    """I - theta dt L, factored once; ``solve`` is the per-step solve.

    In 1-d the flux-form operator is tridiagonal by construction, so the
    matrix is factored with LAPACK gttrf (LU with partial pivoting) and each
    step is one gttrs call.  In 2-d it is a sparse LU (splu, partial
    pivoting as SuperLU's default) on a minimum-degree ordering of A + A^T:
    every face flux couples its two cells both ways, so the pattern of
    I - theta dt L is symmetric and that ordering fills less than the
    default COLAMD, which orders A^T A.
    """

    def __init__(self, Lop: csr_matrix, dt: float, theta: float, grid: Grid):
        self.Lop = Lop
        M = identity(Lop.shape[0], format="csr") - theta * dt * Lop
        if grid.d == 1:
            coo = M.tocoo()
            if np.any(np.abs(coo.row - coo.col) > 1):
                raise SolverError("1-d implicit system is not tridiagonal")
            dl, d, du, du2, ipiv, info = dgttrf(M.diagonal(-1), M.diagonal(0),
                                                M.diagonal(1))
            if info != 0:
                raise SolverError(f"tridiagonal factorization failed (info={info})")
            self._solve = lambda r: dgttrs(dl, d, du, du2, ipiv, r)[0]
        else:
            self._solve = splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A").solve

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
    and re-evaluate every step.  With ``guard`` the stability check runs at
    t = 0 and, for time-dependent coefficients, again at the start of every
    step.
    """

    def __init__(self, coeffs: CoefficientSet, grid: Grid, dt: float,
                 theta: float, guard: bool):
        self.coeffs, self.grid, self.dt, self.theta = coeffs, grid, dt, theta
        self.pts = grid.points()
        self._static = not coeffs.time_dependent
        self._guard = guard
        self._n = None
        self._check(0.0)
        self.sources = reuse_if_static(self._sources, self._static)

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
            self.Lop = assemble_generator(self.coeffs, self.grid, t + 0.5 * self.dt)
            self.system = _ImplicitSystem(self.Lop, self.dt, self.theta, self.grid)
            self._noise = [None] * self.coeffs.L
            self._n = n

    def _sources(self, n: int):
        """f at the midpoint of step n, g at its left point, and whether f
        is nonzero."""
        t = n * self.dt
        fv = self.coeffs.f(t + 0.5 * self.dt, self.pts)
        return fv, self.coeffs.g(t, self.pts), bool(np.any(fv))

    def noise_op(self, l: int) -> csr_matrix:
        """M^l of the current step."""
        if self._noise[l] is None:
            self._noise[l] = assemble_noise_op(self.coeffs, self.grid,
                                               self._n * self.dt, l)
        return self._noise[l]

    def explicit(self, u: np.ndarray) -> np.ndarray:
        """u + (1 - theta) dt L u with the current step's generator."""
        rhs = u.copy()
        if self.theta < 1.0:
            rhs += (1.0 - self.theta) * self.dt * (self.Lop @ u)
        return rhs

    def advance(self, u: np.ndarray, n: int, dB, f=None, g=None) -> np.ndarray:
        """u_{n+1} from u_n along driver increments dB; ``f`` (m,) and ``g``
        (m, L) are extra sources added to the coefficients' f and g."""
        self.at(n)
        rhs = self.explicit(u)
        fv, gv, f_nonzero = self.sources(n)
        if f is not None:
            fv = fv + f
        if f is not None or f_nonzero:
            rhs += self.dt * fv
        if g is not None:
            gv = g + gv
        for l in range(self.coeffs.L):
            if dB[l] != 0.0:
                rhs += (self.noise_op(l) @ u + gv[:, l]) * dB[l]
        return self.system.solve(rhs)


def solve(coeffs: CoefficientSet, u0, grid: Grid, cfg: SolverConfig,
          path: BrownianPath, output_times) -> Trajectory:
    """March the scheme along the driver path and record snapshots."""
    stepper = Stepper(coeffs, grid, cfg.dt, cfg.theta, True)
    return _march(lambda n, u: stepper.advance(u, n, path.increments[n]), u0,
                  grid, cfg, path, coeffs.L, output_times, cfg.store_every == 1)


def _march(update, u0, grid: Grid, cfg: SolverConfig, path: BrownianPath, L: int,
           output_times, keep_history: bool) -> Trajectory:
    """Run u_{n+1} = update(n, u_n) from u0 up to the last output time and
    record the per-step mass and L2 series, the snapshots at the output times
    and, with ``keep_history``, every step.  The horizon, the output times,
    dt and the driver count are checked against ``path``, and a kept history
    against ``check_history_size``, before any step."""
    if isinstance(u0, DensityField):
        u = u0.values.copy()
    else:
        u = np.asarray(u0, float).ravel().copy()
        if u.shape[0] != grid.npts:
            raise ConfigurationError("u0 does not match the grid")
    if abs(path.dt - cfg.dt) > 1e-12 * max(path.dt, cfg.dt):
        raise ConfigurationError(f"path.dt={path.dt} differs from cfg.dt={cfg.dt}")
    output_times = sorted(float(t) for t in output_times)
    if not output_times:
        raise ConfigurationError("output_times is empty")
    if output_times[0] < 0:
        raise ConfigurationError(f"output time {output_times[0]} is negative")
    t_end = output_times[-1]
    n_steps = int(round(t_end / cfg.dt))
    if abs(n_steps * cfg.dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ConfigurationError("t_end must be a multiple of dt")
    if path.n_steps < n_steps:
        raise ConfigurationError("driver path is shorter than the requested horizon")
    if path.L != L:
        raise ConfigurationError(f"path has {path.L} drivers, coefficients need {L}")
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
        l2[n] = math.sqrt((u @ u) * vol)
        if history is not None:
            history[n] = u
        if n in snap_steps:
            fields.append(DensityField(grid=grid, values=u.copy(), time_index=n))

    _boundary_mass_guard(grid, u)
    return Trajectory(grid=grid, times=np.asarray(output_times), fields=fields,
                      mass_series=mass, l2_series=l2, dt=cfg.dt, theta=cfg.theta,
                      full_history=history)


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
    """Analytic test function: gaussian or compactly supported bump."""

    __test__ = False  # not a pytest case, despite the name

    kind: str
    center: tuple
    width: float

    @classmethod
    def gaussian(cls, center, width):
        c = tuple(np.atleast_1d(np.asarray(center, float)))
        return cls("gaussian", c, float(width))

    @classmethod
    def bump(cls, center, width):
        c = tuple(np.atleast_1d(np.asarray(center, float)))
        return cls("bump", c, float(width))

    @property
    def support_radius(self) -> float:
        return self.width if self.kind == "bump" else 8.5 * self.width

    def value(self, X):
        s = self._s(X)
        if self.kind == "gaussian":
            return np.exp(-0.5 * s)
        out = np.zeros(s.shape)
        inside = s < 1.0
        out[inside] = np.exp(-s[inside] / (1.0 - s[inside]))
        return out

    def grad(self, X):
        X = np.asarray(X, float)
        diff = X - np.asarray(self.center)
        s = self._s(X)
        if self.kind == "gaussian":
            return -diff / self.width**2 * np.exp(-0.5 * s)[:, None]
        out = np.zeros_like(diff)
        inside = s < 1.0
        phi = np.exp(-s[inside] / (1.0 - s[inside]))
        dphi_ds = -phi / (1.0 - s[inside]) ** 2
        out[inside] = dphi_ds[:, None] * 2.0 * diff[inside] / self.width**2
        return out

    def hess(self, X):
        X = np.asarray(X, float)
        m, d = X.shape
        diff = X - np.asarray(self.center)
        s = self._s(X)
        out = np.zeros((m, d, d))
        eye = np.eye(d)
        if self.kind == "gaussian":
            phi = np.exp(-0.5 * s)
            out = (np.einsum("mi,mj->mij", diff, diff) / self.width**4
                   - eye[None, :, :] / self.width**2) * phi[:, None, None]
            return out
        inside = s < 1.0
        si = s[inside]
        phi = np.exp(-si / (1.0 - si))
        d1 = -phi / (1.0 - si) ** 2                       # d phi / d s
        d2 = phi / (1.0 - si) ** 4 - 2.0 * phi / (1.0 - si) ** 3
        ds = 2.0 * diff[inside] / self.width**2           # grad s
        out[inside] = (np.einsum("m,mi,mj->mij", d2, ds, ds)
                       + np.einsum("m,ij->mij", d1, 2.0 * eye / self.width**2))
        return out

    def _s(self, X):
        X = np.asarray(X, float)
        diff = X - np.asarray(self.center)
        return np.sum(diff**2, axis=1) / self.width**2


def weak_residual(traj: Trajectory, phi: TestFunction, coeffs: CoefficientSet,
                  path: BrownianPath) -> float:
    """Defect of the weak identity along the trajectory.

    Uses the analytic adjoints forced by <L u, phi> = <u, L* phi>:

        L* phi   = d_i(a^{ij} d_j phi) - b^i d_i phi + c phi,
        M^{l*} phi = -d_i(sigma^{il} phi) + h^l phi,

    grid quadrature in space and left-point sums in time; returns the worst
    absolute defect over the snapshot times normalized by sup_t |int u_t phi|
    plus one.  A deliberately sign-flipped drift must blow this up by an
    order of magnitude (negative control in the test suite).
    """
    if traj.full_history is None:
        raise ConfigurationError("weak_residual needs a store_every=1 trajectory")
    grid = traj.grid
    for lo, hi, ci in zip(grid.x_min, grid.x_max, phi.center):
        if ci - phi.support_radius <= lo or ci + phi.support_radius >= hi:
            raise TestFunctionError("test function support touches the boundary")
    pts = grid.points()
    vol = grid.cell_volume
    phiv = phi.value(pts)
    gphi = phi.grad(pts)
    hphi = phi.hess(pts)
    hist = traj.full_history
    n_steps = hist.shape[0] - 1
    dt = traj.dt

    def terms(n):
        """L* phi, M* phi, <f, phi> and <g^l, phi> of step n."""
        t = n * dt
        A = coeffs.a(t, pts)
        da = coeffs.da(t, pts)
        bv = coeffs.b(t, pts)
        cv = coeffs.c(t, pts)
        S = coeffs.sigma(t, pts)
        dS = coeffs.div_sigma(t, pts)
        hv = coeffs.h(t, pts)
        ls = (np.einsum("mi,mi->m", da, gphi)
              + np.einsum("mij,mij->m", A, hphi)
              - np.einsum("mi,mi->m", bv, gphi) + cv * phiv)
        ms = (-dS * phiv[:, None] - np.einsum("mil,mi->ml", S, gphi)
              + hv * phiv[:, None])
        fv, gv = coeffs.f(t, pts), coeffs.g(t, pts)
        return (ls, ms, float(fv @ phiv),
                tuple(float(gv[:, l] @ phiv) for l in range(coeffs.L)))
    terms = reuse_if_static(terms, not coeffs.time_dependent)

    lhs0 = float(hist[0] @ phiv) * vol
    acc = 0.0
    snap_defects = []
    snap_steps = set(int(round(t / dt)) for t in traj.times)
    obs = {}
    for n in range(n_steps + 1):
        if n in snap_steps:
            lhs = float(hist[n] @ phiv) * vol
            obs[n] = lhs
            snap_defects.append(abs(lhs - (lhs0 + acc)))
        if n == n_steps:
            break
        ls, ms, f_phi, g_phi = terms(n)
        u_n = hist[n]
        acc += dt * float(u_n @ ls) * vol + dt * f_phi * vol
        for l in range(coeffs.L):
            dB = path.increments[n, l]
            if dB != 0.0:
                acc += float(u_n @ ms[:, l]) * vol * dB
                acc += g_phi[l] * vol * dB
    denom = max(abs(v) for v in obs.values()) + 1.0
    return max(snap_defects) / denom
