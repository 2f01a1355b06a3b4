import collections
import copy
import gc
import math
import os
import subprocess
import sys
import unittest.mock
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import splu

from spdelab import diagnostics, noise, picard, solver
from spdelab import filtering as flt
from spdelab.errors import (ConfigurationError, EvaluationError, SizeError, SolverError,
                            StabilityError, TestFunctionError, ValidationError)
from spdelab.families import ScalarField
from spdelab.grids import DensityField, Grid
from spdelab.model import PARABOLIC_TOL, CoefficientSet, verify_parabolicity
from spdelab.mollifier import MollifierParams, mollified_parabolicity_check
from spdelab.solver import SolverConfig, TestFunction


def gaussian_density(grid, var=0.25, center=0.0):
    x = grid.x
    return np.exp(-(x - center) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def zero_path(L, n_steps, dt):
    p = noise.generate(0, L, n_steps, dt)
    return noise.BrownianPath(dt=dt, increments=np.zeros_like(p.increments), seed=0)


class TestAssembleGenerator:
    def test_pure_diffusion_stencil(self):
        grid = Grid.line(-1, 1, 16)
        cs = CoefficientSet.from_fields(d=1, L=1, a=1.0)
        L = solver.assemble_generator(cs, grid, 0.0).toarray()
        h = grid.hs[0]
        i = 8
        assert L[i, i - 1] == pytest.approx(1 / h**2)
        assert L[i, i] == pytest.approx(-2 / h**2)
        assert L[i, i + 1] == pytest.approx(1 / h**2)

    def test_constant_state_annihilated_by_drift(self):
        grid = Grid.line(-1, 1, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.0, b=0.7)
        L = solver.assemble_generator(cs, grid, 0.0)
        out = L @ np.ones(grid.npts)
        assert np.max(np.abs(out[1:-1])) < 1e-12

    def test_column_sums_vanish_zero_flux(self):
        grid = Grid.line(-2, 2, 48)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=ScalarField("sinusoidal", 1, amp=0.3, offset=1.0),
            b=ScalarField("sinusoidal", 1, amp=0.5, freq=2.0))
        L = solver.assemble_generator(cs, grid, 0.0)
        colsums = np.asarray(L.sum(axis=0)).ravel()
        assert np.max(np.abs(colsums)) < 1e-12

    def test_column_sums_vanish_2d_with_cross_terms(self):
        grid = Grid.box2d((-1, -1), (1, 1), (20, 24))
        cs = CoefficientSet.from_fields(
            d=2, L=1, a=(1.0, 0.3, 0.8), b=(0.5, -0.2))
        L = solver.assemble_generator(cs, grid, 0.0)
        colsums = np.asarray(L.sum(axis=0)).ravel()
        assert np.max(np.abs(colsums)) < 1e-11

    def test_second_order_convergence_vs_analytic(self):
        # smooth a, b, c applied to sin x against the hand-computed operator
        a = ScalarField("sinusoidal", 1, amp=0.3, freq=1.0, offset=1.2)
        b = ScalarField("sinusoidal", 1, amp=0.4, freq=2.0)
        cs = CoefficientSet.from_fields(d=1, L=1, a=a, b=b, c=0.3)

        def analytic_L(x):
            u = np.sin(x)
            du = np.cos(x)
            d2u = -np.sin(x)
            av = 1.2 + 0.3 * np.sin(x)
            dav = 0.3 * np.cos(x)
            bv = 0.4 * np.sin(2 * x)
            dbv = 0.8 * np.cos(2 * x)
            return dav * du + av * d2u + dbv * u + bv * du + 0.3 * u

        errs = []
        for n in (128, 256):
            grid = Grid.line(-3, 3, n)
            L = solver.assemble_generator(cs, grid, 0.0)
            x = grid.x
            out = L @ np.sin(x)
            interior = slice(2, -2)
            errs.append(np.max(np.abs((out - analytic_L(x))[interior])))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_asymmetric_a_rejected(self):
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        base = CoefficientSet.from_fields(d=2, L=1, a=(1.0, 0.0, 1.0))

        def bad_a(t, x):
            out = np.tile(np.array([[1.0, 0.2], [0.1, 1.0]]), (x.shape[0], 1, 1))
            return out
        cs = CoefficientSet(2, 1, bad_a, base.b, base.c, base.sigma, base.h,
                            base.f, base.g)
        with pytest.raises(ValidationError):
            solver.assemble_generator(cs, grid, 0.0)


class TestAssembleNoiseOp:
    def test_multiplication_only(self):
        grid = Grid.line(-1, 1, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, h=1.0)
        M = solver.assemble_noise_op(cs, grid, 0.0, 0)
        v = np.linspace(0, 1, grid.npts)
        assert np.allclose(M @ v, v)

    def test_gradient_of_affine(self):
        grid = Grid.line(-1, 1, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, sigma=1.0)
        M = solver.assemble_noise_op(cs, grid, 0.0, 0)
        out = M @ grid.x
        assert np.allclose(out[1:-1], 1.0, atol=1e-12)

    def test_second_order_convergence(self):
        sig = ScalarField("sinusoidal", 1)
        hf = ScalarField("sinusoidal", 1, phase=np.pi / 2)  # cos x
        cs = CoefficientSet.from_fields(d=1, L=1, sigma=sig, h=hf)
        errs = []
        for n in (128, 256):
            grid = Grid.line(-3, 3, n)
            M = solver.assemble_noise_op(cs, grid, 0.0, 0)
            x = grid.x
            u = np.exp(-(x**2))
            exact = np.sin(x) * (-2 * x * u) + np.cos(x) * u
            errs.append(np.max(np.abs((M @ u - exact)[2:-2])))
        assert 3.3 < errs[0] / errs[1] < 4.7

    def test_driver_index_checked(self):
        grid = Grid.line(-1, 1, 16)
        cs = CoefficientSet.from_fields(d=1, L=1)
        with pytest.raises(ConfigurationError):
            solver.assemble_noise_op(cs, grid, 0.0, 1)


# -- reference face loops ---------------------------------------------------
# The operators as they were first built: COO triplets appended one face (or
# one cell) at a time.  The index-array builders in solver.py must reproduce
# their CSR byte for byte.

def reference_generator(coeffs: CoefficientSet, grid: Grid, t: float) -> csr_matrix:
    pts = grid.points()
    A = coeffs.a(t, pts)
    bvec = coeffs.b(t, pts)
    cvec = coeffs.c(t, pts)
    if grid.d == 1:
        return _assemble_1d(A[:, 0, 0], bvec[:, 0], cvec, grid)
    return _assemble_2d(A, bvec, cvec, grid)


def _assemble_1d(a, b, c, grid: Grid) -> csr_matrix:
    n = grid.n[0]
    h = grid.hs[0]
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    af = 0.5 * (a[:-1] + a[1:])
    for k in range(n - 1):
        add(k, k, -af[k] / h**2)
        add(k, k + 1, af[k] / h**2)
        add(k + 1, k + 1, -af[k] / h**2)
        add(k + 1, k, af[k] / h**2)
        # drift flux F_{k+1/2} = (b_k u_k + b_{k+1} u_{k+1}) / 2
        add(k, k, b[k] / (2 * h))
        add(k, k + 1, b[k + 1] / (2 * h))
        add(k + 1, k, -b[k] / (2 * h))
        add(k + 1, k + 1, -b[k + 1] / (2 * h))
    for i in range(n):
        if c[i] != 0.0:
            add(i, i, c[i])
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def _assemble_2d(A, b, c, grid: Grid) -> csr_matrix:
    n1, n2 = grid.n
    h1, h2 = grid.hs
    N = n1 * n2

    def idx(i, j):
        return i * n2 + j

    rows, cols, vals = [], [], []

    def add(r, cc, v):
        rows.append(r)
        cols.append(cc)
        vals.append(v)

    a11 = A[:, 0, 0].reshape(n1, n2)
    a22 = A[:, 1, 1].reshape(n1, n2)
    a12 = A[:, 0, 1].reshape(n1, n2)
    b1 = b[:, 0].reshape(n1, n2)
    b2 = b[:, 1].reshape(n1, n2)

    def corner_avg_terms(i, j, axis):
        """Transverse-gradient stencil at the face (i+1/2, j) (axis 0) or
        (i, j+1/2) (axis 1), with the zero-flux mirror ghost at the box
        walls."""
        out = []
        if axis == 0:
            hT, nT = h2, n2
            cells = ((i, j), (i + 1, j))
            plus = [(ci, cj + 1) for ci, cj in cells]
            minus = [(ci, cj - 1) for ci, cj in cells]
        else:
            hT, nT = h1, n1
            cells = ((i, j), (i, j + 1))
            plus = [(ci + 1, cj) for ci, cj in cells]
            minus = [(ci - 1, cj) for ci, cj in cells]
        for (pi, pj), (ci, cj) in zip(plus, cells):
            tr = pi if axis == 1 else pj
            if 0 <= tr < nT:
                out.append((idx(pi, pj), 1.0 / (4 * hT)))
            else:
                out.append((idx(ci, cj), 1.0 / (4 * hT)))
        for (mi, mj), (ci, cj) in zip(minus, cells):
            tr = mi if axis == 1 else mj
            if 0 <= tr < nT:
                out.append((idx(mi, mj), -1.0 / (4 * hT)))
            else:
                out.append((idx(ci, cj), -1.0 / (4 * hT)))
        return out

    # axis-0 faces
    for i in range(n1 - 1):
        for j in range(n2):
            r0, r1 = idx(i, j), idx(i + 1, j)
            af = 0.5 * (a11[i, j] + a11[i + 1, j])
            add(r0, r0, -af / h1**2)
            add(r0, r1, af / h1**2)
            add(r1, r1, -af / h1**2)
            add(r1, r0, af / h1**2)
            add(r0, r0, b1[i, j] / (2 * h1))
            add(r0, r1, b1[i + 1, j] / (2 * h1))
            add(r1, r0, -b1[i, j] / (2 * h1))
            add(r1, r1, -b1[i + 1, j] / (2 * h1))
            cf = 0.5 * (a12[i, j] + a12[i + 1, j])
            if cf != 0.0:
                for col, w in corner_avg_terms(i, j, axis=0):
                    add(r0, col, cf * w / h1)
                    add(r1, col, -cf * w / h1)
    # axis-1 faces
    for i in range(n1):
        for j in range(n2 - 1):
            r0, r1 = idx(i, j), idx(i, j + 1)
            af = 0.5 * (a22[i, j] + a22[i, j + 1])
            add(r0, r0, -af / h2**2)
            add(r0, r1, af / h2**2)
            add(r1, r1, -af / h2**2)
            add(r1, r0, af / h2**2)
            add(r0, r0, b2[i, j] / (2 * h2))
            add(r0, r1, b2[i, j + 1] / (2 * h2))
            add(r1, r0, -b2[i, j] / (2 * h2))
            add(r1, r1, -b2[i, j + 1] / (2 * h2))
            cf = 0.5 * (a12[i, j] + a12[i, j + 1])
            if cf != 0.0:
                for col, w in corner_avg_terms(i, j, axis=1):
                    add(r0, col, cf * w / h2)
                    add(r1, col, -cf * w / h2)
    cflat = np.asarray(c, float).ravel()
    for r in np.nonzero(cflat)[0]:
        add(int(r), int(r), cflat[r])
    return csr_matrix((vals, (rows, cols)), shape=(N, N))


def reference_noise_op(coeffs: CoefficientSet, grid: Grid, t: float, l: int) -> csr_matrix:
    """M^l u = sigma^{il} d_i u + h^l u with central differences."""
    if not 0 <= l < coeffs.L:
        raise ConfigurationError(f"driver index {l} outside [0, {coeffs.L})")
    pts = grid.points()
    S = coeffs.sigma(t, pts)[:, :, l]
    hv = coeffs.h(t, pts)[:, l]
    rows, cols, vals = [], [], []

    def add(i, j, v):
        if v != 0.0:
            rows.append(i)
            cols.append(j)
            vals.append(v)

    if grid.d == 1:
        n = grid.n[0]
        h = grid.hs[0]
        s = S[:, 0]
        for i in range(n):
            ip, im = i + 1, i - 1
            if ip < n:
                add(i, ip, s[i] / (2 * h))
            else:
                add(i, i, s[i] / (2 * h))
            if im >= 0:
                add(i, im, -s[i] / (2 * h))
            else:
                add(i, i, -s[i] / (2 * h))
            add(i, i, hv[i])
        return csr_matrix((vals, (rows, cols)), shape=(n, n))

    n1, n2 = grid.n
    h1, h2 = grid.hs
    s1 = S[:, 0].reshape(n1, n2)
    s2 = S[:, 1].reshape(n1, n2)
    hv2 = hv.reshape(n1, n2)

    def idx(i, j):
        return i * n2 + j

    for i in range(n1):
        for j in range(n2):
            r = idx(i, j)
            if i + 1 < n1:
                add(r, idx(i + 1, j), s1[i, j] / (2 * h1))
            else:
                add(r, r, s1[i, j] / (2 * h1))
            if i - 1 >= 0:
                add(r, idx(i - 1, j), -s1[i, j] / (2 * h1))
            else:
                add(r, r, -s1[i, j] / (2 * h1))
            if j + 1 < n2:
                add(r, idx(i, j + 1), s2[i, j] / (2 * h2))
            else:
                add(r, r, s2[i, j] / (2 * h2))
            if j - 1 >= 0:
                add(r, idx(i, j - 1), -s2[i, j] / (2 * h2))
            else:
                add(r, r, -s2[i, j] / (2 * h2))
            add(r, r, hv2[i, j])
    return csr_matrix((vals, (rows, cols)), shape=(n1 * n2, n1 * n2))


def family_field(draw, d):
    """A random serializable field in d dimensions, of magnitude about 1."""
    kind = draw(st.sampled_from(["constant", "affine", "sinusoidal", "gaussian"]))
    vec = st.lists(st.floats(-1, 1), min_size=d, max_size=d)
    if kind == "constant":
        return ScalarField("constant", d, value=draw(st.floats(-1, 1)))
    if kind == "affine":
        return ScalarField("affine", d, c0=draw(st.floats(-1, 1)), slope=draw(vec))
    if kind == "sinusoidal":
        return ScalarField("sinusoidal", d, amp=draw(st.floats(0, 1)),
                           freq=np.abs(draw(vec)) * 3, phase=draw(st.floats(0, 3)),
                           offset=draw(st.floats(-1, 1)))
    return ScalarField("gaussian", d, amp=draw(st.floats(-1, 1)), center=draw(vec),
                       width=draw(st.floats(0.2, 2)))


def cut_to_zero(fn, cut):
    """fn(t, x) with its values set to zero wherever x_1 < cut."""
    def out(t, x):
        v = fn(t, x)
        mask = (x[:, 0] < cut).reshape((-1,) + (1,) * (v.ndim - 1))
        return np.where(mask, 0.0, v)
    return out


@st.composite
def operator_cases(draw, d, cross, with_c=True):
    """(coefficients, grid) from random family fields on a 1-d or a
    non-square 2-d grid, with the a12 field when ``cross``; in half of the
    cases a, c, sigma and h are cut to zero on a random half-space."""
    L = draw(st.integers(1, 2))
    c = family_field(draw, d) if with_c else 0.0
    sigma = [family_field(draw, d) if d == 1 else
             (family_field(draw, d), family_field(draw, d)) for _ in range(L)]
    h = [family_field(draw, d) for _ in range(L)]
    if d == 1:
        grid = Grid.line(-2, 2, draw(st.integers(16, 40)))
        cs = CoefficientSet.from_fields(d=1, L=L, a=family_field(draw, 1),
                                        b=family_field(draw, 1), c=c, sigma=sigma, h=h)
    else:
        n1 = draw(st.integers(16, 24))
        grid = Grid.box2d((-2, -1.5), (2, 1.5), (n1, n1 + draw(st.integers(1, 6))))
        a12 = family_field(draw, 2) if cross else 0.0
        cs = CoefficientSet.from_fields(
            d=2, L=L, a=(family_field(draw, 2), a12, family_field(draw, 2)),
            b=(family_field(draw, 2), family_field(draw, 2)), c=c, sigma=sigma, h=h)
    if draw(st.booleans()):
        cut = draw(st.floats(-2, 2))
        cs.a, cs.c, cs.sigma, cs.h = (cut_to_zero(fn, cut)
                                      for fn in (cs.a, cs.c, cs.sigma, cs.h))
    return cs, grid


def assert_same_csr(new, ref):
    assert new.shape == ref.shape
    assert new.indptr.tobytes() == ref.indptr.tobytes()
    assert new.indices.tobytes() == ref.indices.tobytes()
    assert new.data.tobytes() == ref.data.tobytes()


LAYOUTS = pytest.mark.parametrize("d, cross", [(1, False), (2, False), (2, True)])


class TestIndexArrayBuilders:
    @LAYOUTS
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_generator_matches_face_loops_bytewise(self, d, cross, data):
        cs, grid = data.draw(operator_cases(d, cross))
        assert_same_csr(solver.assemble_generator(cs, grid, 0.0),
                        reference_generator(cs, grid, 0.0))

    @LAYOUTS
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_noise_op_matches_cell_loops_bytewise(self, d, cross, data):
        cs, grid = data.draw(operator_cases(d, cross))
        for l in range(cs.L):
            assert_same_csr(solver.assemble_noise_op(cs, grid, 0.0, l),
                            reference_noise_op(cs, grid, 0.0, l))

    @pytest.fixture
    def builds(self, monkeypatch):
        """The csr matrices solver builds from triplets, in a fresh cache."""
        monkeypatch.setattr(solver, "_last", {})
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return csr_matrix(*args, **kwargs)
        monkeypatch.setattr(solver, "csr_matrix", counted)
        return built

    def test_last_build_is_reused_only_for_the_same_bits(self, builds):
        # the kept entries change with the half-space a, c, sigma and h are
        # cut to zero on; None leaves them whole
        cuts = [None, -1.0, None, 0.0, 1.0, -1.5, 0.5, -0.5, None, -1.0]
        grid = Grid.box2d((-2, -1.5), (2, 1.5), (16, 19))
        whole = CoefficientSet.from_fields(d=2, L=1, a=(1.0, 0.3, 0.8), b=(0.2, -0.1),
                                           c=0.5, sigma=[(0.4, 0.2)], h=[0.3])
        for cut in cuts:
            cs = copy.copy(whole)
            if cut is not None:
                cs.a, cs.c, cs.sigma, cs.h = (cut_to_zero(fn, cut)
                                              for fn in (whole.a, whole.c, whole.sigma,
                                                         whole.h))
            assert_same_csr(solver.assemble_generator(cs, grid, 0.0),
                            reference_generator(cs, grid, 0.0))
            assert_same_csr(solver.assemble_noise_op(cs, grid, 0.0, 0),
                            reference_noise_op(cs, grid, 0.0, 0))
        assert len(builds) == 2 * len(cuts)      # no two calls in a row alike

        # the same inputs again: nothing is built, the matrix comes back
        # itself, and no write into it is allowed
        gen = solver.assemble_generator(cs, grid, 0.0)
        for name in ("data", "indices", "indptr"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(gen, name)[:] = 0
        again = solver.assemble_generator(cs, grid, 0.0)
        assert again is gen
        assert_same_csr(again, reference_generator(cs, grid, 0.0))
        assert len(builds) == 2 * len(cuts)

        # c = -0.0 at one cell it is cut to zero on: no entry is kept there,
        # so the matrix is the same, but one value differs in its sign bit
        # and the matrix is built again
        cut_c = cs.c

        def signed_zero_c(t, x):
            out = cut_c(t, x).copy()
            assert out[5] == 0.0
            out[5] = -0.0
            return out
        cs.c = signed_zero_c
        assert_same_csr(solver.assemble_generator(cs, grid, 0.0),
                        reference_generator(cs, grid, 0.0))
        assert len(builds) == 2 * len(cuts) + 1

    def test_drivers_keep_their_own_last_build(self, builds):
        grid = Grid.line(-2, 2, 24)
        cs = CoefficientSet.from_fields(d=1, L=2, a=0.5, sigma=[0.4, -0.3], h=[0.2, 0.0])
        for l in [0, 1, 0, 1, 1, 0]:
            assert_same_csr(solver.assemble_noise_op(cs, grid, 0.0, l),
                            reference_noise_op(cs, grid, 0.0, l))
        assert len(builds) == 2

    @LAYOUTS
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_column_sums_vanish(self, d, cross, data):
        # zero flux and c = 0: every column telescopes, so mass is conserved
        cs, grid = data.draw(operator_cases(d, cross, with_c=False))
        L = solver.assemble_generator(cs, grid, 0.0)
        assert np.max(np.abs(np.asarray(L.sum(axis=0)))) <= 1e-12


def x0_samples(x):
    """Float64 a, b, c, sigma (two drivers) and h at the points x, functions
    of x_1 alone, each zero somewhere (a12, c, sigma^{21}, h^1)."""
    x0, m = x[:, 0], len(x)
    a = np.zeros((m, 2, 2))
    a[:, 0, 0], a[:, 1, 1] = 0.6 + 0.3 * np.sin(x0), 0.5
    a[:, 0, 1] = a[:, 1, 0] = np.where(x0 < 0, 0.0, 0.1 * np.cos(x0))
    b = np.stack([0.3 * np.cos(x0), np.full(m, -0.2)], axis=1)
    c = np.where(x0 < 0, 0.0, 0.4 * x0)
    sigma = np.zeros((m, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 0], sigma[:, 0, 1] = 0.5 * np.sin(x0), 0.3, 0.2
    h = np.stack([np.where(x0 < 0, 0.0, 0.3), 0.2 * np.sin(x0)], axis=1)
    return dict(a=a, b=b, c=c, sigma=sigma, h=h)


# (field, entry at point 7) moved by one ulp (by one for integers), and the
# fields whose zeros turn to -0.0
ULP_MOVES = {"a": (7, 0, 0), "b": (7, 1), "c": (7,), "sigma": (7, 0, 0), "h": (7, 1)}
SIGNED_ZEROS = ("a", "c", "h")


class TestLastBuildReuse:
    """Along any sequence of operator calls, an operator is the last build of
    its kind exactly when its grid and samples repeat bit for bit, and it has
    the bytes of the reference loops on the samples' float64 values.  The
    two grids share their first axis, so on them the samples are equal and
    only the grid tells the builds apart."""

    GRIDS = (Grid.box2d((-2, -1.5), (2, 1.5), (16, 17)),
             Grid.box2d((-2, -1.5), (2, 2.0), (16, 17)))
    CHANGES = [None] + [("ulp", k) for k in ULP_MOVES] + [("zero", k) for k in SIGNED_ZEROS]

    @staticmethod
    def coefficients(state):
        """A set whose samples follow ``state``: its change, its dtype and,
        with ``in_place``, one array per field, rewritten at every call."""
        buffers = {}

        def field(name):
            def fn(t, x):
                v, dtype = x0_samples(x)[name], state["dtype"]
                v = (np.rint(4 * v) if dtype is int else v).astype(dtype)
                kind, target = state["change"] or (None, None)
                if target == name and kind == "ulp":
                    i = ULP_MOVES[name]
                    v[i] = v[i] + 1 if dtype is int else np.nextafter(v[i], np.inf)
                if target == name and kind == "zero":
                    v[v == 0] = -0.0
                if not state["in_place"]:
                    return v
                out = buffers.setdefault(name, np.empty_like(v))
                out[...] = v
                return out
            return fn
        return CoefficientSet(2, 2, *map(field, ("a", "b", "c", "sigma", "h")), None, None)

    @settings(max_examples=25, deadline=None)
    @given(dtype=st.sampled_from([float, np.float32, int]), in_place=st.booleans(),
           calls=st.lists(st.tuples(st.sampled_from(["generator", 0, 1]),
                                    st.sampled_from([0, 1]), st.sampled_from(CHANGES)),
                          min_size=1, max_size=10))
    def test_operator_is_the_last_build_exactly_when_its_inputs_repeat(self, dtype,
                                                                      in_place, calls):
        state = {"dtype": dtype, "in_place": in_place}
        cs = self.coefficients(state)
        as64 = copy.copy(cs)
        for name in ("a", "b", "c", "sigma", "h"):
            setattr(as64, name, lambda t, x, fn=getattr(cs, name): np.array(fn(t, x), float))
        last = {}
        with unittest.mock.patch.object(solver, "_last", {}):
            for op, g, change in calls:
                state["change"], grid = change, self.GRIDS[g]
                pts = grid.points()
                if op == "generator":
                    new = solver.assemble_generator(cs, grid, 0.0)
                    ref = reference_generator(as64, grid, 0.0)
                    samples = [as64.a(0.0, pts), as64.b(0.0, pts), as64.c(0.0, pts)]
                else:
                    new = solver.assemble_noise_op(cs, grid, 0.0, op)
                    ref = reference_noise_op(as64, grid, 0.0, op)
                    samples = [as64.sigma(0.0, pts)[:, :, op], as64.h(0.0, pts)[:, op]]
                key = grid, [v.tobytes() for v in samples]
                assert_same_csr(new, ref)
                last_key, last_op = last.get(op, (None, None))
                assert (new is last_op) == (key == last_key)
                last[op] = key, new


def smooth_field(draw, d):
    """A family field smooth on the scale of the duality grids below."""
    kind = draw(st.sampled_from(["constant", "affine", "sinusoidal", "gaussian"]))
    unit = st.floats(-1, 1)
    vec = st.lists(unit, min_size=d, max_size=d)
    if kind == "constant":
        return ScalarField("constant", d, value=draw(unit))
    if kind == "affine":
        return ScalarField("affine", d, c0=draw(unit), slope=np.array(draw(vec)) / 2)
    if kind == "sinusoidal":
        return ScalarField("sinusoidal", d, amp=draw(unit), freq=np.array(draw(vec)),
                           phase=draw(st.floats(0, 3)), offset=draw(unit))
    return ScalarField("gaussian", d, amp=draw(unit), center=draw(vec),
                       width=draw(st.floats(0.8, 2)))


class TestDuality:
    """<L_h u, phi> against <u, L* phi>, L* phi = (da . grad phi + a : hess phi)
    - b . grad phi + c phi, built from the set's own a, da, b and c: the
    finite-volume generator and the derivative hooks must agree to second
    order in h."""

    @staticmethod
    def gap(cs, phi, grid):
        X = grid.points()
        u = np.exp(-np.sum((X - 0.3) ** 2, axis=1) / 8) * (1 + 0.5 * np.sin(X[:, 0]))
        gphi = phi.grad(X)
        adjoint = (np.einsum("mi,mi->m", cs.da(0.0, X), gphi)
                   + np.einsum("mij,mij->m", cs.a(0.0, X), phi.hess(X))
                   - np.einsum("mi,mi->m", cs.b(0.0, X), gphi) + cs.c(0.0, X) * phi.value(X))
        Lu = solver.assemble_generator(cs, grid, 0.0) @ u
        vol = grid.cell_volume
        scale = (np.abs(Lu) @ np.abs(phi.value(X)) + np.abs(u) @ np.abs(adjoint)) * vol
        return abs(Lu @ phi.value(X) - u @ adjoint) * vol, scale

    # The error terms of a, b and c can nearly cancel for special fields,
    # which no grid pair resolves; fixed examples keep the run reproducible.
    @LAYOUTS
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_generator_is_dual_to_the_adjoint_to_second_order(self, d, cross, data):
        F = lambda: smooth_field(data.draw, d)  # noqa: E731
        if d == 1:
            cs = CoefficientSet.from_fields(d=1, L=1, a=F(), b=F(), c=F())
        else:
            cs = CoefficientSet.from_fields(d=2, L=1, a=(F(), F() if cross else 0.0, F()),
                                            b=(F(), F()), c=F())
        # support radius 5 + 0.8 < 6: the walls at +-6 stay outside it
        center = data.draw(st.lists(st.floats(-0.8, 0.8), min_size=d, max_size=d))
        phi = TestFunction.bump(center, 5.0)
        # the bump's steep edge needs about 50 cells across its radius before
        # the h^2 term leads
        n = 128 if d == 2 else 160
        coarse, scale = self.gap(cs, phi, Grid(d, (-6.0,) * d, (6.0,) * d, (n,) * d))
        fine, _ = self.gap(cs, phi, Grid(d, (-6.0,) * d, (6.0,) * d, (2 * n,) * d))
        if coarse > 1e-11 * scale:
            assert fine <= coarse / 3


def advance(u, cfg, dB, cs):
    """One step from t = 0 through the shared stepping core."""
    stepper = solver.Stepper(cs, u.grid, cfg.dt, True)
    return DensityField(grid=u.grid, values=stepper.advance(u.values, 0, dB))


class TestStep:
    def test_zero_coefficients_identity(self):
        grid = Grid.line(-1, 1, 32)
        cs = CoefficientSet.from_fields(d=1, L=1)
        u = DensityField(grid=grid, values=gaussian_density(grid))
        out = advance(u, SolverConfig(dt=1e-3), np.array([0.3]), cs)
        assert np.array_equal(out.values, u.values)

    def test_heat_step_matches_variance_growth(self):
        grid = Grid.line(-8, 8, 512)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        dt = 1e-3
        v0 = 0.25
        u = DensityField(grid=grid, values=gaussian_density(grid, var=v0))
        out = advance(u, SolverConfig(dt=dt), np.array([0.0]), cs)
        exact = np.exp(-grid.x**2 / (2 * (v0 + dt))) / np.sqrt(2 * np.pi * (v0 + dt))
        err = grid.l2(out.values - exact)
        assert err < (dt**2 + grid.hs[0] ** 2) * 5

    def test_degenerate_transport_step_tracks_shift(self):
        # fixed increment: error vs the shifted profile is O(dt + h^2),
        # calibrated by refining both and checking the error drops ~4x
        errs = []
        for n, dt in [(512, 4e-4), (1024, 1e-4)]:
            grid = Grid.line(-8, 8, n)
            cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
            u = DensityField(grid=grid, values=gaussian_density(grid))
            dB = 0.8 * np.sqrt(dt)
            out = advance(u, SolverConfig(dt=dt), np.array([dB]), cs)
            exact = gaussian_density(grid, center=-dB)
            errs.append(grid.l2(out.values - exact) / grid.l2(exact))
        assert errs[1] < 0.35 * errs[0]

    def test_stability_guard_suggests_dt(self):
        grid = Grid.line(-1, 1, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        u = DensityField(grid=grid, values=gaussian_density(grid, var=0.01))
        with pytest.raises(StabilityError) as exc:
            advance(u, SolverConfig(dt=0.5), np.array([0.0]), cs)
        assert exc.value.suggested_dt is not None
        assert exc.value.suggested_dt < 0.5

    def test_degeneracy_margin_guard(self):
        grid = Grid.line(-1, 1, 64)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.4, sigma=1.0)  # 2a < sigma^2
        u = DensityField(grid=grid, values=gaussian_density(grid, var=0.01))
        with pytest.raises(StabilityError):
            advance(u, SolverConfig(dt=1e-5), np.array([0.0]), cs)


class TestSolve:
    def test_mass_conserved_exactly(self):
        # constant sigma: the noise term moves no mass; flux telescoping
        # makes the generator's contribution vanish identically
        grid = Grid.line(-6, 6, 192)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=ScalarField("sinusoidal", 1, amp=0.2, offset=0.6),
            b=ScalarField("sinusoidal", 1, amp=0.3, freq=1.3), sigma=0.5)
        path = noise.generate(3, 1, 200, 1e-3)
        u0 = gaussian_density(grid)
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=1e-3), path, [0.1, 0.2])
        m0 = traj.mass_series[0]
        assert np.max(np.abs(traj.mass_series - m0)) <= 1e-12 * abs(m0)

    def test_linearity_in_initial_data_and_sources(self):
        grid = Grid.line(-4, 4, 96)
        fsrc = ScalarField("gaussian", 1, amp=0.2, width=0.5)
        gsrc = ScalarField("gaussian", 1, amp=0.1, center=0.3, width=0.4)
        cs1 = CoefficientSet.from_fields(d=1, L=1, a=0.3, sigma=0.6, f=fsrc, g=gsrc)
        cs0 = CoefficientSet.from_fields(d=1, L=1, a=0.3, sigma=0.6)
        path = noise.generate(9, 1, 100, 1e-3)
        cfg = SolverConfig(dt=1e-3)
        v = gaussian_density(grid)
        w = gaussian_density(grid, var=0.5, center=0.5)
        al = 1.3
        t_out = [0.1]
        full = solver.solve(cs1, al * v + w, grid, cfg, path, t_out)
        pv = solver.solve(cs1, v, grid, cfg, path, t_out)
        pw = solver.solve(cs0, w, grid, cfg, path, t_out)
        # subtract one homogeneous run to isolate linearity in u0 alone
        pz = solver.solve(cs1, np.zeros(grid.npts), grid, cfg, path, t_out)
        lhs = full.fields[0].values
        rhs = (al * (pv.fields[0].values - pz.fields[0].values)
               + pw.fields[0].values + pz.fields[0].values)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_degenerate_ensemble_energy_bounded(self):
        grid = Grid.line(-8, 8, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        cfg = SolverConfig(dt=1e-3)
        growth = []
        for seed in range(16):
            path = noise.generate(100 + seed, 1, 250, 1e-3)
            traj = solver.solve(cs, gaussian_density(grid), grid, cfg, path, [0.25])
            growth.append(traj.energy_series[-1] / traj.energy_series[0])
        assert np.mean(growth) < 3.0

    def test_gradient_series_bounded_smooth_case(self):
        grid = Grid.line(-6, 6, 256)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=ScalarField("sinusoidal", 1, amp=0.1, offset=0.8),
            b=ScalarField("sinusoidal", 1, amp=0.3), c=-0.1, sigma=0.8)
        path = noise.generate(12, 1, 250, 1e-3)
        cfg = SolverConfig(dt=1e-3, store_every=1)
        traj = solver.solve(cs, gaussian_density(grid), grid, cfg, path, [0.25])
        h = grid.hs[0]
        grads = np.sum(np.diff(traj.full_history, axis=1) ** 2, axis=1) * h
        assert np.max(grads) / grads[0] < 10.0

    def test_path_dt_mismatch_rejected(self):
        grid = Grid.line(-1, 1, 32)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = noise.generate(1, 1, 10, 1e-2)
        with pytest.raises(ConfigurationError):
            solver.solve(cs, np.ones(32), grid, SolverConfig(dt=1e-3), path, [0.01])


class TestSolve2d:
    def test_heat_2d_tracks_product_gaussian(self):
        grid = Grid.box2d((-6, -6), (6, 6), (96, 96))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.5, 0.0, 0.5))
        dt, T = 1e-3, 0.1
        path = zero_path(1, int(T / dt), dt)
        pts = grid.points()
        v0 = 0.25
        u0 = np.exp(-np.sum(pts**2, axis=1) / (2 * v0)) / (2 * np.pi * v0)
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=dt), path, [T])
        vT = v0 + T
        exact = np.exp(-np.sum(pts**2, axis=1) / (2 * vT)) / (2 * np.pi * vT)
        err = grid.l2(traj.fields[0].values - exact) / grid.l2(exact)
        assert err < 2e-2
        m0 = traj.mass_series[0]
        assert np.max(np.abs(traj.mass_series - m0)) <= 1e-12 * m0

    def test_mass_conserved_with_cross_terms_and_drift(self):
        grid = Grid.box2d((-5, -5), (5, 5), (48, 48))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5),
                                        b=(0.3, -0.2))
        dt = 1e-3
        path = zero_path(1, 100, dt)
        pts = grid.points()
        u0 = np.exp(-np.sum(pts**2, axis=1))
        traj = solver.solve(cs, u0, grid, SolverConfig(dt=dt), path, [0.1])
        m0 = traj.mass_series[0]
        assert np.max(np.abs(traj.mass_series - m0)) <= 1e-12 * m0


class TestImplicitSystem:
    DT = 2e-3

    @staticmethod
    def drift_operator():
        grid = Grid.line(-3, 3, 128)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=ScalarField("sinusoidal", 1, amp=0.2, offset=0.5),
            b=ScalarField("sinusoidal", 1, amp=1.5, freq=1.7), c=-0.3)
        return grid, solver.assemble_generator(cs, grid, 0.0)

    @pytest.mark.parametrize("fields, dt", [
        (None, DT),
        # diffusion that vanishes away from the origin under a strong drift
        (dict(a=ScalarField("gaussian", 1, amp=0.5, width=0.3),
              b=ScalarField("sinusoidal", 1, amp=4.0, freq=0.9)), DT),
        # no diffusion at all: the central drift stencil alone
        (dict(b=ScalarField("sinusoidal", 1, amp=1.5, freq=1.7)), DT),
        # a step long enough that the off-diagonals outweigh the identity
        (None, 0.5),
    ], ids=["drift", "degenerate", "pure-drift", "long-step"])
    def test_1d_matches_banded_and_sparse_lu(self, fields, dt):
        if fields is None:
            grid, Lop = self.drift_operator()
        else:
            grid = Grid.line(-3, 3, 128)
            Lop = solver.assemble_generator(CoefficientSet.from_fields(d=1, L=1, **fields),
                                            grid, 0.0)
        M = (identity(grid.npts, format="csr") - dt * Lop).tocsc()
        ab = np.zeros((3, grid.npts))
        ab[0, 1:] = M.diagonal(1)
        ab[1] = M.diagonal(0)
        ab[2, :-1] = M.diagonal(-1)
        rhs = gaussian_density(grid) + np.sin(3 * grid.x)
        out = solver._ImplicitSystem(Lop, dt, grid, []).solve(rhs)
        assert out.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()
        ref = splu(M).solve(rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_1d_rhs_left_untouched_and_system_reusable(self):
        grid, Lop = self.drift_operator()
        sys_ = solver._ImplicitSystem(Lop, self.DT, grid, [])
        rhs = gaussian_density(grid)
        keep = rhs.copy()
        first = sys_.solve(rhs)
        assert np.array_equal(rhs, keep)
        assert np.array_equal(sys_.solve(rhs), first)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises_solver_error_1d(self, bad):
        grid, Lop = self.drift_operator()
        rhs = gaussian_density(grid)
        rhs[40] = bad
        with pytest.raises(SolverError):
            solver._ImplicitSystem(Lop, self.DT, grid, []).solve(rhs)

    def test_non_finite_rhs_raises_solver_error_2d(self):
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.5, 0.1, 0.4), b=(0.3, 0.0))
        Lop = solver.assemble_generator(cs, grid, 0.0)
        rhs = np.ones(grid.npts)
        rhs[7] = np.nan
        with pytest.raises(SolverError):
            solver._ImplicitSystem(Lop, self.DT, grid, []).solve(rhs)

    @pytest.mark.parametrize("n, fields", [
        # the nonlinear-2d workload's coefficients, cross term on
        (64, dict(a=(0.6, 0.2, 0.5), b=(0.3, -0.2), sigma=[(0.5, 0.3)])),
        # degenerate a = sigma sigma^T / 2 under a strong drift
        (96, dict(a=(0.5, 0.25, 0.125), b=(6.0, -4.0), sigma=[(1.0, 0.5)])),
        (64, dict(b=(1.5, -1.0))),
    ], ids=["nonlinear-2d", "degenerate", "pure-drift"])
    def test_2d_residual_at_round_off(self, n, fields):
        grid = Grid.box2d((-4, -4), (4, 4), (n, n))
        cs = CoefficientSet.from_fields(d=2, L=1, **fields)
        Lop = solver.assemble_generator(cs, grid, 0.0)
        M = identity(grid.npts, format="csr") - self.DT * Lop
        rhs = np.random.default_rng(5).standard_normal(grid.npts)
        out = solver._ImplicitSystem(Lop, self.DT, grid, []).solve(rhs)
        assert np.linalg.norm(M @ out - rhs) <= 1e-13 * np.linalg.norm(rhs)

    @settings(max_examples=40, deadline=None)
    @given(short=st.sampled_from([16, 33, solver.BANDED_MAX_K - 1, solver.BANDED_MAX_K,
                                  solver.BANDED_MAX_K + 1]),
           extra=st.sampled_from([0, 9]), short_first=st.booleans(),
           a12=st.sampled_from([0.0, 0.2, -0.15]),
           b=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
           c=st.floats(-1, 1), dt=st.sampled_from([DT, 0.05, 0.5]))
    def test_2d_matches_sparse_lu_on_both_sides_of_the_cutoff(self, short, extra,
                                                               short_first, a12, b, c,
                                                               dt):
        # cells are numbered along the shorter axis first, whichever it is:
        # k is its length, plus one with the cross term, and the sampled
        # lengths put it on both sides of BANDED_MAX_K
        from scipy.sparse.linalg import SuperLU
        n = (short, short + extra) if short_first else (short + extra, short)
        grid = Grid.box2d((-4, -4), (4, 4), n)
        a11 = ScalarField("sinusoidal", 2, amp=0.2, offset=0.5, freq=(0.7, 1.3))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(a11, a12, 0.4), b=b, c=c)
        Lop = solver.assemble_generator(cs, grid, 0.0)
        M = (identity(grid.npts, format="csr") - dt * Lop).tocsc()
        rhs = np.random.default_rng(n[0] * n[1]).standard_normal(grid.npts)
        system = solver._ImplicitSystem(Lop, dt, grid, [])
        k = short + (a12 != 0.0)
        assert isinstance(getattr(system._solve, "__self__", None), SuperLU) == (
            k > solver.BANDED_MAX_K)
        out = system.solve(rhs)
        ref = splu(M).solve(rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_box_longer_along_its_last_axis_is_banded_along_its_first(self, monkeypatch):
        # numbered along the last axis, a 64 x 96 box with the cross term
        # would have k = 97 and go to SuperLU; along its first axis k = 65
        bands = []

        def recorded(ab, kl, ku, **kw):
            bands.append((kl, ku))
            return dgbtrf(ab, kl, ku, **kw)
        dgbtrf = solver.dgbtrf
        monkeypatch.setattr(solver, "dgbtrf", recorded)
        grid = Grid.box2d((-4, -4), (4, 4), (64, 96))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5), b=(0.3, -0.2),
                                        sigma=[(0.5, 0.3)])
        Lop = solver.assemble_generator(cs, grid, 0.0)
        rhs = np.random.default_rng(7).standard_normal(grid.npts)
        out = solver._ImplicitSystem(Lop, self.DT, grid, []).solve(rhs)
        assert bands == [(65, 65)]
        ref = splu((identity(grid.npts, format="csr") - self.DT * Lop).tocsc()).solve(rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("b, dt, routines", [
        # no row interchange: the two band triangles
        ((0.3, -0.2), DT, {"dtbsv": 2}),
        # a drift that outweighs the diagonal forces row interchanges
        ((6.0, -4.0), 0.5, {"dgbtrs": 1}),
    ], ids=["triangles", "interchanges"])
    def test_2d_banded_solve_routines(self, monkeypatch, b, dt, routines):
        calls = collections.Counter()
        for name in ("dtbsv", "dgbtrs"):
            def counted(*args, _name=name, _fn=getattr(solver, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(solver, name, counted)
        grid = Grid.box2d((-4, -4), (4, 4), (16, 16))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.01, 0.005, 0.01), b=b)
        Lop = solver.assemble_generator(cs, grid, 0.0)
        rhs = np.random.default_rng(2).standard_normal(grid.npts)
        out = solver._ImplicitSystem(Lop, dt, grid, []).solve(rhs)
        assert calls == routines
        ref = splu((identity(grid.npts, format="csr") - dt * Lop).tocsc()).solve(rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_non_finite_rhs_raises_solver_error_after_interchanges(self):
        grid = Grid.box2d((-4, -4), (4, 4), (16, 16))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.01, 0.005, 0.01), b=(6.0, -4.0))
        system = solver._ImplicitSystem(solver.assemble_generator(cs, grid, 0.0), 0.5, grid,
                                        [])
        rhs = np.ones(grid.npts)
        rhs[100] = np.inf
        with pytest.raises(SolverError, match="non-finite"):
            system.solve(rhs)

    def test_singular_2d_band_rejected(self):
        # an all-zero column j of I - dt L leaves U[j, j] exactly zero
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.5, 0.1, 0.4), b=(0.3, 0.0))
        M = (identity(grid.npts, format="csr")
             - self.DT * solver.assemble_generator(cs, grid, 0.0)).tolil()
        M[:, 40] = 0.0
        Lop = identity(grid.npts, format="csr") - csr_matrix(M)
        with pytest.raises(SolverError, match=r"banded factorization failed \(info=41\)"):
            solver._ImplicitSystem(Lop, 1.0, grid, [])

    def test_sparse_lu_is_imported_only_for_wide_bands(self):
        src = str(Path(solver.__file__).resolve().parents[1])
        code = """
import sys
import numpy as np
from spdelab import noise, solver
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig

def run(grid, cs):
    path = noise.generate(1, 1, 3, 1e-3)
    solver.solve(cs, np.ones(grid.npts), grid, SolverConfig(dt=1e-3), path, [3e-3])
    return "scipy.sparse.linalg" in sys.modules

print(run(Grid.line(-4, 4, 256), CoefficientSet.from_fields(d=1, L=1, a=0.5, b=0.3)))
cs = CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5), b=(0.3, -0.2),
                                sigma=[(0.5, 0.3)])
print(run(Grid.box2d((-4, -4), (4, 4), (64, 64)), cs))
print(run(Grid.box2d((-4, -4), (4, 4), (96, solver.BANDED_MAX_K)), cs))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["False", "False", "True"]

    def test_non_tridiagonal_1d_operator_rejected(self):
        grid, Lop = self.drift_operator()
        wide = Lop.tolil()
        wide[0, 2] = 1.0
        with pytest.raises(SolverError, match="tridiagonal"):
            solver._ImplicitSystem(csr_matrix(wide), self.DT, grid, [])

    def test_singular_1d_system_rejected(self):
        # dt L = I makes I - dt L the zero matrix
        grid = Grid.line(-1, 1, 16)
        Lop = identity(grid.npts, format="csr") / self.DT
        with pytest.raises(SolverError, match="factorization"):
            solver._ImplicitSystem(Lop, self.DT, grid, [])


@st.composite
def family_coefficients(draw):
    """Random 1-d coefficient fields from the serializable families that keep
    a >= sigma^2 / 2 > 0 and the noise budget at dt = 1e-3 on a 96-point box."""
    a = ScalarField("sinusoidal", 1, amp=draw(st.floats(0.0, 0.4)), offset=0.6,
                    freq=draw(st.floats(0.2, 2.0)), phase=draw(st.floats(0, 3)))
    b = draw(st.sampled_from([
        ScalarField("affine", 1, c0=draw(st.floats(-1, 1)),
                    slope=draw(st.floats(-0.3, 0.3))),
        ScalarField("gaussian", 1, amp=draw(st.floats(-1, 1)),
                    center=draw(st.floats(-1, 1)), width=draw(st.floats(0.3, 2))),
    ]))
    sigma = draw(st.floats(0.0, 0.4))
    c = draw(st.sampled_from([0.0, -0.2]))
    return CoefficientSet.from_fields(d=1, L=1, a=a, b=b, c=c, sigma=sigma)


class TestSeriesSums:
    @settings(max_examples=25, deadline=None)
    @given(cs=family_coefficients(), seed=st.integers(0, 2**16),
           width=st.floats(0.05, 0.5))
    def test_series_match_compensated_sums(self, cs, seed, width):
        # floating sums stay within a few eps of the correctly rounded sums
        grid = Grid.line(-6, 6, 96)
        dt = 1e-3
        path = noise.generate(seed, 1, 60, dt)
        traj = solver.solve(cs, gaussian_density(grid, var=width), grid,
                            SolverConfig(dt=dt, store_every=1), path, [0.06])
        vol = grid.cell_volume
        for u, mass, l2 in zip(traj.full_history, traj.mass_series, traj.l2_series):
            scale = math.fsum(np.abs(u)) * vol
            assert abs(mass - math.fsum(u) * vol) <= 1e-14 * scale
            ref = math.sqrt(math.fsum(u * u) * vol)
            assert abs(l2 - ref) <= 1e-14 * ref


def flagged(cs, time_dependent):
    """The same coefficient fields under the other build policy."""
    out = copy.copy(cs)
    out.time_dependent = time_dependent
    return out


def flag_zakai(monkeypatch, time_dependent, wrap=lambda cs: cs):
    """Give the filters their Zakai set under the given build policy, passed
    through ``wrap``."""
    declared = flt.zakai_coefficients
    monkeypatch.setattr(flt, "zakai_coefficients",
                        lambda sc: wrap(flagged(declared(sc), time_dependent)))


def time_scaled(cs):
    """``cs`` with a(t) = (1 + 10 t) a(0): the generator moves every step."""
    return CoefficientSet(cs.d, cs.L, lambda t, x: cs.a(t, x) * (1 + 10 * t), cs.b, cs.c,
                          cs.sigma, cs.h, cs.f, cs.g, time_dependent=True)


class TestFactorizationReuse:
    """A stepper factors I - dt L again only when its bytes change, and the
    factorization it keeps gives the bytes of a fresh one."""

    DT, N = 1e-3, 6
    FIELDS_2D = dict(d=2, L=1, a=(0.6, 0.2, 0.5), b=(0.3, -0.2), sigma=[(0.5, 0.3)])
    CASES = {
        "tridiagonal": (Grid.line(-4, 4, 64), "dgttrf",
                        dict(d=1, L=1, a=0.5, b=0.3, sigma=0.4)),
        "banded": (Grid.box2d((-4, -4), (4, 4), (16, 24)), "dgbtrf", FIELDS_2D),
        "sparse-lu": (Grid.box2d((-4, -4), (4, 4), (solver.BANDED_MAX_K,) * 2), "splu",
                      FIELDS_2D),
    }

    @pytest.fixture
    def factored(self, monkeypatch):
        """Counts of the LAPACK and SuperLU factorizations."""
        import scipy.sparse.linalg
        counts = collections.Counter()
        for module, name in ((solver, "dgttrf"), (solver, "dgbtrf"),
                             (scipy.sparse.linalg, "splu")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kw):
                counts[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(module, name, counted)
        return counts

    def case(self, kind):
        grid, routine, fields = self.CASES[kind]
        u0 = np.exp(-np.sum(grid.points() ** 2, axis=1) / 0.5)
        return grid, routine, CoefficientSet.from_fields(**fields), u0

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_frozen_source_solve_factors_once(self, factored, monkeypatch, kind):
        grid, routine, cs, u0 = self.case(kind)
        path = noise.generate(3, 1, self.N, self.DT)
        src = picard.NonlinearSources.sin_of_u(0.1)
        traj, _ = picard.picard_solve(cs, src, u0, grid, SolverConfig(dt=self.DT), path)
        frozen = picard.frozen_source_coefficients(cs, src, traj)
        cfg = SolverConfig(dt=self.DT, store_every=1)

        factored.clear()
        once = solver.solve(frozen, u0, grid, cfg, path, [self.N * self.DT])
        assert factored == {routine: 1}

        # the same solve, handed an empty record at every build
        init = solver._ImplicitSystem.__init__
        monkeypatch.setattr(solver._ImplicitSystem, "__init__",
                            lambda system, Lop, dt, grid, last: init(system, Lop, dt,
                                                                     grid, []))
        factored.clear()
        every = solver.solve(frozen, u0, grid, cfg, path, [self.N * self.DT])
        assert factored == {routine: self.N}
        assert once.full_history.tobytes() == every.full_history.tobytes()

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_moving_generator_refactors_every_step(self, factored, kind):
        grid, routine, cs, u0 = self.case(kind)
        path = noise.generate(3, 1, self.N, self.DT)
        solver.solve(time_scaled(cs), u0, grid, SolverConfig(dt=self.DT), path,
                     [self.N * self.DT])
        assert factored == {routine: self.N}

    def test_one_ulp_in_one_coefficient_refactors(self, factored):
        # the same samples give the same matrix and the same solve; a11 moved
        # by one ulp at one point gives a new matrix and a new factorization
        grid, _, cs, _ = self.case("banded")
        a, dt, last = cs.a, 2.0 ** -10, []
        first = solver._ImplicitSystem(solver.assemble_generator(cs, grid, 0.0), dt,
                                       grid, last)
        Lop = last[0]
        again = solver._ImplicitSystem(solver.assemble_generator(cs, grid, 0.0), dt,
                                       grid, last)
        assert last[0] is Lop and again._solve is first._solve
        assert factored == {"dgbtrf": 1}

        def moved(t, x):
            out = a(t, x).copy()
            out[40, 0, 0] = np.nextafter(out[40, 0, 0], np.inf)
            return out
        cs.a = moved
        third = solver._ImplicitSystem(solver.assemble_generator(cs, grid, 0.0), dt,
                                       grid, last)
        assert last[0] is not Lop
        assert_same_csr(last[0], reference_generator(cs, grid, 0.0))
        assert factored == {"dgbtrf": 2} and third._solve is not first._solve
        assert last[2] is third._solve

    def test_failed_factorization_is_never_reused(self, factored):
        # an all-zero column of I - dt L, as in test_singular_2d_band_rejected
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.5, 0.1, 0.4), b=(0.3, 0.0))
        Lop = solver.assemble_generator(cs, grid, 0.0)
        M = (identity(grid.npts, format="csr") - Lop).tolil()
        M[:, 40] = 0.0
        singular = identity(grid.npts, format="csr") - csr_matrix(M)
        last = []
        solver._ImplicitSystem(Lop, 1.0, grid, last)
        for _ in range(2):
            with pytest.raises(SolverError, match="banded factorization failed"):
                solver._ImplicitSystem(singular, 1.0, grid, last)
            assert last == []
        assert factored == {"dgbtrf": 3}


class TestStepperBuilds:
    """Static coefficients build the generator, its factorization and the
    noise operators once per run; time-dependent ones build them every step.
    Kushner never builds a noise operator, Picard and the energy check never
    run the stability guard, and neither Picard nor Kushner calls ``solve``."""

    N = 12

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("assemble_generator", "assemble_noise_op", "check_stability"):
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        monkeypatch.setattr(solver._ImplicitSystem, "__init__",
                            counting("factor", solver._ImplicitSystem.__init__))
        solve = solver.solve
        for module in (solver, flt, picard, diagnostics):
            if getattr(module, "solve", None) is solve:
                monkeypatch.setattr(module, "solve", counting("solve", solve))
        return counts

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_build_counts(self, builds, monkeypatch, time_dependent):
        N, dt = self.N, 1e-3
        per_run = N if time_dependent else 1
        guard = N + 1 if time_dependent else 1
        grid = Grid.line(-4, 4, 64)
        cs = flagged(CoefficientSet.from_fields(d=1, L=2, a=0.5, b=0.3,
                                                sigma=[0.4, 0.3]), time_dependent)
        path = noise.generate(5, 2, N, dt)
        u0 = gaussian_density(grid)

        traj = solver.solve(cs, u0, grid, SolverConfig(dt=dt, store_every=1), path,
                            [N * dt])
        assert builds == {"solve": 1, "assemble_generator": per_run, "factor": per_run,
                          "assemble_noise_op": 2 * per_run, "check_stability": guard}

        builds.clear()
        diagnostics.energy_report(traj, cs, path)
        assert builds == {"assemble_generator": per_run, "factor": per_run,
                          "assemble_noise_op": 2 * per_run}

        builds.clear()
        _, log = picard.picard_solve(cs, picard.NonlinearSources.sin_of_u(0.1),
                                     u0, grid, SolverConfig(dt=dt), path)
        sweeps = len(log)
        assert builds == {"assemble_generator": sweeps * per_run,
                          "factor": sweeps * per_run,
                          "assemble_noise_op": 2 * sweeps * per_run}

        builds.clear()
        flag_zakai(monkeypatch, time_dependent)
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, N, dt)
        flt.run_kushner(sc, truth, Grid.line(-8, 8, 64), SolverConfig(dt=dt))  # holds the prior
        assert builds == {"assemble_generator": per_run, "factor": per_run,
                          "check_stability": guard}


class TestCoefficientEvaluations:
    """Static coefficients evaluate f, g and h once per run on every path
    that reads them; time-dependent ones once per step."""

    N = 12

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_evaluation_counts(self, monkeypatch, time_dependent):
        N, dt = self.N, 1e-3
        per_run = N if time_dependent else 1
        counts = collections.Counter()

        def counted(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        grid = Grid.line(-4, 4, 64)

        def bump(amp):   # a source the box holds; a constant one reaches its edges
            return ScalarField("gaussian", 1, amp=amp, width=0.5)
        cs = flagged(CoefficientSet.from_fields(d=1, L=2, a=0.5, b=0.3, sigma=[0.4, 0.3],
                                                f=bump(0.1), g=[bump(0.05), bump(0.02)]),
                     time_dependent)
        cs.f, cs.g = counted("f", cs.f), counted("g", cs.g)
        path = noise.generate(5, 2, N, dt)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=dt, store_every=1), path, [N * dt])
        assert counts == {"f": per_run, "g": per_run}

        counts.clear()
        diagnostics.energy_report(traj, cs, path)
        assert counts == {"f": per_run, "g": per_run}

        counts.clear()
        solver.weak_residual(traj, TestFunction.bump(0.0, 2.0), cs, path)
        assert counts == {"f": per_run, "g": per_run}

        def count_h(cs):
            cs.h = counted("h", cs.h)
            return cs
        flag_zakai(monkeypatch, time_dependent, count_h)
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, N, dt)
        grid = Grid.line(-8, 8, 64)  # holds the prior's mass
        counts.clear()
        flt.run_kushner(sc, truth, grid, SolverConfig(dt=dt))
        assert counts == {"h": per_run}

        counts.clear()
        flt.run_zakai(sc, truth, grid, SolverConfig(dt=dt))
        assert counts == {"h": per_run}


@pytest.fixture
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestStepperMemory:
    """Reference counting alone frees a finished stepper and the
    factorization it reused, and a time-dependent run holds one
    factorization at a time, releasing the old one before it factors anew."""

    grid = Grid.box2d((-4, -4), (4, 4), (16, 16))
    cs = CoefficientSet.from_fields(d=2, L=1, a=(0.6, 0.2, 0.5), b=(0.3, -0.2),
                                    sigma=[(0.5, 0.3)])

    def test_finished_stepper_is_freed_without_the_cycle_collector(self,
                                                                    no_cycle_collector):
        stepper = solver.Stepper(self.cs, self.grid, 1e-3, True)
        stepper.at(0)
        alive, system = weakref.ref(stepper), weakref.ref(stepper.system)
        del stepper
        assert alive() is None and system() is None

    def test_time_dependent_run_holds_one_factorization_at_a_time(self, monkeypatch,
                                                                  no_cycle_collector):
        N, dt = 6, 1e-3
        u0 = np.exp(-np.sum(self.grid.points() ** 2, axis=1) / 0.5)
        path = noise.generate(3, 1, N, dt)
        src = picard.NonlinearSources.sin_of_u(0.1)
        traj, _ = picard.picard_solve(self.cs, src, u0, self.grid, SolverConfig(dt=dt),
                                      path)
        frozen = picard.frozen_source_coefficients(self.cs, src, traj)
        systems, alive_at_build = weakref.WeakSet(), []
        init = solver._ImplicitSystem.__init__

        def tracked(system, *args):
            alive_at_build.append(len(systems))
            init(system, *args)
            systems.add(system)
        monkeypatch.setattr(solver._ImplicitSystem, "__init__", tracked)
        solver.solve(frozen, u0, self.grid, SolverConfig(dt=dt), path, [N * dt])
        assert alive_at_build == [0] * N

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_record_refers_to_the_steppers_own_generator(self, monkeypatch, time_dependent):
        # the record holds the generator the stepper holds, after a static
        # stepper's one build and after a time-dependent stepper's reuses alike
        steppers = []

        class Recorded(solver.Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                steppers.append(self)
        monkeypatch.setattr(solver, "Stepper", Recorded)
        N, dt = 4, 1e-3
        u0 = np.exp(-np.sum(self.grid.points() ** 2, axis=1) / 0.5)
        solver.solve(flagged(self.cs, time_dependent), u0, self.grid, SolverConfig(dt=dt),
                     noise.generate(3, 1, N, dt), [N * dt])
        [stepper] = steppers
        Lop, record_dt, solve = stepper._factored
        assert Lop is stepper.Lop and record_dt == dt and solve is stepper.system._solve

    def test_reused_factorization_is_freed_with_its_stepper(self, no_cycle_collector):
        stepper = solver.Stepper(flagged(self.cs, True), self.grid, 1e-3, True)
        stepper.at(0)
        solve = weakref.ref(stepper.system._solve)
        stepper.at(1)
        assert stepper.system._solve is solve()
        del stepper
        assert solve() is None

    def test_old_factorization_is_gone_before_a_new_one_is_built(self, monkeypatch,
                                                                   no_cycle_collector):
        N, dt = 6, 1e-3
        solves, alive_at_factor = weakref.WeakSet(), []
        init, dgbtrf = solver._ImplicitSystem.__init__, solver.dgbtrf

        def tracked(system, *args):
            init(system, *args)
            solves.add(system._solve)

        def factor(*args, **kw):
            alive_at_factor.append(len(solves))
            return dgbtrf(*args, **kw)
        monkeypatch.setattr(solver._ImplicitSystem, "__init__", tracked)
        monkeypatch.setattr(solver, "dgbtrf", factor)
        u0 = np.exp(-np.sum(self.grid.points() ** 2, axis=1) / 0.5)
        solver.solve(time_scaled(self.cs), u0, self.grid, SolverConfig(dt=dt),
                     noise.generate(3, 1, N, dt), [N * dt])
        assert alive_at_factor == [0] * N


class TestTrajectorySeries:
    """Every recorded Trajectory has one mass, L2 and time entry per step
    boundary, and its snapshots agree with those series."""

    N = 12

    @pytest.mark.parametrize("source", ["solve", "zakai.u", "zakai.pi", "kushner", "picard"])
    def test_one_entry_per_step_boundary(self, source):
        N, dt = self.N, 1e-3
        grid = Grid.line(-8, 8, 64)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.3)
        path = noise.generate(5, 1, N, dt)
        u0 = gaussian_density(grid)
        cfg = SolverConfig(dt=dt)
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, N, dt)
        traj = {
            "solve": lambda: solver.solve(cs, u0, grid, cfg, path, [N * dt / 2, N * dt]),
            "zakai.u": lambda: flt.run_zakai(sc, truth, grid, cfg).u,
            "zakai.pi": lambda: flt.run_zakai(sc, truth, grid, cfg).pi,
            "kushner": lambda: flt.run_kushner(sc, truth, grid, cfg),
            "picard": lambda: picard.picard_solve(
                cs, picard.NonlinearSources.sin_of_u(0.1), u0, grid, cfg, path,
                output_times=[N * dt / 2, N * dt])[0],
        }[source]()
        for series in (traj.mass_series, traj.l2_series, traj.step_times):
            assert series.shape == (N + 1,)
        assert np.array_equal(traj.step_times, np.arange(N + 1) * dt)
        for t, fld in zip(traj.times, traj.fields):
            k = round(t / dt)
            assert traj.mass_series[k] == pytest.approx(grid.integrate(fld.values), rel=1e-12)
            assert traj.l2_series[k] == pytest.approx(grid.l2(fld.values), rel=1e-12)


class TestBuildPolicyInvariance:
    # each example runs the solve, energy, residual, Picard and filter stack,
    # so a failure is reported as found, without a shrink phase
    @settings(max_examples=10, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(cs=family_coefficients(), seed=st.integers(0, 2**16),
           filt=st.tuples(st.floats(-1.0, 0.5), st.floats(0.5, 1.5),
                          st.floats(-1.0, 1.0), st.floats(0.5, 2.0)))
    def test_static_and_time_dependent_builds_agree(self, cs, seed, filt):
        # t-independent fields give the same bits whether the operators are
        # built once or rebuilt every step
        grid = Grid.line(-6, 6, 96)
        dt, N = 1e-3, 30
        path = noise.generate(seed, 1, N, dt)
        u0 = gaussian_density(grid)
        cfg = SolverConfig(dt=dt, store_every=1)
        runs = [flagged(cs, False), flagged(cs, True)]

        hists = [solver.solve(c, u0, grid, cfg, path, [N * dt]).full_history for c in runs]
        assert hists[0].tobytes() == hists[1].tobytes()

        traj = solver.solve(cs, u0, grid, cfg, path, [N * dt])
        reps = [diagnostics.energy_report(traj, c, path) for c in runs]
        assert reps[0].measured == reps[1].measured
        assert reps[0].extra["per_step"].tobytes() == reps[1].extra["per_step"].tobytes()
        phi = TestFunction.bump(0.5, 3.0)
        residuals = [solver.weak_residual(traj, phi, c, path) for c in runs]
        assert residuals[0] == residuals[1]

        src = picard.NonlinearSources.sin_of_u(0.1)
        out = [picard.picard_solve(c, src, u0, grid, cfg, path) for c in runs]
        assert out[0][0].full_history.tobytes() == out[1][0].full_history.tobytes()
        assert np.array_equal(np.array(out[0][1]), np.array(out[1][1]), equal_nan=True)

        A, Q, H, R = filt
        sc = flt.FilterScenario.linear_gaussian(A=A, Q=Q, H=H, R=R)
        truth = flt.simulate_truth(sc, seed, N, dt)
        wide = Grid.line(-8, 8, 128)  # holds the prior's mass
        pis, us = [], []
        for time_dependent in (False, True):
            with pytest.MonkeyPatch.context() as mp:   # not a fixture under @given
                flag_zakai(mp, time_dependent)
                pis.append(flt.run_kushner(sc, truth, wide, cfg).full_history)
                us.append(flt.run_zakai(sc, truth, wide, cfg).u.full_history)
        assert pis[0].tobytes() == pis[1].tobytes()
        assert us[0].tobytes() == us[1].tobytes()


class TestWeakResidual:
    def test_zero_coefficient_run(self):
        grid = Grid.line(-4, 4, 64)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = zero_path(1, 50, 1e-3)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [0.05])
        phi = TestFunction.bump((0.0,), 3.0)
        assert solver.weak_residual(traj, phi, cs, path) <= 1e-12

    def test_heat_run_residual_small(self):
        grid = Grid.line(-8, 8, 512)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        n_steps = 2500
        path = zero_path(1, n_steps, 1e-4)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=1e-4, store_every=1), path, [0.125, 0.25])
        phi = TestFunction.bump((0.0,), 4.0)
        assert solver.weak_residual(traj, phi, cs, path) <= 5e-3

    def test_wrong_drift_sign_is_flagged(self):
        grid = Grid.line(-8, 8, 256)
        b = ScalarField("sinusoidal", 1, amp=0.5)
        good = CoefficientSet.from_fields(d=1, L=1, a=0.5, b=b)
        bad = CoefficientSet.from_fields(
            d=1, L=1, a=0.5, b=ScalarField("sinusoidal", 1, amp=-0.5))
        path = zero_path(1, 500, 5e-4)
        traj = solver.solve(good, gaussian_density(grid), grid,
                            SolverConfig(dt=5e-4, store_every=1), path, [0.25])
        phi = TestFunction.bump((0.0,), 4.0)
        r_good = solver.weak_residual(traj, phi, good, path)
        r_bad = solver.weak_residual(traj, phi, bad, path)
        assert r_bad > 10 * r_good

    def test_support_guard(self):
        grid = Grid.line(-2, 2, 64)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = zero_path(1, 10, 1e-3)
        traj = solver.solve(cs, gaussian_density(grid, var=0.04), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [0.01])
        with pytest.raises(TestFunctionError):
            solver.weak_residual(traj, TestFunction.bump((0.0,), 3.0), cs, path)

    @pytest.mark.parametrize("width", [-4.5, 0.0, math.nan])
    def test_width_must_be_finite_and_positive(self, width):
        # bump(0, -4.5) has the values of bump(0, 4.5), whose support leaves
        # Grid.line(-4, 4, 64), but a negative width would pass the support test
        with pytest.raises(TestFunctionError, match="width"):
            TestFunction.bump((0.0,), width)

    def test_stochastic_run_residual(self):
        grid = Grid.line(-8, 8, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        path = noise.generate(4, 1, 1000, 2.5e-4)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=2.5e-4, store_every=1), path, [0.25])
        phi = TestFunction.bump((0.0,), 4.0)
        assert solver.weak_residual(traj, phi, cs, path) <= 2e-2

    def test_set_without_derivative_hooks_is_refused_by_name(self):
        # a hand-built set has no da or div_sigma unless it is given them;
        # the weak form refuses it rather than reading the derivatives as 0
        grid = Grid.line(-4, 4, 64)
        fields = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.5)
        raw = CoefficientSet(1, 1, *(getattr(fields, name) for name in
                                     ("a", "b", "c", "sigma", "h", "f", "g")))
        assert raw.da is None and raw.div_sigma is None
        path = noise.generate(0, 1, 2, 1e-3)
        traj = solver.solve(raw, gaussian_density(grid), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [2e-3])
        with pytest.raises(ConfigurationError, match="derivative hook 'da'"):
            solver.weak_residual(traj, TestFunction.bump((0.0,), 2.0), raw, path)

    def test_stochastic_source_residual(self):
        # exercises the g dB bookkeeping on both sides of the identity
        grid = Grid.line(-8, 8, 256)
        g = ScalarField("gaussian", 1, amp=0.3, center=0.5, width=0.6)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, g=g)
        path = noise.generate(21, 1, 500, 5e-4)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=5e-4, store_every=1), path, [0.25])
        phi = TestFunction.bump((0.0,), 4.0)
        assert solver.weak_residual(traj, phi, cs, path) <= 5e-3


class TestTrajectoryAndMisc:
    def test_history_limit_counts_every_point(self):
        # 2^32 x 2^32 points: an int64 product of n wraps to 0
        grid = Grid.box2d((-1, -1), (1, 1), (2**32, 2**32))
        assert grid.npts == 2**64
        with pytest.raises(SizeError, match="safety limit"):
            solver.check_history_size(1, grid.npts)

    def test_snapshot_lookup(self):
        grid = Grid.line(-2, 2, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.1)
        path = zero_path(1, 20, 1e-3)
        traj = solver.solve(cs, gaussian_density(grid, var=0.1), grid,
                            SolverConfig(dt=1e-3), path, [0.01, 0.02])
        assert list(traj.times) == [0.01, 0.02]
        assert [round(t / traj.dt) for t, _ in zip(traj.times, traj.fields)] == [10, 20]

    @staticmethod
    def run_solve(cs, u0, grid, path, output_times):
        return solver.solve(cs, u0, grid, SolverConfig(dt=1e-3), path, output_times)

    @staticmethod
    def run_picard(cs, u0, grid, path, output_times):
        return picard.picard_solve(cs, picard.NonlinearSources.sin_of_u(0.1), u0, grid,
                                   SolverConfig(dt=1e-3), path, output_times=output_times)

    def test_boundary_mass_warning(self):
        # the warning names the caller's line, not a line inside spdelab
        grid = Grid.line(-2, 2, 32)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = zero_path(1, 5, 1e-3)
        wide = np.ones(grid.npts)
        for run in (self.run_solve, self.run_picard):
            with pytest.warns(UserWarning, match="boundary") as record:
                run(cs, wide, grid, path, [0.005])
            assert record[0].filename == __file__

    @pytest.mark.parametrize("run", ["run_solve", "run_picard"])
    def test_empty_output_times_rejected(self, run):
        grid = Grid.line(-2, 2, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.1)
        with pytest.raises(ConfigurationError, match="output_times"):
            getattr(self, run)(cs, gaussian_density(grid), grid, zero_path(1, 5, 1e-3), [])

    @pytest.mark.parametrize("run", ["run_solve", "run_picard"])
    @pytest.mark.parametrize("times, match", [
        ([-0.001, 0.002], "negative"), ([0.002, 0.002], "twice"),
        ([0.001, 0.002, 0.0010000000001], "twice")])
    def test_negative_or_repeated_output_times_rejected(self, run, times, match):
        # each output time must name its own snapshot at or after t = 0
        grid = Grid.line(-2, 2, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.1)
        with pytest.raises(ConfigurationError, match=match):
            getattr(self, run)(cs, gaussian_density(grid), grid, zero_path(1, 5, 1e-3),
                               times)

    def test_boundary_mass_counts_each_corner_once(self):
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        u = np.zeros(grid.n)
        u[[0, 0, -1, -1], [0, -1, 0, -1]] = 1.0
        with pytest.warns(UserWarning, match=r"boundary cells hold 1\.00e\+00 "):
            solver._boundary_mass_guard(grid, u.ravel())

    @pytest.mark.parametrize("store_every", [2, -1])
    def test_store_every_is_zero_or_one(self, store_every):
        with pytest.raises(ValidationError, match="store_every"):
            SolverConfig(dt=1e-3, store_every=store_every)

    @pytest.mark.parametrize("build", [
        lambda: SolverConfig(dt=1e-3, theta=1.0),
        lambda: Grid.line(-2, 2, 64, boundary="zero-flux"),
        lambda: Grid.box2d((-2, -1), (2, 1), (16, 8), boundary="zero-flux"),
    ], ids=["SolverConfig-theta", "Grid.line-boundary", "Grid.box2d-boundary"])
    def test_scheme_and_wall_are_not_options(self, build):
        # backward Euler on zero-flux walls is the only discretization, so
        # neither can be named, not even as the value every run uses
        with pytest.raises(TypeError, match="theta|boundary"):
            build()

    def test_zero_flux_wall_holds_mass_that_reaches_it(self):
        # the density spreads onto the walls, and what reaches them stays
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        grid = Grid.line(-2, 2, 64)
        u0 = gaussian_density(grid, var=0.3)
        with pytest.warns(UserWarning, match="boundary cells"):
            traj = solver.solve(cs, u0, grid, SolverConfig(dt=1e-3),
                                zero_path(1, 200, 1e-3), [0.2])
        assert traj.mass_series[-1] / traj.mass_series[0] == pytest.approx(1.0, abs=1e-12)


def spoiled(cs, name, kind):
    """``cs`` with field ``name`` spoiled: ``"nan"`` or ``"inf"`` at one
    point, ``"shape"`` with its axes after the first dropped (or one added
    to a scalar field), ``"asymmetric"`` with a12 - a21 = 1e-12 at one point."""
    fn = getattr(cs, name)

    def bad(t, x):
        out = np.array(fn(t, x), float)
        if kind == "shape":
            return out.reshape(len(x), -1)[:, 0] if out.ndim > 1 else out[:, None]
        if kind == "asymmetric":
            out[len(x) // 2, 0, 1] += 1e-12
        else:
            out[len(x) // 2] = float(kind)
        return out
    out = copy.copy(cs)
    setattr(out, name, bad)
    return out


class SampleRun:
    """A short good run on the 1-d line or the 2-d box, with what each path
    needs besides the coefficient set."""

    DT, N = 1e-3, 10

    def __init__(self, d):
        self.grid = Grid.line(-4, 4, 64) if d == 1 else Grid.box2d((-4, -4), (4, 4),
                                                                     (16, 16))
        self.cs = CoefficientSet.from_fields(
            **(dict(d=1, L=1, a=0.5, sigma=0.3) if d == 1
               else dict(d=2, L=1, a=(0.5, 0.0, 0.5), sigma=[(0.3, 0.0)])))
        self.u0 = np.exp(-2.0 * np.sum(self.grid.points() ** 2, axis=1))
        self.path = noise.generate(5, 1, self.N, self.DT)
        self.traj = solver.solve(self.cs, self.u0, self.grid,
                                 SolverConfig(dt=self.DT, store_every=1), self.path,
                                 [self.N * self.DT])
        self.phi = TestFunction.bump((0.0,) * d, 2.0)


class TestSampleContract:
    """Every path that reads a coefficient refuses a bad sample of it with a
    typed error that names the field and t: EvaluationError for a
    non-finite value or a sample not of its documented shape,
    ValidationError for an asymmetric a."""

    ALL = ("a", "b", "c", "sigma", "h", "f", "g")
    # path: (the fields it reads, a call of it with coefficient set cs)
    PATHS = {
        "solve": (ALL, lambda cs, r: solver.solve(
            cs, r.u0, r.grid, SolverConfig(dt=r.DT), r.path, [r.N * r.DT])),
        "picard_solve": (ALL, lambda cs, r: picard.picard_solve(
            cs, picard.NonlinearSources.sin_of_u(0.1), r.u0, r.grid,
            SolverConfig(dt=r.DT), r.path)),
        "energy_report": (ALL, lambda cs, r: diagnostics.energy_report(r.traj, cs, r.path)),
        "weak_residual": (ALL + ("da", "div_sigma"), lambda cs, r: solver.weak_residual(
            r.traj, r.phi, cs, r.path)),
        "check_stability": (("a", "sigma"), lambda cs, r: solver.check_stability(
            cs, r.grid, 0.0, r.DT)),
        "verify_parabolicity": (("a", "sigma"), lambda cs, r: verify_parabolicity(
            cs, r.grid, [0.0])),
        "validate": (ALL, lambda cs, r: cs.validate(r.grid, [0.0])),
        "mollified_parabolicity_check": (("a", "sigma"), lambda cs, r:
                                         mollified_parabolicity_check(
                                             cs, MollifierParams(1.0), r.grid, [0.0])),
    }
    CASES = [(path, name) for path, (names, _) in PATHS.items() for name in names]
    CASES += [("run_kushner", name) for name in ("a", "b", "c", "sigma", "h")]
    RUNS = {}

    def call(self, path, spoil, d, monkeypatch):
        if d not in self.RUNS:
            self.RUNS[d] = SampleRun(d)
        run = self.RUNS[d]
        if path != "run_kushner":
            return self.PATHS[path][1](spoil(run.cs), run)
        flag_zakai(monkeypatch, False, wrap=spoil)
        sc = flt.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = flt.simulate_truth(sc, 12, run.N, run.DT)
        return flt.run_kushner(sc, truth, Grid.line(-8, 8, 64), SolverConfig(dt=run.DT))

    @pytest.mark.parametrize("kind", ["nan", "inf", "shape"])
    @pytest.mark.parametrize("path, name", CASES)
    def test_bad_sample_is_named(self, monkeypatch, path, name, kind):
        with pytest.raises(EvaluationError, match=rf"field '{name}' .*at t=\d"):
            self.call(path, lambda cs: spoiled(cs, name, kind), 1, monkeypatch)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_asymmetric_a_is_refused(self, monkeypatch, path):
        with pytest.raises(ValidationError, match=r"field 'a' is not symmetric at t=\d"):
            self.call(path, lambda cs: spoiled(cs, "a", "asymmetric"), 2, monkeypatch)

    def test_mollifier_checks_its_padded_lattice(self):
        # sigma is bad only beyond the box: the raw check passes, and the
        # mollifier's own sample on the padded lattice refuses it
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.3)
        sigma = cs.sigma

        def beyond(t, x):
            out = np.array(sigma(t, x))
            out[x[:, 0] > 4.0] = np.nan
            return out
        cs.sigma = beyond
        grid = Grid.line(-4, 4, 64)
        assert verify_parabolicity(cs, grid, [0.0]) >= -PARABOLIC_TOL
        with pytest.raises(EvaluationError, match=r"field 'sigma' is non-finite at t=0\.0"):
            mollified_parabolicity_check(cs, MollifierParams(0.5), grid, [0.0])

    def test_one_symmetry_tolerance(self):
        # validate's former 1e-14, not assembly's former 1e-13
        X = Grid.box2d((-1, -1), (1, 1), (16, 16)).points()

        def with_a12(a12):
            return CoefficientSet(2, 1, lambda t, x: np.tile([[1.0, a12], [0.0, 1.0]],
                                                             (len(x), 1, 1)), *[None] * 6)
        assert with_a12(1e-14).sample("a", 0.0, X).shape == (256, 2, 2)
        with pytest.raises(ValidationError, match="not symmetric"):
            with_a12(2e-14).sample("a", 0.0, X)
