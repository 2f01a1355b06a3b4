import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import splu

from spdelab import noise, solver
from spdelab.errors import (ConfigurationError, SolverError, StabilityError,
                            TestFunctionError, ValidationError)
from spdelab.families import ScalarField
from spdelab.grids import DensityField, Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig, TestFunction


def gaussian_density(grid, var=0.25, center=0.0):
    x = grid.x
    return np.exp(-(x - center) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def zero_path(L, n_steps, dt):
    p = noise.generate(0, L, n_steps, dt)
    return noise.BrownianPath(L=L, n_steps=n_steps, dt=dt,
                              increments=np.zeros_like(p.increments), seed=0)


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


class TestStep:
    def test_zero_coefficients_identity(self):
        grid = Grid.line(-1, 1, 32)
        cs = CoefficientSet.from_fields(d=1, L=1)
        u = DensityField(grid=grid, values=gaussian_density(grid))
        out = solver.step(u, 0.0, SolverConfig(dt=1e-3), np.array([0.3]), cs)
        assert np.array_equal(out.values, u.values)

    def test_heat_step_matches_variance_growth(self):
        grid = Grid.line(-8, 8, 512)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        dt = 1e-3
        v0 = 0.25
        u = DensityField(grid=grid, values=gaussian_density(grid, var=v0))
        out = solver.step(u, 0.0, SolverConfig(dt=dt), np.array([0.0]), cs)
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
            out = solver.step(u, 0.0, SolverConfig(dt=dt), np.array([dB]), cs)
            exact = gaussian_density(grid, center=-dB)
            errs.append(grid.l2(out.values - exact) / grid.l2(exact))
        assert errs[1] < 0.35 * errs[0]

    def test_stability_guard_suggests_dt(self):
        grid = Grid.line(-1, 1, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        u = DensityField(grid=grid, values=gaussian_density(grid, var=0.01))
        with pytest.raises(StabilityError) as exc:
            solver.step(u, 0.0, SolverConfig(dt=0.5), np.array([0.0]), cs)
        assert exc.value.suggested_dt is not None
        assert exc.value.suggested_dt < 0.5

    def test_degeneracy_margin_guard(self):
        grid = Grid.line(-1, 1, 64)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.4, sigma=1.0)  # 2a < sigma^2
        u = DensityField(grid=grid, values=gaussian_density(grid, var=0.01))
        with pytest.raises(StabilityError):
            solver.step(u, 0.0, SolverConfig(dt=1e-5), np.array([0.0]), cs)


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
    def drift_operator(boundary):
        grid = Grid.line(-3, 3, 128, boundary=boundary)
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=ScalarField("sinusoidal", 1, amp=0.2, offset=0.5),
            b=ScalarField("sinusoidal", 1, amp=1.5, freq=1.7), c=-0.3)
        return grid, solver.assemble_generator(cs, grid, 0.0)

    @pytest.mark.parametrize("boundary", ["zero-flux", "zero-value"])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_1d_matches_banded_and_sparse_lu(self, boundary, theta):
        grid, Lop = self.drift_operator(boundary)
        M = (identity(grid.npts, format="csr") - theta * self.DT * Lop).tocsc()
        ab = np.zeros((3, grid.npts))
        ab[0, 1:] = M.diagonal(1)
        ab[1] = M.diagonal(0)
        ab[2, :-1] = M.diagonal(-1)
        rhs = gaussian_density(grid) + np.sin(3 * grid.x)
        out = solver.implicit_system(Lop, self.DT, theta, grid).solve(rhs)
        assert out.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()
        ref = splu(M).solve(rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_1d_rhs_left_untouched_and_system_reusable(self):
        grid, Lop = self.drift_operator("zero-flux")
        sys_ = solver.implicit_system(Lop, self.DT, 1.0, grid)
        rhs = gaussian_density(grid)
        keep = rhs.copy()
        first = sys_.solve(rhs)
        assert np.array_equal(rhs, keep)
        assert np.array_equal(sys_.solve(rhs), first)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises_solver_error_1d(self, bad):
        grid, Lop = self.drift_operator("zero-flux")
        rhs = gaussian_density(grid)
        rhs[40] = bad
        with pytest.raises(SolverError):
            solver.implicit_system(Lop, self.DT, 1.0, grid).solve(rhs)

    def test_non_finite_rhs_raises_solver_error_2d(self):
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        cs = CoefficientSet.from_fields(d=2, L=1, a=(0.5, 0.1, 0.4), b=(0.3, 0.0))
        Lop = solver.assemble_generator(cs, grid, 0.0)
        rhs = np.ones(grid.npts)
        rhs[7] = np.nan
        with pytest.raises(SolverError):
            solver.implicit_system(Lop, self.DT, 1.0, grid).solve(rhs)

    def test_non_tridiagonal_1d_operator_rejected(self):
        grid, Lop = self.drift_operator("zero-flux")
        wide = Lop.tolil()
        wide[0, 2] = 1.0
        with pytest.raises(SolverError, match="tridiagonal"):
            solver.implicit_system(csr_matrix(wide), self.DT, 1.0, grid)

    def test_singular_1d_system_rejected(self):
        # theta dt L = I makes I - theta dt L the zero matrix
        grid = Grid.line(-1, 1, 16)
        Lop = identity(grid.npts, format="csr") / self.DT
        with pytest.raises(SolverError, match="factorization"):
            solver.implicit_system(Lop, self.DT, 1.0, grid)


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
    @given(cs=family_coefficients(),
           boundary=st.sampled_from(["zero-flux", "zero-value"]),
           seed=st.integers(0, 2**16), width=st.floats(0.05, 0.5))
    def test_series_match_compensated_sums(self, cs, boundary, seed, width):
        # floating sums stay within a few eps of the correctly rounded sums
        grid = Grid.line(-6, 6, 96, boundary=boundary)
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


class TestWeakResidual:
    def test_zero_coefficient_run(self):
        grid = Grid.line(-4, 4, 64)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = zero_path(1, 50, 1e-3)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=1e-3, store_every=1), path, [0.05])
        phi = TestFunction.gaussian((0.0,), 0.4)
        assert solver.weak_residual(traj, phi, cs, path) <= 1e-12

    def test_heat_run_residual_small(self):
        grid = Grid.line(-8, 8, 512)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        n_steps = 2500
        path = zero_path(1, n_steps, 1e-4)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=1e-4, store_every=1), path, [0.125, 0.25])
        phi = TestFunction.gaussian((0.0,), 0.8)
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
        phi = TestFunction.gaussian((0.0,), 0.8)
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
            solver.weak_residual(traj, TestFunction.gaussian((0.0,), 1.0), cs, path)

    def test_stochastic_run_residual(self):
        grid = Grid.line(-8, 8, 256)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        path = noise.generate(4, 1, 1000, 2.5e-4)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=2.5e-4, store_every=1), path, [0.25])
        phi = TestFunction.gaussian((0.0,), 0.8)
        assert solver.weak_residual(traj, phi, cs, path) <= 2e-2

    def test_stochastic_source_residual(self):
        # exercises the g dB bookkeeping on both sides of the identity
        grid = Grid.line(-8, 8, 256)
        g = ScalarField("gaussian", 1, amp=0.3, center=0.5, width=0.6)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, g=g)
        path = noise.generate(21, 1, 500, 5e-4)
        traj = solver.solve(cs, gaussian_density(grid), grid,
                            SolverConfig(dt=5e-4, store_every=1), path, [0.25])
        phi = TestFunction.gaussian((0.0,), 0.8)
        assert solver.weak_residual(traj, phi, cs, path) <= 5e-3


class TestTrajectoryAndMisc:
    def test_snapshot_lookup(self):
        grid = Grid.line(-2, 2, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.1)
        path = zero_path(1, 20, 1e-3)
        traj = solver.solve(cs, gaussian_density(grid, var=0.1), grid,
                            SolverConfig(dt=1e-3), path, [0.01, 0.02])
        assert traj.field_at(0.02).time_index == 20
        with pytest.raises(ConfigurationError):
            traj.field_at(0.015)

    def test_boundary_mass_warning(self):
        grid = Grid.line(-2, 2, 32)
        cs = CoefficientSet.from_fields(d=1, L=1)
        path = zero_path(1, 5, 1e-3)
        wide = np.ones(grid.npts)
        with pytest.warns(UserWarning, match="boundary"):
            solver.solve(cs, wide, grid, SolverConfig(dt=1e-3), path, [0.005])

    def test_theta_range_validated(self):
        with pytest.raises(ValidationError):
            SolverConfig(dt=1e-3, theta=0.3)

    @pytest.mark.filterwarnings("ignore:boundary cells")
    def test_zero_value_boundary_absorbs_mass(self):
        # comparison boundary: a wall zero drains mass while zero-flux holds it
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        path = zero_path(1, 200, 1e-3)
        masses = {}
        for boundary in ("zero-flux", "zero-value"):
            grid = Grid.line(-2, 2, 64, boundary=boundary)
            u0 = gaussian_density(grid, var=0.3)
            traj = solver.solve(cs, u0, grid, SolverConfig(dt=1e-3), path, [0.2])
            masses[boundary] = traj.mass_series[-1] / traj.mass_series[0]
        assert masses["zero-flux"] == pytest.approx(1.0, abs=1e-12)
        assert masses["zero-value"] < 0.995
