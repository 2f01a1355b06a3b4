import numpy as np
import pytest

from spdelab import mollifier as mol
from spdelab.errors import HypothesisError, UnderResolvedError
from spdelab.families import ScalarField
from spdelab.grids import Grid
from spdelab.mollifier import MollifierParams
from spdelab.model import CoefficientSet


def centered_grid(half=2.0, n=512):
    """Grid whose cell centers include x = 0."""
    h = 2 * half / n
    return Grid.line(-half - h / 2, half - h / 2, n)


class TestKernelAndCutoff:
    def test_stencil_has_unit_mass(self):
        for eps, h in [(0.1, 0.0125), (0.05, 0.025 / 2), (0.3, 0.01)]:
            w = mol.stencil(MollifierParams(eps), h)
            assert abs(w.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("eps", [0.2, 0.5])
    @pytest.mark.parametrize("hs", [0.1, 0.03, (0.1, 0.05), (0.05, 0.1)])
    def test_stencil_bits_match_the_per_dimension_formula(self, hs, eps):
        # reference: the stencil's former 1-d and 2-d branches, before it
        # was one loop over the axes of hs; no golden row covers the 2-d one
        def rho(r2, Z, d):
            out = np.zeros_like(r2)
            inside = r2 < 1.0
            out[inside] = Z * np.exp(-1.0 / (1.0 - r2[inside])) / eps ** d
            return out
        h = np.atleast_1d(hs)
        k = [np.arange(-m, m + 1) * hi for hi, m in zip(h, np.floor(eps / h).astype(int))]
        if len(h) == 1:
            raw = rho((k[0] / eps) ** 2, mol.Z_1D, 1) * h[0]
        else:
            pts = np.stack(np.meshgrid(*k, indexing="ij"), axis=-1)
            raw = rho(np.sum((pts / eps) ** 2, axis=-1), mol.Z_2D, 2) * h[0] * h[1]
        w = mol.stencil(MollifierParams(eps), hs)
        assert w.shape == raw.shape
        assert w.tobytes() == (raw / raw.sum()).tobytes()

    def test_raw_quadrature_mass_close_to_one(self):
        # the analytic normalization is good on its own; the stencil
        # renormalization only removes the residual quadrature error
        eps, h = 0.2, 0.2 / 64
        k = np.arange(-64, 65)
        raw = mol.kernel_value(k * h, eps) * h
        assert abs(raw.sum() - 1.0) < 1e-8

    def test_support_inside_ball(self):
        eps, h = 0.1, 0.01
        w = mol.stencil(MollifierParams(eps), h)
        m = (len(w) - 1) // 2
        offs = np.arange(-m, m + 1) * h
        assert np.all(w[np.abs(offs) >= eps] == 0.0)

    def test_under_resolution_error_carries_minimum(self):
        with pytest.raises(UnderResolvedError) as exc:
            mol.stencil(MollifierParams(0.015), 0.01)
        assert exc.value.required_epsilon == pytest.approx(0.02)

    def test_cutoff_plateau_and_range(self):
        eps = 0.1
        x = np.linspace(-25, 25, 2001)
        chi = mol.cutoff_value(x, eps)
        assert np.all((0.0 <= chi) & (chi <= 1.0))
        assert np.all(chi[np.abs(x) <= 10.0] == 1.0)
        assert np.all(chi[np.abs(x) >= 20.0] == 0.0)

    def test_cutoff_derivative_zero_on_plateaus(self):
        eps, dx = 0.1, 1e-6
        x = np.array([0.0, 5.0, 9.9, 20.1, 30.0])
        slope = (mol.cutoff_value(x + dx, eps) - mol.cutoff_value(x - dx, eps)) / (2 * dx)
        assert np.all(slope == 0.0)

    def test_cutoff_bound_matches_dense_sampling_oracle(self):
        # DIV_BOUND_C is built on PSI_SUP_DERIV: the slope of chi_eps never
        # exceeds PSI_SUP_DERIV eps, and reaches it on the shell midpoint
        eps = 0.1
        x = np.linspace(-25, 25, 500_001)
        slope = np.abs(np.diff(mol.cutoff_value(x, eps))) / (x[1] - x[0])
        assert np.max(slope) <= mol.PSI_SUP_DERIV * eps
        assert np.max(slope) == pytest.approx(mol.PSI_SUP_DERIV * eps, rel=1e-6)


class TestMollifyField:
    def test_constant_is_exact_in_plateau(self):
        grid = centered_grid()
        v = np.full(grid.npts, 3.0)
        out = mol.mollify_field(v, MollifierParams(0.1), grid)
        i0 = np.argmin(np.abs(grid.x))
        assert out[i0] == pytest.approx(3.0, abs=1e-12)

    def test_affine_fixed_where_chi_is_one(self):
        grid = centered_grid()
        out = mol.mollify_field(grid.x.copy(), MollifierParams(0.1), grid)
        interior = np.abs(grid.x) < 1.0
        assert np.allclose(out[interior], grid.x[interior], atol=1e-12)

    def test_step_averages_to_half_at_zero(self):
        half, n = 2.0, 512  # symmetric box: no node at 0, pair straddles it
        grid = Grid.line(-half, half, n)
        v = (grid.x >= 0).astype(float)
        out = mol.mollify_field(v, MollifierParams(0.1), grid)
        i = n // 2
        at_zero = 0.5 * (out[i - 1] + out[i])
        assert at_zero == pytest.approx(0.5, abs=1e-6)

    def test_linearity(self):
        grid = centered_grid()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(grid.npts)
        w = rng.standard_normal(grid.npts)
        p = MollifierParams(0.08)
        lhs = mol.mollify_field(1.7 * v + w, p, grid)
        rhs = 1.7 * mol.mollify_field(v, p, grid) + mol.mollify_field(w, p, grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_sup_contraction(self):
        grid = centered_grid()
        rng = np.random.default_rng(4)
        v = rng.standard_normal(grid.npts)
        out = mol.mollify_field(v, MollifierParams(0.1), grid)
        assert np.max(np.abs(out)) <= np.max(np.abs(v)) + 1e-15

    def test_2d_constant_plateau(self):
        grid = Grid.box2d((-1, -1), (1, 1), (48, 48))
        v = np.full(grid.npts, 2.5)
        out = mol.mollify_field(v, MollifierParams(0.25), grid)
        pts = grid.points()
        inner = np.linalg.norm(pts, axis=1) < 0.4
        assert np.allclose(out[inner], 2.5, atol=1e-12)


class TestTruncateDrift:
    """Mollification clips b at 1/eps, then smooths it with no cutoff."""

    @staticmethod
    def drift(b, eps, grid):
        cs = CoefficientSet.from_fields(d=1, L=1, b=b)
        return mol._mollify(cs, "b", MollifierParams(eps), grid, 0.0)[0]

    def test_clip_at_inverse_epsilon(self):
        grid = centered_grid()
        out = self.drift(5.0, 1.0, grid)
        inner = np.abs(grid.x) < 0.5
        assert np.allclose(out[inner], 1.0, atol=1e-12)
        assert np.max(np.abs(out)) <= 1.0 + 1e-15

    def test_no_clipping_when_small(self):
        grid = centered_grid()
        out = self.drift(0.1, 0.5, grid)
        inner = np.abs(grid.x) < 0.5
        assert np.allclose(out[inner], 0.1, atol=1e-13)

    def test_odd_symmetry_fixes_origin(self):
        grid = centered_grid()  # node at 0
        out = self.drift(ScalarField("affine", 1, slope=1.0), 0.5, grid)
        i0 = int(np.argmin(np.abs(grid.x)))
        assert abs(grid.x[i0]) < 1e-12
        assert out[i0] == pytest.approx(0.0, abs=1e-12)


class TestJensenStep:
    def test_discrete_jensen_exact(self):
        grid = centered_grid()
        p = MollifierParams(0.1)
        sig = np.sin(grid.x)
        chi = mol.cutoff_value(grid.x, p.epsilon)
        smooth_then_square = mol.mollify_field(sig, p, grid) ** 2 * chi**2
        square_then_smooth = mol.mollify_field(sig**2, p, grid) * chi**2
        assert np.all(smooth_then_square <= square_then_smooth + 1e-12)
        assert np.max(square_then_smooth - smooth_then_square) > 1e-4  # strict somewhere


class TestMollifiedParabolicity:
    def test_degenerate_pair_stays_tight(self):
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=1.0)
        grid = centered_grid(half=3.0, n=512)
        min_defect = mol.mollified_parabolicity_check(cs, MollifierParams(0.1), grid, [0.0])
        assert min_defect == pytest.approx(0.0, abs=1e-10)
        assert min_defect >= -1e-10

    def test_noise_is_smoothed_before_squaring(self):
        # regression vs the wrong order of smoothing and squaring, checked
        # against a raw (unnormalized) quadrature of both sides
        grid = centered_grid(half=3.0, n=1024)
        p = MollifierParams(0.1)
        cs = CoefficientSet.from_fields(d=1, L=1, a=1.0,
                                        sigma=ScalarField("sinusoidal", 1))
        sig_eps = mol._mollify(cs, "sigma", p, grid, 0.0)[0, 0]
        h = grid.hs[0]
        mhalf = int(np.floor(p.epsilon / h))
        offs = np.arange(-mhalf, mhalf + 1) * h
        raw_w = mol.kernel_value(offs, p.epsilon) * h
        xext = np.concatenate([grid.x[0] + offs[offs < 0], grid.x,
                               grid.x[-1] + offs[offs > 0]])
        sraw = np.sin(xext)
        smoothed = np.convolve(sraw, raw_w[::-1], mode="valid")
        chi = mol.cutoff_value(grid.x, p.epsilon)
        assert np.allclose(sig_eps, smoothed * chi, atol=5e-3)
        square_then_smooth = np.convolve(sraw**2, raw_w[::-1], mode="valid") * chi**2
        assert np.max(square_then_smooth - sig_eps**2) > 1e-3

    def test_hypothesis_gate(self):
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.1, sigma=1.0)  # violates DD
        grid = centered_grid(half=2.0, n=256)
        with pytest.raises(HypothesisError):
            mol.mollified_parabolicity_check(cs, MollifierParams(0.1), grid, [0.0])


class TestDivBound:
    def test_constant_drift_passes(self):
        res = mol.div_bound_check(lambda p: np.ones(p.shape[0]), MollifierParams(0.1))
        assert res.sup_div_mollified <= res.bound
        assert res.sup_div_mollified <= mol.DIV_BOUND_C * 1.0

    def test_linear_drift_uniform_sweep(self):
        results = mol.div_bound_sweep(lambda p: p[:, 0], [0.2, 0.1, 0.05])
        sups = [r.sup_div_mollified for r in results]
        assert all(s2 <= 1.5 * s1 for s1, s2 in zip(sups, sups[1:]))
        assert all(r.sup_div_mollified <= r.bound for r in results)

    def test_quadratic_drift_fails_uniformity(self):
        results = mol.div_bound_sweep(lambda p: p[:, 0] ** 2, [0.2, 0.1, 0.05])
        sups = [r.sup_div_mollified for r in results]
        assert any(s2 > 1.5 * s1 for s1, s2 in zip(sups, sups[1:]))
        assert sups[-1] > 1.5 * sups[0]
