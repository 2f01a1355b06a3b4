import numpy as np
import pytest
from scipy import stats

from spdelab import noise, solver
from spdelab.errors import ConfigurationError, SizeError
from spdelab.grids import Grid
from spdelab.model import CoefficientSet
from spdelab.solver import SolverConfig


class TestGenerate:
    def test_deterministic_regeneration(self):
        p1 = noise.generate(7, 1, 10, 0.01)
        p2 = noise.generate(7, 1, 10, 0.01)
        assert np.array_equal(p1.increments, p2.increments)

    def test_different_seeds_differ(self):
        p1 = noise.generate(7, 2, 64, 0.01)
        p2 = noise.generate(8, 2, 64, 0.01)
        assert not np.array_equal(p1.increments, p2.increments)

    def test_variance_chi_square_window(self):
        # pooled variance of 1e6 increments: 6-sigma chi-square interval
        # around dt=0.01 is well inside [0.0097, 0.0103]
        p = noise.generate(123, 4, 250_000, 0.01)
        v = float(np.mean(p.increments**2))
        assert 0.0097 <= v <= 0.0103

    def test_column_means_soft_check(self):
        n = 20_000
        dt = 0.01
        p = noise.generate(5, 3, n, dt)
        bound = 4.0 * np.sqrt(dt) / np.sqrt(n) * 1.5
        assert np.all(np.abs(p.increments.mean(axis=0)) < bound)

    def test_normality_not_butchered_by_quantization(self):
        p = noise.generate(9, 1, 50_000, 1e-4)
        z = p.increments[:, 0] / np.sqrt(1e-4)
        assert stats.kstest(z, "norm").pvalue > 1e-3

    def test_guards(self):
        with pytest.raises(ConfigurationError):
            noise.generate(1, 0, 10, 0.1)
        with pytest.raises(SizeError):
            noise.generate(1, 10_000, 1_000_000, 0.1)


class TestBrownianPath:
    def test_counts_are_the_shape_of_the_increments(self):
        p = noise.BrownianPath(dt=0.1, increments=np.zeros((7, 3)), seed=0)
        assert (p.n_steps, p.L) == (7, 3)

    @pytest.mark.parametrize("shape", [(5,), (5, 1, 1), ()])
    def test_increments_that_are_not_a_matrix_are_refused(self, shape):
        with pytest.raises(ConfigurationError, match="n_steps, L"):
            noise.BrownianPath(dt=0.1, increments=np.zeros(shape), seed=0)

    def test_short_path_is_refused_before_the_solve(self):
        # 50 increments cannot drive 100 steps
        grid = Grid.line(-4, 4, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5)
        path = noise.BrownianPath(dt=1e-3, increments=np.zeros((50, 1)), seed=0)
        with pytest.raises(ConfigurationError, match="shorter than the requested horizon"):
            solver.solve(cs, np.ones(grid.npts), grid, SolverConfig(dt=1e-3), path, [0.1])

    def test_path_with_more_drivers_than_the_coefficients_is_refused(self):
        grid = Grid.line(-4, 4, 32)
        cs = CoefficientSet.from_fields(d=1, L=1, a=0.5, sigma=0.1)
        path = noise.generate(0, 2, 10, 1e-3)
        with pytest.raises(ConfigurationError, match="path has 2 drivers, coefficients need 1"):
            solver.solve(cs, np.ones(grid.npts), grid, SolverConfig(dt=1e-3), path, [1e-2])


class TestCoarsen:
    def test_identity_factor(self):
        p = noise.generate(3, 2, 32, 0.5)
        assert noise.coarsen(p, 1) is p

    def test_full_collapse_is_column_sum(self):
        p = noise.generate(3, 2, 32, 0.5)
        c = noise.coarsen(p, 32)
        assert c.n_steps == 1
        assert np.array_equal(c.increments[0], p.endpoint())

    def test_endpoint_exact(self):
        p = noise.generate(11, 3, 4096, 1e-4)
        for k in (2, 8, 4096):
            c = noise.coarsen(p, k)
            assert np.array_equal(c.endpoint(), p.endpoint())

    def test_non_divisor_rejected(self):
        p = noise.generate(3, 1, 30, 0.1)
        with pytest.raises(ConfigurationError):
            noise.coarsen(p, 7)

    def test_two_stage_composition_bit_exact(self):
        p = noise.generate(21, 2, 720, 2e-4)
        for k1, k2 in [(2, 3), (4, 5), (6, 2), (3, 8)]:
            two = noise.coarsen(noise.coarsen(p, k1), k2)
            flat = noise.coarsen(p, k1 * k2)
            assert np.array_equal(two.increments, flat.increments)
            assert two.dt == flat.dt

    def test_dt_scales(self):
        p = noise.generate(2, 1, 100, 1e-3)
        assert noise.coarsen(p, 10).dt == pytest.approx(1e-2)
