import numpy as np
import pytest
from scipy import stats

from spdelab import noise
from spdelab.errors import ConfigurationError, SizeError


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
