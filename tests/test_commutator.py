import numpy as np
import pytest

from spdelab import commutator as com
from spdelab.errors import ConfigurationError, HypothesisError
from spdelab.families import triangle_wave
from spdelab.grids import Grid


def sweep_grid(eps_min, R=3.0, ppr=64):
    h = eps_min / ppr
    half = R + 0.9
    n = int(np.ceil(2 * half / h / 2)) * 2
    return Grid.line(-half, half, n)


def l2(grid, v, mask=None):
    if mask is not None:
        v = v[mask]
    return np.sqrt(np.sum(v * v) * grid.hs[0])


TRI = triangle_wave(period=2.0)


def tri(p):
    return TRI(p)


def gauss(p, c=0.0, w=0.8):
    return np.exp(-(p[:, 0] - c) ** 2 / (2 * w * w))


class TestDirect:
    def test_constant_b_vanishes(self):
        grid = sweep_grid(0.1)
        out = com.commutator_direct(lambda p: np.full(p.shape[0], 0.7), tri, 0.1, grid)
        assert np.max(np.abs(out)) < 1e-10

    def test_affine_pair_vanishes(self):
        grid = sweep_grid(0.1)
        out = com.commutator_direct(lambda p: p[:, 0], lambda p: p[:, 0], 0.1, grid)
        mask = com.collar_mask(grid, 0.1)
        assert np.max(np.abs(out[mask])) < 1e-10

    def test_norm_matches_fine_grid_oracle(self):
        eps = 0.1
        coarse = sweep_grid(eps, ppr=64)
        fine = sweep_grid(eps, ppr=640)
        b = lambda p: np.sin(p[:, 0])  # noqa: E731
        nc = l2(coarse, com.commutator_direct(b, tri, eps, coarse),
                np.abs(coarse.x) <= 3.0)
        nf = l2(fine, com.commutator_direct(b, tri, eps, fine),
                np.abs(fine.x) <= 3.0)
        assert abs(nc - nf) / nf < 0.01

    def test_bilinearity(self):
        grid = sweep_grid(0.1, ppr=16)
        b1 = lambda p: np.sin(p[:, 0])       # noqa: E731
        b2 = lambda p: np.cos(0.5 * p[:, 0])  # noqa: E731
        al = 1.37
        combo = com.commutator_direct(lambda p: al * b1(p) + b2(p), gauss, 0.1, grid)
        parts = al * com.commutator_direct(b1, gauss, 0.1, grid) \
            + com.commutator_direct(b2, gauss, 0.1, grid)
        assert np.max(np.abs(combo - parts)) < 1e-12
        combo_u = com.commutator_direct(b1, lambda p: al * gauss(p) + tri(p), 0.1, grid)
        parts_u = al * com.commutator_direct(b1, gauss, 0.1, grid) \
            + com.commutator_direct(b1, tri, 0.1, grid)
        assert np.max(np.abs(combo_u - parts_u)) < 1e-12


class TestIntegral:
    def test_constant_b_reduces_to_zero(self):
        grid = sweep_grid(0.1)
        out = com.commutator_integral(lambda p: np.full(p.shape[0], 2.0), tri, 0.1, grid)
        assert np.max(np.abs(out)) < 1e-10

    def test_matches_direct_linear_b_gaussian_u(self):
        grid = sweep_grid(0.1)
        b = lambda p: p[:, 0]  # noqa: E731
        d = com.commutator_direct(b, gauss, 0.1, grid)
        i = com.commutator_integral(b, gauss, 0.1, grid)
        mask = np.abs(grid.x) <= 3.0
        assert l2(grid, d - i, mask) / l2(grid, d, mask) < 1e-8

    def test_matches_direct_sin_triangle(self):
        grid = sweep_grid(0.1)
        b = lambda p: np.sin(p[:, 0])  # noqa: E731
        d = com.commutator_direct(b, tri, 0.1, grid)
        i = com.commutator_integral(b, tri, 0.1, grid)
        mask = np.abs(grid.x) <= 3.0
        assert l2(grid, d - i, mask) / l2(grid, d, mask) < 1e-6


class TestIdentities:
    def test_first_identity_defect_small(self):
        grid = sweep_grid(0.1)
        defect = com.for1_defect(lambda p: np.sin(p[:, 0]), gauss, 0.1, grid)
        mask = np.abs(grid.x) <= 3.0
        assert np.max(np.abs(defect[mask])) < 1e-8

    def test_second_identity_defect_roundoff(self):
        grid = sweep_grid(0.1, ppr=32)
        defect = com.for2_defect(lambda p: np.sin(p[:, 0]),
                                 lambda p: np.cos(0.3 * p[:, 0]), gauss, 0.1, grid)
        mask = np.abs(grid.x) <= 3.0
        assert np.max(np.abs(defect[mask])) < 1e-12


class TestSweep:
    def test_constant_b_flat_zero(self):
        sw = com.convergence_sweep(lambda p: np.full(p.shape[0], 1.3), tri,
                                   [0.2, 0.1, 0.05], R=3.0)
        assert all(n <= 1e-10 for n in sw.norms)

    def test_sin_triangle_acceptance_band(self):
        sw = com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri,
                                   [0.2, 0.1, 0.05, 0.025], R=3.0)
        assert all(n1 > n2 for n1, n2 in zip(sw.norms, sw.norms[1:]))
        assert sw.norms[-1] / sw.norms[0] < 0.5
        assert sw.consistency_gap <= 1e-6

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisError):
            com.convergence_sweep(tri, tri, [0.2, 0.1], b_differentiable=False,
                                  u_differentiable=False)

    def test_increasing_epsilons_rejected(self):
        with pytest.raises(ConfigurationError):
            com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri, [0.05, 0.1])
