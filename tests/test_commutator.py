import numpy as np
import pytest

from spdelab import commutator as com
from spdelab import mollifier as mol
from spdelab.errors import ConfigurationError
from spdelab.families import triangle_wave
from spdelab.grids import Grid
from spdelab.mollifier import MollifierParams


def sweep_grid(eps_min, R=3.0, ppr=64):
    h = eps_min / ppr
    half = R + 0.9
    n = int(np.ceil(2 * half / h / 2)) * 2
    return Grid.line(-half, half, n)


def l2(grid, v, mask=None):
    if mask is not None:
        v = v[mask]
    return np.sqrt(np.sum(v * v) * grid.hs[0])


TRI = triangle_wave()


def tri(p):
    return TRI(p)


def gauss(p, c=0.0, w=0.8):
    return np.exp(-(p[:, 0] - c) ** 2 / (2 * w * w))


def routes(b, u, eps, grid):
    """The direct and the integral commutator at every grid point, from the
    code that convergence_sweep (and so c8) runs."""
    ws = com._Workspace(grid, eps)
    return com._routes(ws, ws.sample(b), ws.sample(u), slice(0, grid.npts))


def direct(b, u, eps, grid):
    return routes(b, u, eps, grid)[0]


class TestDirect:
    def test_constant_b_vanishes(self):
        grid = sweep_grid(0.1)
        out = direct(lambda p: np.full(p.shape[0], 0.7), tri, 0.1, grid)
        assert np.max(np.abs(out)) < 1e-10

    def test_affine_pair_vanishes(self):
        grid = sweep_grid(0.1)
        out = direct(lambda p: p[:, 0], lambda p: p[:, 0], 0.1, grid)
        assert np.max(np.abs(out)) < 1e-10

    def test_norm_matches_fine_grid_oracle(self):
        eps = 0.1
        coarse = sweep_grid(eps, ppr=64)
        fine = sweep_grid(eps, ppr=640)
        b = lambda p: np.sin(p[:, 0])  # noqa: E731
        nc = l2(coarse, direct(b, tri, eps, coarse),
                np.abs(coarse.x) <= 3.0)
        nf = l2(fine, direct(b, tri, eps, fine),
                np.abs(fine.x) <= 3.0)
        assert abs(nc - nf) / nf < 0.01

    def test_bilinearity(self):
        grid = sweep_grid(0.1, ppr=16)
        b1 = lambda p: np.sin(p[:, 0])       # noqa: E731
        b2 = lambda p: np.cos(0.5 * p[:, 0])  # noqa: E731
        al = 1.37
        combo = direct(lambda p: al * b1(p) + b2(p), gauss, 0.1, grid)
        parts = al * direct(b1, gauss, 0.1, grid) \
            + direct(b2, gauss, 0.1, grid)
        assert np.max(np.abs(combo - parts)) < 1e-12
        combo_u = direct(b1, lambda p: al * gauss(p) + tri(p), 0.1, grid)
        parts_u = al * direct(b1, gauss, 0.1, grid) \
            + direct(b1, tri, 0.1, grid)
        assert np.max(np.abs(combo_u - parts_u)) < 1e-12


class TestIntegral:
    def test_constant_b_reduces_to_zero(self):
        grid = sweep_grid(0.1)
        out = routes(lambda p: np.full(p.shape[0], 2.0), tri, 0.1, grid)[1]
        assert np.max(np.abs(out)) < 1e-10

    def test_matches_direct_linear_b_gaussian_u(self):
        grid = sweep_grid(0.1)
        b = lambda p: p[:, 0]  # noqa: E731
        d, i = routes(b, gauss, 0.1, grid)
        mask = np.abs(grid.x) <= 3.0
        assert l2(grid, d - i, mask) / l2(grid, d, mask) < 1e-8

    def test_matches_direct_sin_triangle(self):
        grid = sweep_grid(0.1)
        b = lambda p: np.sin(p[:, 0])  # noqa: E731
        d, i = routes(b, tri, 0.1, grid)
        mask = np.abs(grid.x) <= 3.0
        assert l2(grid, d - i, mask) / l2(grid, d, mask) < 1e-6


class TestSampling:
    @pytest.mark.parametrize("field", [lambda p: 0.7, lambda p: np.ones((p.shape[0] + 1,))])
    def test_field_must_give_one_value_per_point(self, field):
        # the mollifier samples through the same lattice and sampler
        grid = sweep_grid(0.1, ppr=16)
        with pytest.raises(ConfigurationError, match="one value per point"):
            routes(field, tri, 0.1, grid)
        with pytest.raises(ConfigurationError, match="one value per point"):
            mol.div_bound_check(field, MollifierParams(0.1))

    def test_commutator_fields_are_scalar(self):
        # a 1-d drift comes as (m, 1) and is read as (m,); two components
        # per point are refused
        grid = sweep_grid(0.1, ppr=16)
        column = routes(lambda p: np.sin(p), tri, 0.1, grid)
        flat = routes(lambda p: np.sin(p[:, 0]), tri, 0.1, grid)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(column, flat))
        with pytest.raises(ConfigurationError, match="one value per point"):
            routes(lambda p: np.hstack([p, p]), tri, 0.1, grid)

    def test_a_wider_sample_gives_the_same_bytes(self):
        # convergence_sweep samples once, padded for its largest eps, and
        # each smaller eps reads a centered slice of that sample
        grid = sweep_grid(0.05, ppr=16)
        ws, widest = com._Workspace(grid, 0.05), com._Workspace(grid, 0.2)
        assert widest.pad > ws.pad
        b = lambda p: np.sin(p[:, 0])  # noqa: E731
        rows = slice(0, grid.npts)
        own = com._routes(ws, ws.sample(b), ws.sample(tri), rows)
        sliced = com._routes(ws, widest.sample(b), widest.sample(tri), rows)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(own, sliced))


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
                                   [0.2, 0.1, 0.05])
        assert all(n <= 1e-10 for n in sw.norms)

    def test_sin_triangle_acceptance_band(self):
        sw = com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri,
                                   [0.2, 0.1, 0.05, 0.025])
        assert all(n1 > n2 for n1, n2 in zip(sw.norms, sw.norms[1:]))
        assert sw.norms[-1] / sw.norms[0] < 0.5
        assert sw.consistency_gap <= 1e-6

    def test_increasing_epsilons_rejected(self):
        with pytest.raises(ConfigurationError):
            com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri, [0.05, 0.1])

    @pytest.mark.parametrize("epsilons", [[0.2, 0.0], [0.2, -0.1]], ids=["zero", "negative"])
    def test_each_scale_checked_before_the_lattice(self, epsilons):
        with pytest.raises(ConfigurationError, match=r"epsilon must lie in \(0, 1e6\)"):
            com.convergence_sweep(lambda p: np.sin(p[:, 0]), tri, epsilons)
