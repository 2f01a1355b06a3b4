import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab.errors import ConfigurationError, EvaluationError, ParseError, ValidationError
from spdelab.families import ScalarField, parse_field
from spdelab.grids import Grid
from spdelab.model import PARABOLIC_TOL, CoefficientSet, verify_parabolicity


def heat_coeffs(a=0.5, sigma=None, d=1, L=1, **kw):
    return CoefficientSet.from_fields(d=d, L=L, a=a, sigma=sigma, **kw)


def pointwise_defect(cs, t, x, xi):
    """2 xi'a xi - sum_l (sigma'xi)_l^2 at one point: the oracle for the
    minimum of verify_parabolicity."""
    X = np.asarray(x, dtype=float).reshape(1, cs.d)
    xi = np.asarray(xi, dtype=float)
    A, S = cs.a(t, X)[0], cs.sigma(t, X)[0]
    return float(2.0 * xi @ A @ xi - np.sum((S.T @ xi) ** 2))


class TestParabolicDefect:
    def test_identity_a_no_noise_d2(self):
        cs = CoefficientSet.from_fields(d=2, L=1, a=(1.0, 0.0, 1.0))
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        min_defect = verify_parabolicity(cs, grid, [0.0])
        assert min_defect == pytest.approx(2.0, rel=1e-12)

    def test_exact_minimum_over_directions_d2(self):
        # 2a has eigenvalues 2 (1 +- 0.9): the worst direction (1, -1)/sqrt 2
        # gives 0.2, which a sampled direction set only approaches from above
        cs = CoefficientSet.from_fields(d=2, L=1, a=(1.0, 0.9, 1.0))
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        min_defect = verify_parabolicity(cs, grid, [0.0])
        assert min_defect == pytest.approx(0.2, abs=1e-14)
        xi = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert pointwise_defect(cs, 0.0, (0.3, -0.2), xi) == pytest.approx(0.2, abs=1e-14)

    def test_exact_degeneracy_by_construction(self):
        # a = sigma sigma^T / 2 with a 1x2 sigma
        s1, s2 = 0.7, -1.3
        a_val = 0.5 * (s1 * s1 + s2 * s2)
        cs = CoefficientSet.from_fields(d=1, L=2, a=a_val, sigma=[s1, s2])
        min_defect = verify_parabolicity(cs, Grid.line(-1, 1, 16), [0.0])
        assert min_defect == pytest.approx(0.0, abs=1e-13)

    def test_two_driver_arithmetic(self):
        cs = CoefficientSet.from_fields(d=1, L=2, a=1.0, sigma=[1.0, 1.0])
        min_defect = verify_parabolicity(cs, Grid.line(-1, 1, 16), [0.0])
        assert min_defect == pytest.approx(0.0, abs=1e-14)

    def test_nonfinite_field_named(self):
        def bad_a(t, x):
            out = np.ones((x.shape[0], 1, 1))
            out[x[:, 0] > 0] = np.nan
            return out
        base = heat_coeffs()
        cs = CoefficientSet(1, 1, bad_a, base.b, base.c, base.sigma, base.h,
                            base.f, base.g)
        with pytest.raises(EvaluationError, match="'a'"):
            verify_parabolicity(cs, Grid.line(-2, 2, 16), [0.0])


class TestVerifyParabolicity:
    def test_degenerate_transport_tight_at_zero(self):
        grid = Grid.line(-2, 2, 32)
        cs = heat_coeffs(a=0.5, sigma=1.0)
        min_defect = verify_parabolicity(cs, grid, [0.0, 0.1])
        assert min_defect == pytest.approx(0.0, abs=1e-12)
        assert min_defect >= -PARABOLIC_TOL

    def test_random_spd_matches_eigen_oracle_d2(self):
        # oracle: the smallest eigenvalue of 2a, from eigvalsh directly
        rng = np.random.default_rng(11)
        M = rng.standard_normal((2, 2))
        spd = M @ M.T + 0.5 * np.eye(2)
        cs = CoefficientSet.from_fields(d=2, L=1,
                                        a=(spd[0, 0], spd[0, 1], spd[1, 1]))
        grid = Grid.box2d((-1, -1), (1, 1), (16, 16))
        min_defect = verify_parabolicity(cs, grid, [0.0])
        oracle = float(np.linalg.eigvalsh(2.0 * spd)[0])
        assert min_defect == pytest.approx(oracle, abs=1e-10)

    def test_min_is_exact_over_grid_points(self):
        cs = CoefficientSet.from_fields(
            d=1, L=1, a=ScalarField("sinusoidal", 1, amp=0.2, offset=0.7), sigma=0.9)
        grid = Grid.line(-3, 3, 64)
        min_defect = verify_parabolicity(cs, grid, [0.0])
        # brute re-evaluation at every point along the unit direction
        vals = [pointwise_defect(cs, 0.0, row, [1.0]) for row in grid.points()]
        assert min_defect == pytest.approx(min(vals), abs=0)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            verify_parabolicity(heat_coeffs(), Grid.line(-1, 1, 16), [])


class TestFamilies:
    def test_parse_round_trip(self):
        fld = parse_field("gaussian:amp=2,center=0.5,width=0.7", 1)
        x = np.array([0.5])
        assert fld(x)[0] == pytest.approx(2.0)
        direct = ScalarField("gaussian", 1, amp=2.0, center=0.5, width=0.7)
        xs = np.linspace(-2, 2, 11)
        assert np.array_equal(fld(xs), direct(xs))

    @pytest.mark.parametrize("text", ["zero", "0"])
    def test_zero_is_not_a_family(self, text):
        # the zero field is the default of an absent key, or constant:0
        with pytest.raises(ParseError, match="unknown field family"):
            parse_field(text, 1)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(0)
        fields = [
            parse_field("constant:1.3", 1),
            parse_field("affine:c0=0.2,slope=-0.7", 1),
            parse_field("sinusoidal:amp=0.9,freq=2.0,phase=0.3,offset=0.1", 1),
            parse_field("gaussian:amp=1.1,center=0.4,width=0.6", 1),
        ]
        xs = rng.uniform(-2, 2, 40)
        eps = 1e-6
        for fld in fields:
            fd = (fld(xs + eps) - fld(xs - eps)) / (2 * eps)
            assert np.allclose(fld.grad(xs)[:, 0], fd, atol=1e-7)

    def test_pwlinear_interpolates_and_extends(self):
        fld = parse_field("pwlinear:xs=-1 0 1,ys=1 0 1", 1)
        assert fld(np.array([0.5]))[0] == pytest.approx(0.5)
        assert fld(np.array([5.0]))[0] == pytest.approx(1.0)
        assert fld.grad(np.array([0.5]))[0, 0] == pytest.approx(1.0)
        assert fld.grad(np.array([5.0]))[0, 0] == pytest.approx(0.0)

    def test_pwlinear_refuses_an_overflowing_slope(self):
        # a subnormal knot spacing makes 1 / 2.2e-309 overflow to inf
        with pytest.raises(ParseError, match="slope overflows"):
            ScalarField("pwlinear", 1, xs=[0.0, 2.225073858507203e-309], ys=[0.0, 1.0])
        fld = ScalarField("pwlinear", 1, xs=[0.0, 1e-300], ys=[0.0, 1.0])
        assert np.all(np.isfinite(fld.grad(np.array([[0.5e-300]]))))


# -- the coefficient layer against its former closure-per-coefficient form --

CALLABLES = ("a", "b", "c", "sigma", "h", "f", "g", "da", "div_sigma")


# ``CoefficientSet.from_fields`` as it was before the nested-list layout, one
# closure per coefficient; the new form must reproduce its bytes.
def reference_from_fields(cls, d=1, L=1, a=None, b=None, c=None, sigma=None,
                          h=None, f=None, g=None):
    """Build from ScalarFields (or plain numbers for constants).

    For d = 1, ``a``..``g`` are single fields and ``sigma``/``h``/``g``
    may be lists over the driver index.  For d = 2, ``a`` is given as
    (a11, a12, a22), ``b`` as (b1, b2), and each sigma^l as a pair.
    """
    def F(v, default=0.0):
        if v is None:
            v = default
        if isinstance(v, ScalarField):
            return v
        return ScalarField("constant", d, value=float(v))

    def per_driver(v):
        if v is None:
            return [F(0.0) for _ in range(L)]
        if not isinstance(v, (list, tuple)):
            v = [v]
        out = list(v) + [0.0] * (L - len(v))
        return [F(t) for t in out[:L]]

    if d == 1:
        a_f = [[F(a)]]
        b_f = [F(b)]
        sig_f = [[fld] for fld in per_driver(sigma)]       # [l][i]
    else:
        a11, a12, a22 = (F(t) for t in (a or (0.0, 0.0, 0.0)))
        a_f = [[a11, a12], [a12, a22]]
        b_f = [F(t) for t in (b or (0.0, 0.0))]
        sig_raw = sigma or []
        sig_f = [[F(ci) for ci in pair] for pair in sig_raw]
        sig_f += [[F(0.0), F(0.0)] for _ in range(L - len(sig_f))]
    c_f, f_f = F(c), F(f)
    h_f = per_driver(h)
    g_f = per_driver(g)

    def a_fn(t, x):
        m = x.shape[0]
        out = np.empty((m, d, d))
        for i in range(d):
            for j in range(d):
                out[:, i, j] = a_f[i][j](x)
        return out

    def da_fn(t, x):
        m = x.shape[0]
        out = np.zeros((m, d))
        for i in range(d):
            for j in range(d):
                out[:, i] += a_f[i][j].grad(x)[:, j]
        return out

    def b_fn(t, x):
        return np.stack([fld(x) for fld in b_f], axis=1)

    def sigma_fn(t, x):
        m = x.shape[0]
        out = np.zeros((m, d, L))
        for l, comps in enumerate(sig_f):
            for i in range(d):
                out[:, i, l] = comps[i](x)
        return out

    def div_sigma_fn(t, x):
        m = x.shape[0]
        out = np.zeros((m, L))
        for l, comps in enumerate(sig_f):
            for i in range(d):
                out[:, l] += comps[i].grad(x)[:, i]
        return out

    def h_fn(t, x):
        return np.stack([fld(x) for fld in h_f], axis=1)

    def c_fn(t, x):
        return c_f(x)

    def f_fn(t, x):
        return f_f(x)

    def g_fn(t, x):
        return np.stack([fld(x) for fld in g_f], axis=1)

    obj = cls(d, L, a_fn, b_fn, c_fn, sigma_fn, h_fn, f_fn, g_fn,
              da=da_fn, div_sigma=div_sigma_fn, time_dependent=False)
    obj.fields = {"a": a_f, "b": b_f, "c": c_f, "sigma": sig_f, "h": h_f,
                  "f": f_f, "g": g_f}
    return obj


finite = st.floats(-2.0, 2.0, allow_nan=False)


def family_fields(d):
    """A number, None or a ScalarField of any family the dimension allows."""
    vec = st.lists(finite, min_size=d, max_size=d).map(np.array)
    options = [
        st.none(), finite,
        st.builds(lambda v: ScalarField("constant", d, value=v), finite),
        st.builds(lambda c0, s: ScalarField("affine", d, c0=c0, slope=s), finite, vec),
        st.builds(lambda amp, fr, ph: ScalarField("sinusoidal", d, amp=amp, freq=fr,
                                                  phase=ph), finite, vec, finite),
        st.builds(lambda amp, ce, w: ScalarField("gaussian", d, amp=amp, center=ce,
                                                 width=w),
                  finite, vec, st.floats(0.2, 2.0)),
    ]
    if d == 1:
        # ScalarField refuses knots so close that a slope overflows
        knots = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5, unique=True).filter(
            lambda xs: np.min(np.diff(sorted(xs))) >= 1e-300)
        options.append(st.builds(
            lambda xs, ys: ScalarField("pwlinear", 1, xs=sorted(xs), ys=ys[:len(xs)]),
            knots, st.lists(finite, min_size=5, max_size=5)))
    return st.one_of(options)


@st.composite
def field_arguments(draw):
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, 3))
    fld = family_fields(d)
    vector = fld if d == 1 else st.tuples(fld, fld)
    shorter = st.lists(vector, max_size=L)     # padded with zeros to L
    kw = {"c": draw(fld), "f": draw(fld)}
    for name in ("h", "g"):
        kw[name] = draw(st.one_of(fld, st.lists(fld, max_size=L)))
    if d == 1:
        kw.update(a=draw(fld), b=draw(fld), sigma=draw(st.one_of(fld, shorter)))
    else:
        kw.update(a=draw(st.one_of(st.none(), st.tuples(fld, fld, fld))),
                  b=draw(st.one_of(st.none(), st.tuples(fld, fld))),
                  sigma=draw(st.one_of(st.none(), shorter)))
    return d, L, kw


class TestFromFieldsLayout:
    @settings(max_examples=300, deadline=None)
    @given(field_arguments(), st.integers(0, 2**32 - 1))
    def test_matches_reference_bytewise(self, args, seed):
        d, L, kw = args
        new = CoefficientSet.from_fields(d=d, L=L, **kw)
        ref = reference_from_fields(CoefficientSet, d=d, L=L, **kw)
        X = np.random.default_rng(seed).uniform(-3, 3, (7, d))
        for name in CALLABLES:
            got, want = getattr(new, name)(0.3, X), getattr(ref, name)(0.3, X)
            assert (got.shape, got.dtype) == (want.shape, want.dtype), name
            assert got.tobytes() == want.tobytes(), name


class TestAbsentEntries:
    def test_only_declared_fields_are_built_and_called(self, monkeypatch):
        counts = {"built": 0, "called": 0}
        init, call = ScalarField.__init__, ScalarField.__call__

        def counted_init(self, *args, **kw):
            counts["built"] += 1
            init(self, *args, **kw)

        def counted_call(self, x):
            counts["called"] += 1
            return call(self, x)

        monkeypatch.setattr(ScalarField, "__init__", counted_init)
        monkeypatch.setattr(ScalarField, "__call__", counted_call)
        cs = CoefficientSet.from_fields(d=1, L=100_000, a=0.5, sigma=1.0)
        cs.validate(Grid.line(-8, 8, 16), [0.0])
        assert counts == {"built": 2, "called": 2}

    @pytest.mark.parametrize("d", [1, 2])
    def test_absent_entries_sample_as_zeros(self, d):
        L = 3
        a = 0.5 if d == 1 else (0.5, None, 0.5)
        sigma = [None, 0.25] if d == 1 else [None, (0.25, None)]
        cs = CoefficientSet.from_fields(d=d, L=L, a=a, sigma=sigma)
        X = np.random.default_rng(0).uniform(-3, 3, (5, d))
        for name in ("b", "c", "h", "f", "g", "da", "div_sigma"):
            assert not cs.sample(name, 0.0, X).any(), name
        A, S = cs.sample("a", 0.0, X), cs.sample("sigma", 0.0, X)
        assert np.array_equal(A, np.broadcast_to(0.5 * np.eye(d), (5, d, d)))
        want = np.zeros((5, d, L))
        want[:, 0, 1] = 0.25
        assert np.array_equal(S, want)


class TestFromFieldsRefusals:
    @pytest.mark.parametrize("kw, named", [
        (dict(d=1, L=1, sigma=[0.1, 0.2]), "sigma lists 2 drivers, but L = 1 takes at most 1"),
        (dict(d=1, L=2, h=[0.1, 0.2, 0.3]), "h lists 3 drivers, but L = 2 takes at most 2"),
        (dict(d=1, L=1, g=[0.1, 0.2]), "g lists 2 drivers, but L = 1 takes at most 1"),
        (dict(d=2, L=1, sigma=[(0.5,)]), r"sigma\[0\] needs 2 entries"),
        (dict(d=2, L=1, a=(0.5, 0.1)), "a needs 3 entries"),
        (dict(d=2, L=1, a=0.5), "a needs 3 entries"),
        (dict(d=2, L=1, b=(0.3,)), "b needs 2 entries"),
        (dict(d=3, L=1), "d = 1 or 2 and L >= 1, got d = 3"),
        (dict(d=1, L=0), "d = 1 or 2 and L >= 1, got d = 1 and L = 0"),
    ], ids=["sigma-drivers", "h-drivers", "g-drivers", "sigma-pair", "a-triple",
            "a-scalar-2d", "b-pair", "d3", "L0"])
    def test_layout_that_does_not_fit_is_refused_by_name(self, kw, named):
        with pytest.raises(ValidationError, match=named):
            CoefficientSet.from_fields(**kw)
