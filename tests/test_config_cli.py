import contextlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdelab import acceptance, cli, filtering, noise
from spdelab.acceptance import FILTER_CONFIG, PICARD_CONFIG, SWEEP_CONFIG
from spdelab.config import _SECTION_KEYS, _coefficient_keys, _leaves, parse_config
from spdelab.errors import ParseError, SpdelabError, ValidationError
from spdelab.manifest import RunManifest, write_csv
from spdelab.mollifier import MollifierParams, mollified_coefficient_set
from spdelab.picard import NonlinearSources, picard_solve
from spdelab.solver import SolverConfig

HEAT = """\
[run]
name = heat-demo
seed = 0

[grid]
dim = 1
x_min = -8
x_max = 8
n = 128

[time]
dt = 1e-3
t_end = 0.05

[coefficients]
L = 1
a = constant:0.5

[initial]
u0 = gaussian:amp=1,width=0.5
"""


class TestParseConfig:
    def test_minimal_heat_config(self):
        b = parse_config(HEAT)
        assert b.name == "heat-demo"
        assert b.grid.n == (128,)
        assert b.theta == 1.0
        assert b.grid.boundary == "zero-flux"
        assert b.coeffs.L == 1
        X = b.grid.points()
        assert np.allclose(b.coeffs.a(0.0, X)[:, 0, 0], 0.5)

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValidationError, match="16"):
            parse_config(HEAT.replace("n = 128", "n = 8"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="wibble"):
            parse_config(HEAT.replace("t_end = 0.05", "t_end = 0.05\nwibble = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="turbo"):
            parse_config(HEAT + "\n[turbo]\nx = 1\n")

    def test_inconsistent_sigma_hat_rejected(self):
        bad = HEAT.replace("a = constant:0.5",
                           "a = constant:0.5\nsigma_hat0 = constant:1.0")
        with pytest.raises(ValidationError, match="sigma_hat"):
            parse_config(bad)

    def test_output_times_must_hit_steps(self):
        with pytest.raises(ValidationError, match="output time"):
            parse_config(HEAT.replace("t_end = 0.05",
                                      "t_end = 0.05\noutput_times = 0.0333"))

    def test_field_value_errors_are_parse_errors(self):
        with pytest.raises(ParseError):
            parse_config(HEAT.replace("constant:0.5", "warpdrive:9"))

    @pytest.mark.parametrize("old, new, match", [
        ("t_end = 0.05", "t_end = 0.05\nstore_every = 1", "store_every"),
        ("seed = 0", "seed = 0\ndirection_seed = 2", "direction_seed"),
        ("[grid]", "[checks]\npositivity_tol = 1e-8\n\n[grid]", "checks"),
    ])
    def test_removed_keys_rejected(self, old, new, match):
        with pytest.raises(ParseError, match=match):
            parse_config(HEAT.replace(old, new))

    @pytest.mark.parametrize("text, match", [
        (FILTER_CONFIG.replace("dim = 1", "dim = 2"), "grid.dim"),
        (FILTER_CONFIG.replace("R = 1.0", "R = 1.0\nn_particles = 99"), "n_particles"),
        (PICARD_CONFIG.replace("tol = 1e-8", "tol = 0"), "tol"),
        (PICARD_CONFIG.replace("tol = 1e-8", "max_iter = 0"), "max_iter"),
    ], ids=["filter-2d", "n_particles-99", "picard-tol-0", "picard-max_iter-0"])
    def test_range_checks_run_at_parse_time(self, text, match):
        with pytest.raises(ValidationError, match=match):
            parse_config(text)

    def test_seeds_are_path_and_particles(self):
        assert parse_config(HEAT).seeds == {"path": 0, "particles": 1}

    @pytest.mark.parametrize("dim, L, key", [
        (1, 1, "a11"), (1, 1, "b1"), (1, 1, "sigma0_1"),
        (2, 1, "a"), (2, 1, "b"), (2, 1, "sigma0"), (2, 1, "sigma1_1"),
        (1, 1, "sigma1"), (1, 1, "h1"), (1, 1, "g1"), (1, 1, "sigma_hat1"),
        (1, 2, "sigma2"), (2, 2, "sigma_hat0"),
    ])
    def test_key_the_layout_does_not_define_is_named(self, dim, L, key):
        text = (HEAT.replace("dim = 1", f"dim = {dim}").replace("L = 1", f"L = {L}")
                .replace("a = constant:0.5", "c = constant:0.1"))
        parse_config(text)
        with pytest.raises(ParseError, match=f"'{key}'"):
            parse_config(text.replace("c = constant:0.1",
                                      f"c = constant:0.1\n{key} = constant:100"))

    @pytest.mark.parametrize("dim, L, keys", [
        (1, 1, "a b c f sigma0 h0 g0"),
        (1, 3, "a b c f sigma2 h1 g0 sigma_hat0 sigma_hat1 sigma_hat2"),
        (2, 1, "a11 a12 a22 b1 b2 c f sigma0_1 sigma0_2 h0 g0"),
        (2, 2, "a11 a22 sigma1_2 h1 g1 sigma_hat0_1 sigma_hat1_2"),
    ])
    def test_every_key_the_layout_defines_is_read(self, dim, L, keys):
        lines = "\n".join(f"{k} = constant:0" for k in keys.split())
        b = parse_config(HEAT.replace("dim = 1", f"dim = {dim}")
                         .replace("L = 1", f"L = {L}\nmollify = 0.5")
                         .replace("a = constant:0.5", lines))
        assert b.coeffs.L == L and b.mollify_epsilon == 0.5
        assert (b.coeffs.sigma_hat is None) == ("sigma_hat" not in keys)


    @pytest.mark.parametrize("old, new", [
        ("x_min = -8", "x_min = abc"),
        ("x_max = 8", "x_max = 8 nine"),
        ("n = 128", "n = 128.5"),
    ])
    def test_non_numeric_grid_entries_are_parse_errors(self, old, new):
        with pytest.raises(ParseError, match="grid"):
            parse_config(HEAT.replace(old, new))

    @pytest.mark.parametrize("old, new", [
        ("x_min = -8", "x_min = -8 -8 -8"),
        ("n = 128", "n = 128 128"),
        ("n = 128", "n ="),
    ])
    def test_wrong_length_grid_vectors_rejected(self, old, new):
        with pytest.raises(ValidationError, match="entries"):
            parse_config(HEAT.replace(old, new))

    def test_single_grid_value_broadcasts(self):
        b = parse_config(HEAT.replace("dim = 1", "dim = 2")
                         .replace("a = constant:0.5", "a11 = constant:0.5"))
        assert b.grid.x_min == (-8.0, -8.0)
        assert b.grid.n == (128, 128)

    @pytest.mark.parametrize("spec", ["sin_of_u:scale=abc", "sin_of_u:scale",
                                      "sin_of_u:scael=0.2", "linear_in_u:coeff=x",
                                      "quadratic:scale=1",
                                      "independent:f=gaussian:amp=1,width=abc",
                                      "independent:f=gaussian:amp=1,width=0",
                                      "independent:f=", "independent:g=constant:1"])
    def test_bad_picard_source_is_parse_error(self, spec):
        with pytest.raises(ParseError):
            NonlinearSources.from_spec(spec, 1, 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_independent_source_takes_a_multi_parameter_field(self, d):
        # the field spec keeps its commas and takes the grid's dimension
        src = NonlinearSources.from_spec("independent:f=gaussian:amp=2,width=0.5", 1, d)
        X = np.zeros((3, d))
        X[1, 0] = X[2, d - 1] = 0.5
        assert np.allclose(src.f(0.0, X, None), 2 * np.exp([0.0, -0.5, -0.5]))


class TestManifest:
    def test_hash_stability_and_sensitivity(self):
        m1 = RunManifest(scenario="s", subcommand="run-spde",
                         parameters={"a": "1"}, dt=1e-3, seeds={"path": 0})
        m2 = RunManifest(scenario="s", subcommand="run-spde",
                         parameters={"a": "1"}, dt=1e-3, seeds={"path": 0})
        m3 = RunManifest(scenario="s", subcommand="run-spde",
                         parameters={"a": "2"}, dt=1e-3, seeds={"path": 0})
        assert m1.hash == m2.hash
        assert m1.hash != m3.hash


class TestCli:
    def test_run_spde_writes_outputs(self, tmp_path):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(HEAT)
        rc = cli.main(["run-spde", "--config", str(cfg), "--out",
                       str(tmp_path / "runs")])
        assert rc == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["manifest.json", "series.csv", "trajectory.csv"]
        series = (run_dir / "series.csv").read_text().splitlines()
        assert series[0] == "t,mass,l2,energy_defect"
        assert len(series) == 52  # header + 51 step boundaries

    @pytest.mark.parametrize("theta", ["1.0", "0.5"])
    def test_energy_defect_column(self, tmp_path, theta):
        # theta = 1 writes the per-step defects; elsewhere the balance is
        # undefined and the column is NaN, never silent zeros
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(HEAT.replace("t_end = 0.05", f"t_end = 0.05\ntheta = {theta}"))
        assert cli.main(["run-spde", "--config", str(cfg), "--out",
                         str(tmp_path / "runs")]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        rows = np.loadtxt(run_dir / "series.csv", delimiter=",", skiprows=1)
        defects = rows[1:, 3]
        if theta == "0.5":
            assert np.all(np.isnan(rows[:, 3]))
        else:
            assert rows[0, 3] == 0.0
            assert np.all(np.isfinite(defects)) and np.all(defects != 0.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(HEAT)
        outs = []
        for tag in ("x", "y"):
            rc = cli.main(["run-spde", "--config", str(cfg), "--out",
                           str(tmp_path / tag)])
            assert rc == 0
            (d,) = (tmp_path / tag).iterdir()
            outs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert outs[0] == outs[1]

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_check_quick_subset(self, tmp_path, capsys):
        rc = cli.main(["check", "--only", "2,3,7", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "criterion  2: PASS" in out
        (run_dir,) = tmp_path.iterdir()
        payload = json.loads((run_dir / "report.json").read_text())
        assert all(row["pass"] for row in payload)
        assert all("manifest_hash" in row for row in payload)

    def test_check_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        from spdelab import acceptance
        from spdelab.diagnostics import CheckReport

        def failing():
            return [CheckReport(name="c3:forced-failure", passed=False,
                                measured=1.0, threshold=0.0)]
        monkeypatch.setitem(acceptance.CRITERIA, 3, failing)
        rc = cli.main(["check", "--only", "3", "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "report.json" in out

    def test_run_filter_outputs(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("""\
[run]
name = f-demo
seed = 12

[grid]
n = 128

[time]
dt = 2e-3
t_end = 0.1

[filter]
kind = linear-gaussian
A = -0.5
Q = 1.0
H = 1.0
R = 1.0
n_particles = 200
""")
        rc = cli.main(["run-filter", "--config", str(cfg), "--out",
                       str(tmp_path / "runs")])
        assert rc == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["manifest.json", "moments.csv", "oracle.csv",
                         "posterior.csv"]
        header = (run_dir / "oracle.csv").read_text().splitlines()[0]
        assert header == "t,pde_mean,kb_mean,pde_var,kb_var,particle_phi,stderr"
        # n_particles > 0: the particle estimate fills the last row only
        rows = np.loadtxt(run_dir / "oracle.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows[-1, 5:])) and rows[-1, 6] > 0
        assert np.all(np.isnan(rows[:-1, 5:]))

    @pytest.mark.parametrize("source", ["independent:f=constant:0.1",
                                        "independent:f=gaussian:amp=1,width=0.5"])
    def test_picard_2d_with_independent_source(self, tmp_path, source):
        cfg = tmp_path / "p2.cfg"
        cfg.write_text(PICARD_CONFIG.replace("dim = 1", "dim = 2")
                       .replace("x_min = -8", "x_min = -5").replace("x_max = 8", "x_max = 5")
                       .replace("n = 128", "n = 24")
                       .replace("a = constant:0.5", "a11 = constant:0.5\na22 = constant:0.5")
                       .replace("sin_of_u:scale=0.1", source))
        # a source constant on the whole box feeds its boundary cells on any box
        with (pytest.warns(UserWarning, match="boundary cells hold") if "constant" in source
              else contextlib.nullcontext()):
            rc = cli.main(["picard", "--config", str(cfg), "--out", str(tmp_path / "runs")])
        assert rc == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "iterates.csv").exists()

    def test_mollified_solve_option(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(HEAT.replace("a = constant:0.5",
                                    "a = constant:0.5\nmollify = 0.5"))
        rc = cli.main(["run-spde", "--config", str(cfg), "--out",
                       str(tmp_path / "runs")])
        assert rc == 0


SECTIONS = {"coefficients": "\n[coefficients]\nL = 1\na = constant:0.5\n",
            "initial": "\n[initial]\nu0 = gaussian:amp=1,width=0.5\n",
            "filter": "\n[filter]\nA = -0.5\n",
            "picard": "\n[picard]\nf = sin_of_u:scale=0.1\n"}


def run_dir_of(tmp_path, sub, text):
    """Run ``sub`` on ``text`` and return its run directory."""
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    out = tmp_path / "runs"
    assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    return run_dir


class TestCliSettings:
    """theta and mollify mean the same to every command that can use them,
    and a zero horizon runs wherever the solve does."""

    @pytest.mark.parametrize("sub, text", [
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = 0.0")),
        ("picard", PICARD_CONFIG.replace("t_end = 0.1", "t_end = 0.0")),
    ], ids=["run-spde", "picard"])
    def test_zero_horizon_runs(self, tmp_path, capsys, sub, text):
        run_dir_of(tmp_path, sub, text)

    @pytest.mark.parametrize("old, new", [
        ("t_end = 0.1", "t_end = 0.1\ntheta = 0.5"),
        ("L = 1", "L = 1\nmollify = 0.5"),
    ], ids=["theta", "mollify"])
    def test_picard_reads_theta_and_mollify(self, tmp_path, capsys, old, new):
        run_dir = run_dir_of(tmp_path, "picard", PICARD_CONFIG.replace(old, new))
        b = parse_config(PICARD_CONFIG)
        coeffs = b.coeffs
        if "mollify" in new:
            coeffs = mollified_coefficient_set(coeffs, MollifierParams(0.5), b.grid)
        path = noise.generate(3, 1, 100, 1e-3)
        cfg = SolverConfig(dt=1e-3, theta=0.5 if "theta" in new else 1.0)
        _, log = picard_solve(coeffs, NonlinearSources.sin_of_u(0.1), b.u0_field(b.grid.points()),
                              b.grid, cfg, path, tol=1e-8)
        write_csv(tmp_path / "direct.csv", ["iter", "sup_diff", "ratio"], log)
        direct = (tmp_path / "direct.csv").read_bytes()
        assert (run_dir / "iterates.csv").read_bytes() == direct
        plain = run_dir_of(tmp_path / "plain", "picard", PICARD_CONFIG)
        assert (plain / "iterates.csv").read_bytes() != direct

    def test_run_filter_reads_theta(self, tmp_path, capsys):
        run_dir = run_dir_of(tmp_path, "run-filter",
                             FILTER_CONFIG.replace("t_end = 0.25", "t_end = 0.25\ntheta = 0.5"))
        b = parse_config(FILTER_CONFIG)
        sc = filtering.FilterScenario.linear_gaussian(A=-0.5, Q=1.0, H=1.0, R=1.0)
        truth = filtering.simulate_truth(sc, 12, 250, 1e-3)
        res = filtering.run_zakai(sc, truth, b.grid, SolverConfig(dt=1e-3, theta=0.5))
        written = np.loadtxt(run_dir / "posterior.csv", delimiter=",", skiprows=1)
        direct = [(t, x, v) for t, fld in zip(res.pi.times, res.pi.fields)
                  for x, v in zip(b.grid.x, fld.values)]
        assert np.array_equal(written, np.array(direct))
        plain = run_dir_of(tmp_path / "plain", "run-filter", FILTER_CONFIG)
        assert not np.array_equal(
            np.loadtxt(plain / "posterior.csv", delimiter=",", skiprows=1), written)


# a (1e6 + 1) x 1e5 history, 745 GiB, refused before it is allocated
OVERSIZED = (HEAT.replace("n = 128", "n = 100000").replace("dt = 1e-3", "dt = 1e-6")
             .replace("t_end = 0.05", "t_end = 1"))
MOLLIFY_2E6 = HEAT.replace("a = constant:0.5", "a = constant:0.5\nmollify = 2e6")
# 2a - sigma sigma^T = [[0, -1], [-1, 0]] has the eigenvalue -1, while each
# diagonal entry 2a_ii - |sigma_i|^2 is 0
NOT_PARABOLIC_2D = (HEAT.replace("dim = 1", "dim = 2").replace("n = 128", "n = 32")
                    .replace("a = constant:0.5", "a11 = constant:0.5\na22 = constant:0.5\n"
                             "sigma0_1 = constant:1\nsigma0_2 = constant:1"))


class TestCliErrors:
    """Bad input exits 1 with one 'error:' line and no traceback, and a run
    that fails leaves nothing under --out."""

    # the message of the cases that name their limit, by case id
    MESSAGES = {
        "run-spde-history-too-large": "error: a history of 1000001 steps x 100000 points "
                                      "exceeds the safety limit of 200000000 values",
        "picard-history-too-large": "error: a history of 1000001 steps x 100000 points "
                                    "exceeds the safety limit of 200000000 values",
        "mollify-2e6": "error: epsilon must lie in (0, 1e6), got 2000000.0",
        "not-parabolic-2d": "error: coefficients are not parabolic at t=0.0: the smallest "
                            "eigenvalue of 2a - sigma sigma^T is -1.000e+00 < 0",
    }

    @staticmethod
    def run(tmp_path, capsys, sub, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "runs"
        rc = cli.main([sub, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        return rc, err, out

    @pytest.mark.parametrize("sub, text", [
        ("run-spde", HEAT.replace("x_min = -8", "x_min = abc")),
        ("run-spde", HEAT.replace("n = 128", "n = lots")),
        ("run-spde", HEAT.replace("x_min = -8", "x_min = -8 -8 -8")),
        ("picard", PICARD_CONFIG.replace("scale=0.1", "scale=abc")),
        ("picard", PICARD_CONFIG.replace("sin_of_u:scale=0.1",
                                         "independent:f=gaussian:amp=1,width=abc")),
        ("run-spde", HEAT.replace("width=0.5", "widht=0.1")),
        ("run-spde", HEAT.replace("a = constant:0.5", "a = constant:0.5,valu=3")),
        ("run-spde", HEAT.replace("a = constant:0.5", "a = pwlinear:ys=1 2")),
        ("run-spde", HEAT.replace("a = constant:0.5",
                                  "a = sinusoidal:amp=0.1,offset=0.5,freq=1 2")),
        ("run-spde", HEAT.replace("a = constant:0.5", "a = constant:0.5 0.7")),
        ("run-spde", HEAT.replace("width=0.5", "width=0.5,dim=2")),
        ("picard", PICARD_CONFIG.replace("t_end = 0.1", "t_end = 0.01\noutput_times = 0.02")),
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = 0.05\noutput_times = abc")),
        ("run-spde", HEAT.replace("dt = 1e-3", "dt = nan")),
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = inf")),
        ("run-spde", HEAT.replace("L = 1", "L = 0")),
        ("run-spde", HEAT.replace("L = 1", "L = -1")),
        ("run-spde", HEAT.replace("seed = 0", "seed = -1")),
        ("run-spde", HEAT.replace("[initial]\nu0 = gaussian:amp=1,width=0.5\n", "")),
        ("run-spde", HEAT.replace("[coefficients]\nL = 1\na = constant:0.5\n", "")),
        ("picard", PICARD_CONFIG.replace("[coefficients]\nL = 1\na = constant:0.5\n", "")),
        ("run-spde", HEAT.replace("a = constant:0.5", "a = constant:0.5\na11 = constant:1")),
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = 0.05\noutput_times = -0.01 0.05")),
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = 0.05\noutput_times = 0.05 0.05")),
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = 0.05\noutput_times = 0.01 0.06")),
        ("run-spde", HEAT.replace("t_end = 0.05", "t_end = 0.05\noutput_times = 0.01 0.02")),
        ("run-filter", acceptance.FILTER_CONFIG.replace("R = 1.0", "R = 1.0\nt_end = -1")),
        ("run-filter", acceptance.FILTER_CONFIG.replace("R = 1.0", "R = 1.0\nprior_var = -1")),
        ("run-filter", FILTER_CONFIG.replace("t_end = 0.25", "t_end = -1")),
        ("run-filter", FILTER_CONFIG.replace("dim = 1", "dim = 2")),
        ("run-filter", FILTER_CONFIG.replace("R = 1.0", "R = 1.0\nn_particles = 5")),
        ("run-filter", FILTER_CONFIG.replace("R = 1.0", "R = 1.0\nn_particles = -5")),
        ("picard", PICARD_CONFIG.replace("tol = 1e-8", "tol = 0")),
        ("picard", PICARD_CONFIG.replace("tol = 1e-8", "tol = -1e-8")),
        ("picard", PICARD_CONFIG.replace("tol = 1e-8", "tol = 1e-8\nmax_iter = 0")),
        ("picard", PICARD_CONFIG.replace("scale=0.1", "scale=nan")),
        ("picard", PICARD_CONFIG.replace("sin_of_u:scale=0.1", "linear_in_u:coeff=inf")),
        ("run-spde", OVERSIZED),
        ("picard", OVERSIZED),
        ("run-spde", MOLLIFY_2E6),
        ("run-spde", NOT_PARABOLIC_2D),
    ], ids=["x_min-abc", "n-lots", "x_min-3-entries", "picard-scale-abc",
            "picard-independent-width-abc", "field-unknown-parameter",
            "constant-unknown-parameter", "pwlinear-missing-knots",
            "field-vector-too-long", "scalar-parameter-given-vector",
            "field-parameter-named-dim", "picard-output-time-past-path",
            "output-times-abc", "dt-nan", "t_end-inf", "L-0", "L-negative",
            "seed-negative", "no-initial-u0", "run-spde-no-coefficients",
            "picard-no-coefficients", "a11-in-1d", "output-time-negative",
            "output-time-repeated", "output-time-past-t_end",
            "last-output-time-before-t_end", "filter-t_end-negative",
            "filter-prior-var-negative",
            "run-filter-t_end-negative", "run-filter-2d", "n_particles-5",
            "n_particles-negative", "picard-tol-0", "picard-tol-negative",
            "picard-max_iter-0", "picard-scale-nan", "picard-coeff-inf",
            "run-spde-history-too-large", "picard-history-too-large", "mollify-2e6",
            "not-parabolic-2d"])
    def test_bad_config_exits_1_without_traceback(self, tmp_path, capsys, request,
                                                  sub, text):
        rc, err, out = self.run(tmp_path, capsys, sub, text)
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        case = request.node.callspec.id
        if case in self.MESSAGES:
            assert err == self.MESSAGES[case] + "\n"
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("name", ["missing.cfg", "a-directory", "binary.cfg"])
    def test_unreadable_config_exits_1_naming_the_path(self, tmp_path, capsys, name):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe[run]\n")
        config = tmp_path / name
        out = tmp_path / "runs"
        rc = cli.main(["run-spde", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: cannot read config {config}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        PICARD_CONFIG.replace("scale=0.1", "scale=abc"),
        PICARD_CONFIG.replace("tol = 1e-8", "tol = 1e-30\nmax_iter = 2"),
    ], ids=["bad-source", "no-convergence"])
    def test_failed_picard_run_leaves_no_run_dir(self, tmp_path, capsys, text):
        rc, err, out = self.run(tmp_path, capsys, "picard", text)
        assert rc == 1 and err.startswith("error: ")
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("sub, text, section", [
        *[pytest.param(sub, base + SECTIONS[name], f"[{name}]", id=f"{sub}-{name}")
          for sub, base, names in [
              ("run-filter", FILTER_CONFIG, ["coefficients", "initial", "picard"]),
              ("run-spde", HEAT, ["filter", "picard"]),
              ("picard", PICARD_CONFIG, ["filter"]),
              ("sweep-commutator", SWEEP_CONFIG, list(SECTIONS))]
          for name in names],
        pytest.param("run-filter", FILTER_CONFIG.replace(
            "t_end = 0.25", "t_end = 0.25\noutput_times = 0.1 0.25"), "output_times",
            id="run-filter-output_times"),
        *[pytest.param(sub, base.replace("\n\n[grid]", "\nparticle_seed = 7\n\n[grid]", 1),
                       "particle_seed", id=f"{sub}-particle_seed")
          for sub, base in [("run-spde", HEAT), ("picard", PICARD_CONFIG),
                            ("sweep-commutator", SWEEP_CONFIG)]],
    ])
    def test_input_the_command_does_not_read_is_refused(self, tmp_path, capsys,
                                                         sub, text, section):
        rc, err, out = self.run(tmp_path, capsys, sub, text)
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sub in err and section in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_rerun_replaces_run_dir(self, tmp_path, capsys):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(HEAT)
        out = tmp_path / "runs"
        for _ in range(2):
            assert cli.main(["run-spde", "--config", str(cfg), "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        assert capsys.readouterr().out.split() == [str(run_dir)] * 2
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json", "series.csv", "trajectory.csv"]

    @pytest.mark.parametrize("only", ["2,x", "13"])
    def test_bad_check_subset_exits_1(self, tmp_path, capsys, only):
        rc = cli.main(["check", "--only", only, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


# -- fuzzed config text: parse_config returns a bundle or a typed error ------

ACCEPTANCE_CONFIGS = {"heat": acceptance.HEAT_CONFIG, "filter": acceptance.FILTER_CONFIG,
                      "picard": acceptance.PICARD_CONFIG, "sweep": acceptance.SWEEP_CONFIG}
ALL_KEYS = sorted(set().union(*filter(None, _SECTION_KEYS.values()), {"L", "mollify"},
                              *(_leaves(_coefficient_keys(d, 2).values()) for d in (1, 2))))
# integers stay small so that a drawn grid size stays cheap to validate
TOKENS = st.one_of(
    st.integers(-5, 400).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", "", "abc", "1 2", "0.0 abc",
                     "zero", "constant:0.5", "gaussian:amp=1,width=0.5",
                     "affine:c0=1,slope=-0.5", "sinusoidal:amp=0.1,offset=0.5,freq=1 2",
                     "pwlinear:xs=0 1,ys=1 2", "constant:nan", "gaussian:width=-1"]))
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 99)),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("value"), st.integers(0, 99), TOKENS),
    st.tuples(st.just("insert"), st.integers(0, 99), st.sampled_from(ALL_KEYS), TOKENS))


def mutate(text, mutations):
    lines = text.splitlines()
    for kind, i, *rest in mutations:
        i %= len(lines) + (kind == "insert")
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = rest[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "value" and "=" in lines[i]:
            lines[i] = f"{lines[i].partition('=')[0]}= {rest[0]}"
        elif kind == "insert":
            lines.insert(i, f"{rest[0]} = {rest[1]}")
    return "\n".join(lines) + "\n"


def value_of(key, config, token):
    """The mutation that sets ``key`` of an acceptance config to ``token``."""
    lines = ACCEPTANCE_CONFIGS[config].splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    return config, [("value", index, token)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ACCEPTANCE_CONFIGS)), st.lists(MUTATIONS, min_size=1, max_size=3))
@example(*value_of("t_end", "heat", "0.1\noutput_times = abc"))
@example(*value_of("dt", "heat", "nan"))
@example(*value_of("t_end", "picard", "inf"))
@example(*value_of("L", "heat", "0"))
def test_fuzzed_config_parses_or_raises_a_typed_error(config, mutations):
    try:
        parse_config(mutate(ACCEPTANCE_CONFIGS[config], mutations))
    except SpdelabError:
        pass

