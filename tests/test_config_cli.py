import json

import numpy as np
import pytest

from spdelab import cli
from spdelab.acceptance import PICARD_CONFIG
from spdelab.config import parse_config
from spdelab.errors import ParseError, ValidationError
from spdelab.manifest import RunManifest

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
            cli._parse_source(spec, 1, 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_independent_source_takes_a_multi_parameter_field(self, d):
        # the field spec keeps its commas and takes the grid's dimension
        src = cli._parse_source("independent:f=gaussian:amp=2,width=0.5", 1, d)
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

    @pytest.mark.parametrize("source", ["independent:f=constant:0.1",
                                        "independent:f=gaussian:amp=1,width=0.5"])
    def test_picard_2d_with_independent_source(self, tmp_path, source):
        cfg = tmp_path / "p2.cfg"
        cfg.write_text(PICARD_CONFIG.replace("dim = 1", "dim = 2")
                       .replace("x_min = -8", "x_min = -3").replace("x_max = 8", "x_max = 3")
                       .replace("n = 128", "n = 24")
                       .replace("a = constant:0.5", "a11 = constant:0.5\na22 = constant:0.5")
                       .replace("sin_of_u:scale=0.1", source))
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


class TestCliErrors:
    """Bad input exits 1 with one 'error:' line and no traceback, and a run
    that fails leaves nothing under --out."""

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
    ], ids=["x_min-abc", "n-lots", "x_min-3-entries", "picard-scale-abc",
            "picard-independent-width-abc"])
    def test_bad_config_exits_1_without_traceback(self, tmp_path, capsys, sub, text):
        rc, err, out = self.run(tmp_path, capsys, sub, text)
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("text", [
        PICARD_CONFIG.replace("scale=0.1", "scale=abc"),
        PICARD_CONFIG.replace("tol = 1e-8", "tol = 1e-30\nmax_iter = 2"),
    ], ids=["bad-source", "no-convergence"])
    def test_failed_picard_run_leaves_no_run_dir(self, tmp_path, capsys, text):
        rc, err, out = self.run(tmp_path, capsys, "picard", text)
        assert rc == 1 and err.startswith("error: ")
        assert list(out.iterdir()) == []

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
