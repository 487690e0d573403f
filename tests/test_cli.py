"""Tests for the command-line front end."""

import json
import os

import numpy as np
import pytest

from fracuq.cli import (load_config, main, read_field_dump, write_field_dump)
from fracuq.errors import ConfigurationError, UsageError
from fracuq.fem import load_mesh


def write_config(tmp_path, **sections):
    cfg = {
        "model": {"alpha": 0.5, "T": 1.0},
        "field": {"type": "example", "q": 2},
        "space": {"n_div": 6},
        "time": {"n_steps": 4, "gamma": 4.0},
        "qmc": {"m": 2, "beta": 2},
        "output": {"dir": str(tmp_path / "out"), "prefix": "t"},
    }
    for name, sub in sections.items():
        cfg.setdefault(name, {}).update(sub)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg["qmc"]["b"] == 2
        assert cfg["estimator"]["method"] == "auto"
        assert cfg["model"]["alpha"] == 0.5

    def test_missing_file_is_usage_error(self):
        with pytest.raises(UsageError):
            load_config("/nonexistent/run.json")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"alpa": 0.5}}))
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": {}}))
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, ["qmc.m=5", "output.prefix=x"])
        assert cfg["qmc"]["m"] == 5
        assert cfg["output"]["prefix"] == "x"
        with pytest.raises(ConfigurationError):
            load_config(path, ["qmc.bogus=1"])
        with pytest.raises(UsageError):
            load_config(path, ["qmc.m"])


class TestFieldDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(5, 9))
        path = str(tmp_path / "u.bin")
        write_field_dump(path, u)
        assert os.path.getsize(path) == 16 + 8 * 45
        assert np.array_equal(read_field_dump(path), u)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "u.bin"
        path.write_bytes(b"nope" + b"\0" * 20)
        with pytest.raises(ConfigurationError):
            read_field_dump(str(path))

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "u.bin")
        write_field_dump(path, np.ones((2, 3)))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(ConfigurationError):
            read_field_dump(path)


class TestMeshCommand:
    def test_writes_loadable_mesh(self, tmp_path, capsys):
        out = str(tmp_path / "mesh.txt")
        assert main(["mesh", "--ndiv", "4", "--out", out]) == 0
        assert "9 interior dofs" in capsys.readouterr().out
        mesh = load_mesh(out)
        assert mesh.n_triangles == 32


class TestPointsCommand:
    def test_builds_and_reuses_genvec(self, tmp_path, capsys):
        gv = str(tmp_path / "gen.txt")
        out = str(tmp_path / "pts.csv")
        assert main(["points", "--m", "3", "--beta", "2", "--z", "3",
                     "--genvec", gv, "--out", out]) == 0
        with open(out) as fh:
            first = fh.read()
        assert "wrote generating vector" in capsys.readouterr().out
        assert main(["points", "--m", "3", "--beta", "2", "--z", "3",
                     "--genvec", gv, "--out", out]) == 0
        assert "wrote generating vector" not in capsys.readouterr().out
        with open(out) as fh:
            assert fh.read() == first
        lines = first.strip().split("\n")
        assert lines[0] == "j,x1,x2,x3"
        assert len(lines) == 9

    def test_genvec_mismatch(self, tmp_path, capsys):
        gv = str(tmp_path / "gen.txt")
        main(["points", "--m", "3", "--beta", "2", "--z", "3", "--genvec", gv])
        capsys.readouterr()
        assert main(["points", "--m", "4", "--beta", "2", "--z", "3",
                     "--genvec", gv]) == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err


class TestSolveCommand:
    def test_trajectory_csv_and_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        dump = str(tmp_path / "u.bin")
        assert main(["solve", "--config", cfg, "--y", "0.25,-0.25",
                     "--dump-fields", dump]) == 0
        out_dir = tmp_path / "out"
        csv = (out_dir / "t-trajectory.csv").read_text().strip().split("\n")
        assert csv[0] == "n,t,value"
        assert len(csv) == 6  # header + 5 levels
        u = read_field_dump(dump)
        assert u.shape == (5, 25)
        assert (out_dir / "t-resolved-config.json").exists()

    def test_y_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg, "--y", "0.9"]) == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert main(["solve", "--config", cfg, "--y", "0,0,0,0,0"]) == 1


class TestEstimateCommand:
    def test_series_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["estimate", "--config", cfg]) == 0
        out_dir = tmp_path / "out"
        lines = (out_dir / "t-series.csv").read_text().strip().split("\n")
        assert lines[0] == "n,t,mean,std,lo3sig,hi3sig"
        assert len(lines) == 6
        row = lines[-1].split(",")
        mean, std, lo, hi = map(float, row[2:])
        assert lo == pytest.approx(mean - 3 * std, rel=1e-12)
        assert hi == pytest.approx(mean + 3 * std, rel=1e-12)
        assert (out_dir / "t-series.gp").exists()

    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["estimate", "--config", cfg, "--threads", "1"])
        one = (tmp_path / "out" / "t-series.csv").read_bytes()
        main(["estimate", "--config", cfg, "--threads", "8"])
        eight = (tmp_path / "out" / "t-series.csv").read_bytes()
        assert one == eight

    def test_resolved_config_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["estimate", "--config", cfg, "--threads", "1"])
        out_dir = tmp_path / "out"
        first = (out_dir / "t-series.csv").read_bytes()
        echo = str(out_dir / "t-resolved-config.json")
        assert main(["estimate", "--config", echo]) == 0
        assert (out_dir / "t-series.csv").read_bytes() == first


class TestStudyCommands:
    def test_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["table", "--config", cfg, "--N", "4,8", "--Nref", "16"]) == 0
        lines = (tmp_path / "out" / "t-table.csv").read_text().strip().split("\n")
        assert lines[0] == "N,value_T,err_T,rate_T,err_L2J,rate_L2J"
        assert len(lines) == 3

    def test_truncation(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["truncation", "--config", cfg, "--z", "1,2", "--zref", "3"]) == 0
        lines = (tmp_path / "out" / "t-truncation.csv").read_text().strip().split("\n")
        assert lines[0] == "z,err_T"
        assert "slope" in capsys.readouterr().out

    def test_refine(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["refine", "--config", cfg, "--levels", "2"]) == 0
        lines = (tmp_path / "out" / "t-refine.csv").read_text().strip().split("\n")
        assert lines[0] == "level,n_div,n_steps,err_L2J,ratio,order"
        assert len(lines) == 2


class TestCheckCommand:
    def test_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "alpha = 0.5" in out
        assert "gamma = 4.0" in out
        assert "z = 3" in out
        assert "N = 4 (b = 2, m = 2, beta = 2)" in out
        assert "bounds check: ok" in out

    def test_override_changes_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg, "--set", "qmc.m=5"]) == 0
        assert "N = 32" in capsys.readouterr().out
        echoed = json.loads((tmp_path / "out" / "t-resolved-config.json").read_text())
        assert echoed["qmc"]["m"] == 5


class TestErrorPaths:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["estimate", "--config", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error[E_USAGE]")

    def test_bad_usage_exit_2(self, capsys):
        assert main(["table"]) == 2
        assert capsys.readouterr().err.startswith("error[E_USAGE]")

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": {"type": "bogus"}}))
        assert main(["check", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error[E_CONFIG]")

    @staticmethod
    def assert_one_error_line(capsys, code):
        err = capsys.readouterr().err
        assert err.count("error[") == 1
        assert err.startswith(f"error[{code}]")

    def test_non_integer_config_value_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qmc={"m": "abc"})
        assert main(["check", "--config", cfg]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")

    def test_non_numeric_override_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["estimate", "--config", cfg, "--set", "model.alpha=half"]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")

    def test_non_integer_genvec_coefficient_exit_1(self, tmp_path, capsys):
        gv = tmp_path / "gen.txt"
        gv.write_text("2 1 1 1\nP 1 x 0 1\ng 1\n")
        cfg = write_config(tmp_path, qmc={"m": 1, "beta": 1, "genvec": str(gv)})
        assert main(["estimate", "--config", cfg]) == 1
        self.assert_one_error_line(capsys, "E_VALIDATE")
        assert main(["points", "--m", "1", "--beta", "1", "--z", "1",
                     "--genvec", str(gv)]) == 1
        self.assert_one_error_line(capsys, "E_VALIDATE")

    def test_non_numeric_mesh_token_exit_1(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text("3\n0 0 1\n1 0 one\n0 1 1\n1\n0 1 2\n")
        cfg = write_config(tmp_path, space={"n_div": None, "mesh_path": str(mesh)})
        assert main(["check", "--config", cfg]) == 1
        self.assert_one_error_line(capsys, "E_VALIDATE")

    def test_non_numeric_y_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg, "--y", "0.1,x"]) == 2
        self.assert_one_error_line(capsys, "E_USAGE")

    def test_ill_posed_field_gives_no_average(self, tmp_path, capsys):
        # kappa = 0.05 + 0.5 y sin(pi x1) sin(pi x2) is negative for part of
        # the parameter range: those samples fail, and no series is written
        cfg = tmp_path / "ill.json"
        cfg.write_text(json.dumps({
            "field": {"type": "sine-table", "kappa0_const": 0.05, "coeffs": [[1, 1, 0.5]]},
            "space": {"n_div": 8}, "time": {"n_steps": 20}, "qmc": {"m": 3}}))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys, "E_SOLVER")
        assert not list(out.glob("*-series.csv"))
