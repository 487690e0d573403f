"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fracuq
from fracuq import estimator
from fracuq.cli import _write_csv, build_run_config, load_config, main, write_field_dump
from fracuq.errors import ConfigurationError, UsageError
from fracuq.fem import load_mesh
from fracuq.tfrac import fast_history_kernel, graded_mesh
from oracles import read_field_dump


def child_env():
    """The environment of a child process that imports this fracuq, with one BLAS thread."""
    src = os.path.dirname(os.path.dirname(fracuq.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(paths))


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
        assert cfg["estimator"]["fast_history"] is False
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

    def test_levels_by_dofs_array_required(self, tmp_path):
        path = tmp_path / "u.bin"
        with pytest.raises(ConfigurationError, match="levels, dofs"):
            write_field_dump(str(path), np.ones(4))
        assert not path.exists()


def per_value_csv(header, rows) -> str:
    """A table as it was written value by value: an int by str, anything else by .17g."""
    def cell(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")
    return ",".join(header) + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


class TestCsvColumns:
    """The column formatter writes what the per-value rule wrote."""

    def written(self, tmp_path, header, columns) -> str:
        path = tmp_path / "t.csv"
        _write_csv(str(path), header, columns)
        return path.read_text()

    def test_integer_and_float_columns(self, tmp_path):
        floats = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, 2.0 ** -1023,
                           0.1 + 0.2, 1.2345678901234567e-7, np.nan, 1.0, 2.0 ** 60])
        ints = np.array([0, -3, 2 ** 62, 7, 1, 10 ** 17, -1, 2, 3, 4, 5])
        text = self.written(tmp_path, ["i", "x"], [ints, floats])
        assert text == per_value_csv(["i", "x"], [(int(i), x) for i, x in zip(ints, floats)])
        assert text.split("\n")[1:8] == ["0,0", "-3,-0", "4611686018427387904,inf",
                                         "7,-inf", "1,4.9406564584124654e-324",
                                         "100000000000000000,1.1125369292536007e-308",
                                         "-1,0.30000000000000004"]

    def test_table_with_nan_first_rates(self, tmp_path):
        # the first row of a convergence table has no coarser N to take a rate against
        n = np.array([4, 8, 16])
        err = np.array([0.1, 0.03, 0.008])
        rate = np.append(np.nan, np.log(err[:-1] / err[1:]) / np.log(2.0))
        text = self.written(tmp_path, ["N", "err", "rate"], [n, err, rate])
        assert text == per_value_csv(["N", "err", "rate"], list(zip(n.tolist(), err, rate)))
        assert text.split("\n")[1] == "4,0.10000000000000001,nan"

    def test_command_files_follow_the_per_value_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run = build_run_config(load_config(cfg))
        assert main(["estimate", "--config", cfg]) == 0
        s = estimator.estimate(run)
        rows = [(n, s.t[n], s.mean[n], s.std[n], s.mean[n] - 3.0 * s.std[n],
                 s.mean[n] + 3.0 * s.std[n]) for n in range(s.t.size)]
        assert (tmp_path / "out" / "t-series.csv").read_text() == per_value_csv(
            ["n", "t", "mean", "std", "lo3sig", "hi3sig"], rows)
        assert main(["refine", "--config", cfg, "--levels", "3"]) == 0
        study = estimator.spacetime_refinement_study(run, levels=3)
        rows = [(i, study.n_div[i], study.n_steps[i], err,
                 study.ratios[i - 1] if i else np.nan, study.orders[i - 1] if i else np.nan)
                for i, err in enumerate(study.errors)]
        assert (tmp_path / "out" / "t-refine.csv").read_text() == per_value_csv(
            ["level", "n_div", "n_steps", "err_L2J", "ratio", "order"], rows)


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

    def test_stdout_equals_the_out_file(self, tmp_path, capsys):
        gv, out = str(tmp_path / "gen.txt"), tmp_path / "pts.csv"
        assert main(["points", "--m", "3", "--z", "2", "--genvec", gv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["points", "--m", "3", "--z", "2", "--genvec", gv]) == 0
        assert capsys.readouterr().out == out.read_text()

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
        for y in ("0.9", "nan"):
            assert main(["solve", "--config", cfg, "--y", y]) == 1
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


class TestClosedStdout:
    """A reader that closes stdout before the first line (``| head -0``),
    with stdout buffered or unbuffered: the command exits 0 with nothing on
    stderr, and every file is written all the same."""

    # each command's argv, then the files it writes
    ARGV = {
        "mesh": (["mesh", "--ndiv", "4", "--out", "{out}/mesh.txt"], ["mesh.txt"]),
        "points": (["points", "--m", "3", "--z", "4", "--genvec", "{out}/rule.txt",
                    "--out", "{out}/points.csv"], ["points.csv", "rule.txt"]),
        "solve": (["solve", "--config", "{cfg}", "--out", "{out}",
                   "--dump-fields", "{out}/fields.bin"],
                  ["fields.bin", "t-resolved-config.json", "t-trajectory.csv"]),
        "estimate": (["estimate", "--config", "{cfg}", "--out", "{out}"],
                     ["t-resolved-config.json", "t-series.csv", "t-series.gp"]),
        "table": (["table", "--config", "{cfg}", "--out", "{out}", "--N", "2,4", "--Nref", "8"],
                  ["t-resolved-config.json", "t-table.csv"]),
        "truncation": (["truncation", "--config", "{cfg}", "--out", "{out}",
                        "--z", "1,2", "--zref", "3"],
                       ["t-resolved-config.json", "t-truncation.csv"]),
        "refine": (["refine", "--config", "{cfg}", "--out", "{out}", "--levels", "2"],
                   ["t-refine.csv", "t-resolved-config.json"]),
        "check": (["check", "--config", "{cfg}", "--out", "{out}"], ["t-resolved-config.json"]),
    }

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_same_files_as_with_stdout_open(self, tmp_path, command, unbuffered):
        cfg = write_config(tmp_path)
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        template, expected = self.ARGV[command]
        files = {}
        for name in ("open", "closed"):
            out = tmp_path / name
            out.mkdir()
            argv = [a.format(cfg=cfg, out=out) for a in template]
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run([sys.executable, "-m", "fracuq.cli"] + argv,
                                      stdout=subprocess.PIPE if name == "open" else write,
                                      stderr=subprocess.PIPE, text=True, env=env, timeout=120)
            finally:
                os.close(write)
            assert proc.returncode == 0 and proc.stderr == "", (name, proc.stderr)
            files[name] = sorted(os.listdir(out))
        assert files["open"] == expected
        assert files["closed"] == files["open"]


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

    def test_truncation_keeps_zero_out_of_the_fit(self, tmp_path, capfd):
        # z = 0 gets its CSV row; log 0 never reaches the fit, so neither a
        # traceback nor LAPACK's messages on stderr
        cfg = write_config(tmp_path)
        assert main(["truncation", "--config", cfg, "--z", "0,1,2", "--zref", "3"]) == 0
        lines = (tmp_path / "out" / "t-truncation.csv").read_text().strip().split("\n")
        assert [ln.split(",")[0] for ln in lines] == ["z", "0", "1", "2"]
        assert float(lines[1].split(",")[1]) > 0
        out, err = capfd.readouterr()
        assert err == "" and "fitted slope = nan" not in out

    def test_refine(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["refine", "--config", cfg, "--levels", "2"]) == 0
        lines = (tmp_path / "out" / "t-refine.csv").read_text().strip().split("\n")
        assert lines[0] == "level,n_div,n_steps,err_L2J,ratio,order"
        assert len(lines) == 2


class TestRuleBuilding:
    """A CBC rule is built where points are drawn, never with the config."""

    @pytest.fixture
    def cbc_calls(self, monkeypatch):
        calls = []
        cbc = estimator.cbc_rule

        def counted(b, m, *args, **kwargs):
            calls.append(m)
            return cbc(b, m, *args, **kwargs)

        monkeypatch.setattr(estimator, "cbc_rule", counted)
        return calls

    def test_construction_builds_none(self, tmp_path, cbc_calls):
        run = build_run_config(load_config(write_config(tmp_path)))
        assert run.qmc_rule() is None
        assert cbc_calls == []

    @pytest.mark.parametrize("argv, calls", [
        (["solve"], []),
        (["check"], []),
        (["refine", "--levels", "2"], []),
        (["estimate"], [2]),
        (["truncation", "--z", "1,2", "--zref", "3"], [2]),
        # the desk-table shape: N = 8, 16 and the reference 32
        (["table", "--N", "8,16", "--Nref", "32"], [3, 4, 5]),
    ], ids=["solve", "check", "refine", "estimate", "truncation", "table"])
    def test_calls_per_command(self, tmp_path, capsys, cbc_calls, argv, calls):
        cfg = write_config(tmp_path)
        assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 0
        assert cbc_calls == calls


class TestThreads:
    """--threads beats estimator.threads, which beats FRACUQ_THREADS."""

    @staticmethod
    def echoed(tmp_path, argv=(), **sections):
        cfg = write_config(tmp_path, **sections)
        assert main(["check", "--config", cfg, *argv]) == 0
        echo = tmp_path / "out" / "t-resolved-config.json"
        return json.loads(echo.read_text())["estimator"]["threads"]

    def test_environment_when_nothing_else_is_set(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FRACUQ_THREADS", raising=False)
        assert self.echoed(tmp_path) == 1
        monkeypatch.setenv("FRACUQ_THREADS", "3")
        assert self.echoed(tmp_path) == 3

    def test_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACUQ_THREADS", "3")
        assert self.echoed(tmp_path, estimator={"threads": 5}) == 5
        assert self.echoed(tmp_path, ["--threads", "2"], estimator={"threads": 5}) == 2
        assert self.echoed(tmp_path, ["--threads", "2"]) == 2

    def test_bad_environment_value_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACUQ_THREADS", "abc")
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("error[") == 1 and err.count("\n") == 1
        assert err.startswith("error[E_CONFIG]: FRACUQ_THREADS = 'abc'")


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
        assert "exponential sum" not in out
        # with fast_history, the term count of the kernel the solver builds
        terms = fast_history_kernel(graded_mesh(1.0, 4, 4.0), 0.5, 1e-8).nodes.size
        assert main(["check", "--config", cfg, "--set", "estimator.fast_history=true"]) == 0
        assert f"exponential sum: {terms} terms\n" in capsys.readouterr().out
        # below 3 levels the solver keeps the direct sum
        assert main(["check", "--config", cfg, "--set", "estimator.fast_history=true",
                     "--set", "time.n_steps=2"]) == 0
        assert "exponential sum: 0 terms\n" in capsys.readouterr().out

    def test_bounds_checked_off_the_declaring_grid(self, tmp_path, capsys):
        # kappa = 0.6 + 0.1 x1 x2 + y sin(3 pi x1) sin(3 pi x2) is lowest near
        # x = (1/6, 1/6), which the 129^2 grid of the declared bounds misses
        # and the 13^2 grid of the n_div = 6 mesh holds
        field = {"type": "sine-table", "kappa0_const": 0.6, "kappa0_xy": 0.1,
                 "coeffs": [[3, 3, 1.0]]}
        cfg = write_config(tmp_path, field=field)
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "kappa observed range on the 13^2 grid: [0.102778," in out
        assert "bounds check: observed range exceeds the declared bounds" in out
        # a loaded mesh is checked on the 128^2 grid, which shares only its
        # corners with the declaring grid
        mesh_path = tmp_path / "mesh.txt"
        assert main(["mesh", "--ndiv", "6", "--out", str(mesh_path)]) == 0
        assert main(["check", "--config", cfg, "--set", f"space.mesh_path={mesh_path}"]) == 0
        out = capsys.readouterr().out
        assert "on the 128^2 grid" in out and "exceeds the declared bounds" in out

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

    def test_config_not_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"field": {"q": 2},')
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[E_CONFIG]: config is not valid JSON")

    def test_sample_count_below_one_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["table", "--config", cfg, "--N", "0,2", "--Nref", "4"]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")
        assert not (tmp_path / "out" / "t-table.csv").exists()

    @pytest.mark.parametrize("sets", [["time.gamma=0.5"],
                                      ["estimator.fast_history=true", "estimator.fast_eps=-1"],
                                      ["estimator.fast_history=true", "estimator.fast_eps=1e300"],
                                      ["qmc.beta=0"],
                                      # the default grading 2/alpha, too steep for floats
                                      ["model.alpha=0.01", "time.gamma=null",
                                       "time.n_steps=50"],
                                      ["model.alpha=0.03", "time.gamma=null",
                                       "time.n_steps=400"],
                                      # the weights divide by steps up to T: T^2 overflows
                                      ["model.T=1e200"],
                                      ["field.type=sine-table", "field.kappa0_const=0.1"],
                                      ["field.type=sine-table", "field.kappa0_const=0.1",
                                       'field.coeffs=[["a", 1, 2]]']])
    @pytest.mark.parametrize("command", ["check", "estimate"])
    def test_check_refuses_what_a_run_refuses(self, tmp_path, capsys, sets, command):
        cfg = write_config(tmp_path)
        argv = [command, "--config", cfg]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")

    @pytest.mark.parametrize("command", ["check", "estimate"])
    def test_small_alpha_takes_a_small_exponential_sum(self, tmp_path, capsys, command):
        # the sum's size does not grow like 1/alpha: alpha = 0.02 runs on the fast path
        cfg = write_config(tmp_path, model={"alpha": 0.02}, time={"n_steps": 50},
                           estimator={"fast_history": True})
        assert main([command, "--config", cfg]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["check", "estimate"])
    def test_check_refuses_the_exponential_sum_a_run_refuses(self, tmp_path, capsys, command):
        # eps = 1e-15 lies below what float64 sums reach: past 4000 terms, the budget
        cfg = write_config(tmp_path, model={"alpha": 0.02}, time={"n_steps": 50},
                           estimator={"fast_history": True, "fast_eps": 1e-15})
        assert main([command, "--config", cfg]) == 1
        self.assert_one_error_line(capsys, "E_TOL")

    @pytest.mark.parametrize("argv, code, status", [
        (["table", "--N", "2,x", "--Nref", "8"], "E_USAGE", 2),
        (["refine", "--levels", "1"], "E_CONFIG", 1),
        (["check", "--out", "{config}"], "E_USAGE", 2),         # a file, not a directory
        # a repeated N made a zero step factor, a repeated z a singular fit
        (["table", "--N", "2,2", "--Nref", "8"], "E_CONFIG", 1),
        (["truncation", "--z", "1,1", "--zref", "3"], "E_CONFIG", 1),
    ], ids=["N-not-integers", "one-level", "out-is-a-file", "N-repeated", "z-repeated"])
    def test_command_line_refused_in_one_line(self, tmp_path, capsys, argv, code, status):
        cfg = write_config(tmp_path)
        argv = [argv[0], "--config", cfg] + [a.format(config=cfg) for a in argv[1:]]
        assert main(argv) == status
        self.assert_one_error_line(capsys, code)

    def test_missing_directory_writes_no_file(self, tmp_path, capsys):
        # every file's directory is checked before the first write, so neither
        # the resolved-config echo nor the trajectory is left behind
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--dump-fields", str(tmp_path / "nodir" / "f.bin")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[E_USAGE]")
        assert not out.exists()

    @pytest.mark.parametrize("prefix", ["a/b", "", f"a{os.sep}b", "/abs"])
    @pytest.mark.parametrize("argv", [["check"], ["solve"], ["estimate"],
                                      ["table", "--N", "2", "--Nref", "4"],
                                      ["truncation", "--z", "1", "--zref", "2"],
                                      ["refine", "--levels", "2"]])
    def test_prefix_that_is_a_path_refused(self, tmp_path, capsys, argv, prefix):
        cfg = write_config(tmp_path)
        out = tmp_path / "d"
        assert main([argv[0], "--config", cfg, "--out", str(out),
                     "--set", f"output.prefix={prefix}"] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[E_CONFIG]: output.prefix")
        assert not out.exists()

    @pytest.mark.parametrize("text, code", [
        ("", "E_VALIDATE"),
        ("1 2 1 1\nP 1 1 1\ng 1\n", "E_CONFIG"),
        ("2 2 1 1\nP 1 1 0 1\ng 1\n", "E_VALIDATE"),       # degree 3, not m = 2
        ("2 2 1 1\nP 1 1 1\ng 0\n", "E_VALIDATE"),
    ], ids=["empty", "base-1", "modulus-degree", "zero-generator"])
    def test_malformed_genvec_exit_1(self, tmp_path, capsys, text, code):
        gv = tmp_path / "gen.txt"
        gv.write_text(text)
        assert main(["points", "--m", "2", "--beta", "1", "--z", "1", "--genvec", str(gv)]) == 1
        self.assert_one_error_line(capsys, code)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["check", "estimate"])
    def test_steep_grading_refused_in_one_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, model={"alpha": 0.01}, time={"n_steps": 50, "gamma": None})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[E_CONFIG]")
        assert "gamma = 200" in err and "n_steps = 50" in err and "time.gamma" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_steepest_default_grading_at_50_steps_gives_a_finite_mean(self, tmp_path, capsys):
        # alpha = 0.025 grades by t_n = (n tau)^80: the first steps differ by 2^80
        cfg = write_config(tmp_path, model={"alpha": 0.025}, field={"q": 6},
                           time={"n_steps": 50, "gamma": None}, qmc={"m": 2, "beta": 3})
        assert main(["estimate", "--config", cfg]) == 0
        mean = np.loadtxt(tmp_path / "out" / "t-series.csv", delimiter=",", skiprows=1)[-1, 2]
        assert mean == pytest.approx(0.2770, abs=5e-4)

    def test_non_integer_config_value_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qmc={"m": "abc"})
        assert main(["check", "--config", cfg]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")

    @pytest.mark.parametrize("item", ["space.mesh_path=0", "qmc.genvec=0"])
    @pytest.mark.parametrize("command", ["check", "estimate"])
    def test_number_for_a_path_does_not_read_stdin(self, tmp_path, capsys, command, item):
        # open(0) reads file descriptor 0: make it an empty pipe, non-blocking
        # so that a read which would block fails at once instead of hanging
        cfg = write_config(tmp_path)
        read, write = os.pipe()
        os.set_blocking(read, False)
        saved = os.dup(0)
        os.dup2(read, 0)
        try:
            code = main([command, "--config", cfg, "--set", item])
        finally:
            os.dup2(saved, 0)
            for fd in (saved, read, write):
                os.close(fd)
        assert code == 1
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

    def test_non_prime_base_points_exit_1(self, tmp_path, capsys):
        gv = tmp_path / "gen.txt"
        assert main(["points", "--b", "4", "--m", "3", "--z", "2", "--genvec", str(gv)]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")
        assert not gv.exists()

    def test_non_prime_genvec_base_exit_1(self, tmp_path, capsys):
        # over Z/4 the modulus' leading coefficient 2 has no inverse
        gv = tmp_path / "gen.txt"
        gv.write_text("4 2 1 1\nP 1 0 2\ng 1\n")
        assert main(["points", "--b", "4", "--m", "2", "--beta", "1", "--z", "1",
                     "--genvec", str(gv)]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")

    def test_base_one_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg, "--set", "qmc.b=1"]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")

    def test_digit_budget_checked_before_cbc(self, tmp_path, capsys):
        # 3 * 30 binary digits exceed float64's 53 before a 2^30-point search
        gv = tmp_path / "gen.txt"
        assert main(["points", "--m", "30", "--beta", "3", "--z", "1",
                     "--genvec", str(gv)]) == 1
        self.assert_one_error_line(capsys, "E_CONFIG")
        assert not gv.exists()

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
        # the parameter range: its declared lower bound is -0.2, so the run
        # is refused before any sample, and no series is written
        cfg = tmp_path / "ill.json"
        cfg.write_text(json.dumps({
            "field": {"type": "sine-table", "kappa0_const": 0.05, "coeffs": [[1, 1, 0.5]]},
            "space": {"n_div": 8}, "time": {"n_steps": 20}, "qmc": {"m": 3}}))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys, "E_DOMAIN")
        assert not list(out.glob("*-series.csv"))

    @staticmethod
    def run_capped(argv, timeout):
        """Run the fracuq command in a child process whose address space is
        capped at 4 GB (never in this one); one BLAS thread keeps the child's
        own reservations small.  Returns its one stderr line."""
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (4_000_000_000, 4_000_000_000))\n"
                 "from fracuq.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", child] + argv,
                              capture_output=True, text=True, env=child_env(), timeout=timeout)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[E_CONFIG]"), proc.stderr
        assert "Traceback" not in proc.stderr
        return lines[0]

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_oversized_run_is_one_error_line(self, tmp_path):
        # the direct history's weight matrix alone would take 29.1 TiB
        cfg = write_config(tmp_path, space={"n_div": 4}, time={"n_steps": 2_000_000},
                           qmc={"m": 1})
        line = self.run_capped(["estimate", "--config", cfg], timeout=300)
        assert "n_steps = 2000000" in line and "estimator.fast_history" in line

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.parametrize("command", ["check", "estimate"])
    def test_unholdable_field_is_one_error_line(self, tmp_path, command):
        # q = 100000 has 5e9 modes: the first array of them fails at once, and
        # the line names field.q, not the run's history
        cfg = write_config(tmp_path, field={"q": 100_000})
        line = self.run_capped([command, "--config", cfg], timeout=30)
        assert "field.q = 100000" in line and "fast_history" not in line

    def test_sample_with_nonpositive_element_diffusivity_fails(self, tmp_path, capsys):
        # sin(128 pi x1) vanishes at every node of the 129-point bounds grid,
        # so the declared lower bound is 0.05 > 0; but on the n_div = 3 mesh
        # the element averages of kappa dip to -0.085 for half the samples,
        # which must fail the run instead of entering the average
        cfg = tmp_path / "ill.json"
        cfg.write_text(json.dumps({
            "field": {"type": "sine-table", "kappa0_const": 0.05,
                      "coeffs": [[128, 1, 0.5]]},
            "space": {"n_div": 3}, "time": {"n_steps": 20}, "qmc": {"m": 3}}))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error[") == 1
        assert err.startswith("error[E_SOLVER]: 4 of 8 trajectory solves failed (sample 0:")
        assert "(sample 0: element-averaged diffusivity <= 0 (min -0.085);" in err
        assert not list(out.glob("*-series.csv"))

    @pytest.mark.parametrize("argv, field, code", [
        (["solve", "--y", "0.9"], None, "E_CONFIG"),
        (["table", "--N", "2,2", "--Nref", "8"], None, "E_CONFIG"),
        (["solve", "--y", "-0.5"], [[128, 1, 0.5]], "E_SOLVER"),
        (["estimate"], [[128, 1, 0.5]], "E_SOLVER"),
    ], ids=["solve-y", "table-N", "solve-ill-posed", "estimate-ill-posed"])
    def test_refused_run_writes_no_file(self, tmp_path, capsys, argv, field, code):
        # the resolved-config echo too waits for the run to succeed; the
        # ill-posed field is that of the two tests around this one
        sections = {} if field is None else {
            "field": {"type": "sine-table", "kappa0_const": 0.05, "coeffs": field},
            "space": {"n_div": 3}, "time": {"n_steps": 20}, "qmc": {"m": 3}}
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "refused"
        assert main(argv[:1] + ["--config", cfg, "--out", str(out)] + argv[1:]) == 1
        self.assert_one_error_line(capsys, code)
        assert not out.exists()

    def test_solve_names_the_cause_that_estimate_names(self, tmp_path, capsys):
        # the field of the test above, at its sample 0
        cfg = tmp_path / "ill.json"
        cfg.write_text(json.dumps({
            "field": {"type": "sine-table", "kappa0_const": 0.05,
                      "coeffs": [[128, 1, 0.5]]},
            "space": {"n_div": 3}, "time": {"n_steps": 20}}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--y", "-0.5"]) == 1
        err = capsys.readouterr().err
        assert err == "error[E_SOLVER]: element-averaged diffusivity <= 0 (min -0.085)\n"
