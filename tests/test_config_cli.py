"""Config parsing/validation and end-to-end CLI contract tests."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparsepolyak.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from sparsepolyak.config import (
    ConfigError,
    default_s_grid,
    derived_n,
    load_config,
    parse_config_text,
    resolve_config,
    schema_text,
)

BASE_CONFIG = """
# small linear instance for fast end-to-end checks
design.d = 120
truth.s_star = 5
design.n_factor = 6
noise.family = linear
noise.sigma = 0.5
operator.s = 10
run.max_iters = 250
run.seed = 1
grid.seeds = 0,1,2
grid.s_values = 5,10
grid.max_iters = 150
sweep.d_values = 60,120
sweep.max_iters = 150
concavity.dims = 6
concavity.s_values = 2,3
concavity.trials = 2000
check.pairs = 2000
"""


def write_config(tmp_path, text=BASE_CONFIG, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(text + extra)
    return str(path)


class TestParsing:
    def test_comments_blanks_and_values(self):
        values = parse_config_text("# c\n\ndesign.d = 50\ndesign.omega = 0.25 # trailing\n")
        assert values == {"design.d": 50, "design.omega": 0.25}

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="design.sigma"):
            parse_config_text("design.sigma = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("design.d = 5\ndesign.d = 6\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="design.d"):
            parse_config_text("design.d = many\n")

    def test_int_lists(self):
        values = parse_config_text("sweep.d_values = 250,500,1000\n")
        assert values["sweep.d_values"] == [250, 500, 1000]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.cfg")


class TestResolution:
    def test_derived_sample_count_and_grid(self):
        cfg = resolve_config({"design.d": 1000, "truth.s_star": 20})
        assert cfg.design.n == derived_n(5.0, 20, 1000) == int(np.ceil(100 * np.log(1000)))
        assert cfg.operator_s == 40
        assert cfg.s_grid == default_s_grid(20, 1000) == [20, 27, 33, 40, 47]

    def test_desk_scale_defaults(self):
        cfg = resolve_config({})
        assert cfg.design.d == 1000
        assert cfg.truth.s_star == 20
        assert cfg.design.omega == 0.5
        assert len(cfg.seeds) == 11

    def test_sparsity_above_dimension_rejected(self):
        with pytest.raises(ConfigError, match="operator.s"):
            resolve_config({"design.d": 10, "truth.s_star": 2, "operator.s": 11})

    def test_f_hat_literal(self):
        cfg = resolve_config({"step.f_hat": "0.25"})
        assert cfg.f_hat == 0.25
        assert resolve_config({}).f_hat is None

    def test_echo_contains_derived_values(self):
        cfg = resolve_config({"design.d": 100, "truth.s_star": 4})
        assert cfg.echo["design.n"] == cfg.design.n
        assert cfg.echo["operator.s"] == cfg.operator_s

    def test_schema_file_in_repo_matches_implementation(self):
        repo_schema = Path(__file__).resolve().parents[1] / "config-schema.txt"
        assert repo_schema.read_text() == schema_text()


class TestCliRun:
    def test_run_writes_contracted_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        run_dirs = list(out.glob("run_*"))
        assert len(run_dirs) == 1
        trace = (run_dirs[0] / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,f_value,step_size,grad_ht_norm_sq,error_sq,support_size"
        assert (run_dirs[0] / "summary.json").is_file()
        manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert manifest["seeds"] == [1]
        assert manifest["schema_version"] == 1
        assert (run_dirs[0] / "dataset.npz").is_file()

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        t1 = next(out1.glob("run_*/trace.csv")).read_bytes()
        t2 = next(out2.glob("run_*/trace.csv")).read_bytes()
        assert t1 == t2

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "7"]) == EXIT_OK
        t1 = next(out1.glob("run_*/trace.csv")).read_bytes()
        t2 = next(out2.glob("run_*/trace.csv")).read_bytes()
        assert t1 != t2

    def test_config_error_exit_code_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="design.d = 8\n")
        # duplicate key: design.d appears twice
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "design.d" in capsys.readouterr().err

    def test_sparsity_above_dimension_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text="design.d = 10\ntruth.s_star = 2\noperator.s = 64\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "operator.s" in capsys.readouterr().err

    def test_fixed_step_below_true_sparsity_names_operator_s(self, tmp_path, capsys):
        # 1/L_hat is defined for s >= s* only; with no step.fixed_gamma this is a config error
        cfg = write_config(tmp_path, text="design.d = 60\ntruth.s_star = 20\noperator.s = 10\n"
                                          "step.kind = fixed\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "operator.s" in capsys.readouterr().err
        cfg = write_config(tmp_path, text="design.d = 60\ntruth.s_star = 20\noperator.s = 10\n"
                                          "step.kind = fixed\nstep.fixed_gamma = 0.1\nrun.max_iters = 5\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_divergent_run_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="step.kind = fixed\nstep.fixed_gamma = 1e30\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "iteration" in capsys.readouterr().err

    def test_divergent_run_reports_without_numpy_warnings(self, tmp_path, capsys):
        # the finiteness check reports the failure; overflow on the way warns nothing
        cfg = write_config(tmp_path, extra="step.kind = fixed\nstep.fixed_gamma = 1e30\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "numerical failure" in capsys.readouterr().err

    def test_output_root_from_environment(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        root = tmp_path / "env_root"
        monkeypatch.setenv("SPARSEPOLYAK_OUT", str(root))
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert len(list(root.glob("run_*/trace.csv"))) == 1

    def test_logistic_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            text="design.d = 80\ntruth.s_star = 4\nnoise.family = logistic\n"
                 "operator.kind = rt\noperator.s = 8\nrun.max_iters = 120\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads(next(out.glob("run_*/summary.json")).read_text())
        assert summary["final_support_size"] <= 8


class TestWorkers:
    def test_workers_below_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for bad in ("0", "-3"):
            argv = ["grid", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", bad]
            assert main(argv) == EXIT_CONFIG
            assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pool_capped_at_items_and_cpus(self, monkeypatch):
        # records the requested pool size instead of starting processes
        from sparsepolyak import cli

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        items = [(2, 1), (2, 2), (2, 3)]
        assert cli._pmap(pow, items, 5000) == [2, 4, 8]
        assert cli._pmap(pow, items * 3, 5000) == [2, 4, 8] * 3
        assert cli._pmap(pow, items, 1) == [2, 4, 8]
        assert sizes == [3, 4]


class TestCliGridSweepReports:
    def test_grid_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
        grid_dir = next(out.glob("grid_*"))
        lines = (grid_dir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "operator,s,seed,final_error_sq,iters_to_floor"
        # 2 operators x 2 grid values x 3 seeds
        assert len(lines) == 1 + 12
        assert (grid_dir / "summary.txt").is_file()

    def test_grid_rejects_fixed_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="step.kind = fixed\nstep.fixed_gamma = 0.1\n")
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "step.kind" in capsys.readouterr().err

    def test_grid_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["grid", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["grid", "--config", cfg, "--out", str(out2), "--workers", "3"]) == EXIT_OK
        c1 = next(out1.glob("grid_*/comparison.csv")).read_bytes()
        c2 = next(out2.glob("grid_*/comparison.csv")).read_bytes()
        assert c1 == c2

    def test_sweep_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sweep_dir = next(out.glob("sweep_*"))
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "d,n,seed,method,plateau_error_sq,iters_to_plateau,median_active_step"
        # 2 dimensions x 3 seeds x 2 methods
        assert len(lines) == 1 + 12

    def test_grid_and_sweep_honour_f_hat_and_stop_tol(self, tmp_path):
        # f - f_hat <= 100 holds at the zero start, so every cell stops at iteration 0
        cfg = write_config(tmp_path, extra="step.f_hat = 5.0\nrun.stop_tol = 100.0\n")
        out = tmp_path / "out"
        assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        grid_rows = next(out.glob("grid_*/comparison.csv")).read_text().splitlines()[1:]
        sweep_rows = next(out.glob("sweep_*/sweep.csv")).read_text().splitlines()[1:]
        assert len(grid_rows) == 12 and len(sweep_rows) == 12
        assert all(row.split(",")[4] == "0" for row in grid_rows)
        assert all(row.split(",")[5] == "0" for row in sweep_rows)

    def test_concavity_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["concavity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        cells = json.loads(next(out.glob("concavity_*/concavity.json")).read_text())
        # s in {2, 3}, s* in 1..s, two operators -> 10 cells
        assert len(cells) == 10
        assert all(c["within_bound"] in (True, None) for c in cells)

    def test_check_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(next(out.glob("check_*/assumptions.json")).read_text())
        assert {r["assumption"] for r in payload["reports"]} == {"rsc", "rss", "weak_rsc"}
        assert all(r["violations"] == 0 for r in payload["reports"])
