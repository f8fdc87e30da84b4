"""Config parsing/validation and end-to-end CLI contract tests."""

import argparse
import concurrent.futures
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import sparsepolyak
from sparsepolyak.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from sparsepolyak.config import (
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    default_s_grid,
    derived_n,
    load_config,
    parse_config_text,
    resolve_config,
    schema_text,
)
from sparsepolyak.dataio import trace_csv_text
from sparsepolyak.diagnostics import active_median_step, run_instance_cells
from sparsepolyak.thresholding import ThresholdSpec

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


BOUNDED = [(key, tag, accepted) for key, (tag, _, accepted, _) in SCHEMA.items() if isinstance(accepted, str)]
INTLISTS = [key for key, (tag, *_) in SCHEMA.items() if tag == "intlist"]
CHOICES = [(key, accepted) for key, (_, _, accepted, _) in SCHEMA.items() if isinstance(accepted, tuple)]


def bound_values(tag: str, accepted: str) -> tuple:
    """The least value a SCHEMA lower bound accepts and the greatest it rejects."""
    op, bound = accepted.split()
    if tag == "float":
        b = float(bound)
        return (np.nextafter(b, np.inf), b) if op == ">" else (b, np.nextafter(b, -np.inf))
    b = int(bound)
    return (b + 1, b) if op == ">" else (b, b - 1)


class TestParsing:
    def test_comments_blanks_and_values(self):
        values = parse_config_text("# c\n\ndesign.d = 50\ndesign.omega = 0.25 # trailing\n")
        assert values == {"design.d": 50, "design.omega": 0.25}

    @pytest.mark.parametrize("key, value", [
        ("design.sigma", "1.0"),
        ("design.column_normalize", "true"),  # a design is always exactly its Sigma
        ("out.dir", "elsewhere"),  # the output root is --out or $SPARSEPOLYAK_OUT
        ("design.n", "100"),  # n is always ceil(n_factor * s_star * ln d)
        ("check.s", "7"),  # check tests the constants at operator.s
        ("check.mu_scale", "0.5"),  # power experiments scale mu through the library (C09)
        ("step.fixed_gamma", "0.1"),  # the fixed rule always steps by 1/L_hat
        ("run.stop_tol", "1e-6"),  # the tolerance is always 1e-12 (1 + |f_hat|)
    ], ids=["design.sigma", "design.column_normalize", "out.dir", "design.n", "check.s",
            "check.mu_scale", "step.fixed_gamma", "run.stop_tol"])
    def test_unknown_key_rejected_by_name(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config_text(f"{key} = {value}\n")
        cfg = write_config(tmp_path, extra=f"{key} = {value}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        assert cfg.s_star == 20
        assert cfg.design.omega == 0.5
        assert len(cfg.seeds) == 11

    def test_sparsity_above_dimension_rejected(self):
        with pytest.raises(ConfigError, match="operator.s"):
            resolve_config({"design.d": 10, "truth.s_star": 2, "operator.s": 11})

    def test_empty_seed_list_names_the_key(self):
        with pytest.raises(ConfigError, match="grid.seeds"):
            resolve_config({"grid.seeds": []})

    def test_negative_run_seed_names_the_key(self):
        with pytest.raises(ConfigError, match="run.seed"):
            resolve_config({"run.seed": -1})

    def test_negative_grid_seed_names_the_key(self):
        with pytest.raises(ConfigError, match="grid.seeds"):
            resolve_config({"grid.seeds": [0, -2]})

    def test_sweep_dimensions_are_not_checked_outside_the_sweep(self):
        # the default sweep.d_values = 250,500,1000 lie below these s*
        for s_star in (300, 600):
            assert resolve_config({"truth.s_star": s_star}).s_star == s_star

    def test_f_hat_literal(self):
        cfg = resolve_config({"step.f_hat": "0.25"})
        assert cfg.f_hat == 0.25
        assert resolve_config({}).f_hat is None

    @pytest.mark.parametrize("key", ["design.n_factor", "noise.sigma"])
    def test_non_finite_float_names_the_key(self, key):
        with pytest.raises(ConfigError, match=key):
            resolve_config({key: float("nan")})

    @pytest.mark.parametrize("key, value", [
        ("design.d", 0), ("design.omega", 1.0), ("noise.sigma", 0.0),
        ("design.n_factor", 0.0), ("design.n_factor", -1.0),
    ])
    def test_invalid_spec_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve_config({key: value})

    @pytest.mark.parametrize("key, tag, accepted", BOUNDED)
    def test_every_bound_is_enforced_by_name(self, key, tag, accepted):
        ok, bad = bound_values(tag, accepted)
        if tag == "intlist":
            ok, bad = [ok], [ok, bad]
        companions = {"truth.s_star": 1} if key == "design.d" else {}  # the default s* = 20 exceeds d = 1
        resolve_config({**companions, key: ok})
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            resolve_config({**companions, key: bad})

    @pytest.mark.parametrize("key", INTLISTS)
    def test_every_list_rejects_a_repeated_entry_by_name(self, key):
        # a repeated seed counted twice in the grid's medians, a repeated s or d wrote duplicate rows
        assert len(INTLISTS) == 5
        value = bound_values("intlist", SCHEMA[key][2])[0]
        assert resolve_config({key: [value, value + 1]}).echo[key] == [value, value + 1]
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: entries must be distinct"):
            resolve_config({key: [value, value + 1, value]})

    def test_true_sparsity_above_dimension_names_the_key(self):
        assert resolve_config({"design.d": 10, "truth.s_star": 10}).s_star == 10
        with pytest.raises(ConfigError, match="^truth.s_star: must be at most design.d = 10"):
            resolve_config({"design.d": 10, "truth.s_star": 11})

    @pytest.mark.parametrize("key, choices", CHOICES)
    def test_every_choice_is_enforced_by_name(self, key, choices):
        for choice in choices:
            assert resolve_config({key: choice}).echo[key] == choice
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            resolve_config({key: "bogus"})

    def test_echo_contains_derived_values(self):
        cfg = resolve_config({"design.d": 100, "truth.s_star": 4})
        assert cfg.echo["operator.s"] == cfg.operator_s

    @pytest.mark.parametrize("family, width, resolved", [
        ("linear", "auto", "s"), ("logistic", "auto", "2s"), ("logistic", "s", "s"),
    ])
    def test_ht_width_resolved_once_echo_keeps_auto(self, family, width, resolved):
        cfg = resolve_config({"noise.family": family, "step.ht_width": width})
        assert cfg.ht_width == resolved
        assert cfg.echo["step.ht_width"] == width

    def test_every_key_reaches_the_resolved_config(self):
        # one accepted non-default value per key, each changing a derived field; a key
        # that is parsed and echoed but read by nothing fails here
        other = {
            "design.d": 500, "design.omega": 0.25, "design.n_factor": 6.0,
            "truth.s_star": 10, "noise.family": "logistic", "noise.sigma": 1.0,
            "operator.kind": "rt", "operator.s": 30, "step.kind": "classic_polyak",
            "step.ht_width": "2s", "step.f_hat": "0.5", "run.max_iters": 100, "run.seed": 3,
            "grid.s_values": [5, 10], "grid.seeds": [0, 1], "grid.max_iters": 5,
            "sweep.d_values": [100], "sweep.max_iters": 5, "concavity.dims": [6],
            "concavity.s_values": [1, 2], "concavity.trials": 10, "check.pairs": 10,
        }
        assert sorted(other) == sorted(SCHEMA)
        base = resolve_config({})
        names = [f.name for f in fields(ExperimentConfig) if f.name != "echo"]
        for key, value in other.items():
            cfg = resolve_config({key: value})
            assert cfg.echo[key] == value
            assert any(getattr(cfg, name) != getattr(base, name) for name in names), key

    def test_schema_file_in_repo_matches_implementation(self):
        repo_schema = Path(__file__).resolve().parents[1] / "config-schema.txt"
        assert repo_schema.read_text() == schema_text()

    def test_readme_names_only_schema_keys(self):
        # every `section.key` in the README prose is a key the parser accepts; file
        # names such as sweep.csv or perfbench/run.py are not keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sections = {key.split(".")[0] for key in SCHEMA}
        named = {f"{section}.{key}" for section, key in re.findall(r"(?<![\w./])([a-z_]+)\.(\w+)", readme)
                 if section in sections and key not in ("csv", "json", "npz", "py", "txt")}
        assert len(named) >= 10  # the README walks through most keys
        assert sorted(named - set(SCHEMA)) == []

    def test_readme_names_only_real_flags(self):
        # every --flag in the README's command-line section is an option of some command
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        harness = readme.split("## Command-line harness", 1)[1].split("\n## ", 1)[0]
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", harness))
        assert {"--config", "--out", "--workers"} <= named
        assert sorted(named - options) == []

    def test_config_is_frozen(self):
        # nothing rewrites a config after resolve_config has checked it
        cfg = resolve_config({})
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 7


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
        assert manifest["schema_version"] == 3
        assert (run_dirs[0] / "dataset.npz").is_file()

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        t1 = next(out1.glob("run_*/trace.csv")).read_bytes()
        t2 = next(out2.glob("run_*/trace.csv")).read_bytes()
        assert t1 == t2

    @pytest.mark.parametrize("command", ["run", "grid", "sweep", "concavity", "check"])
    def test_seed_flag_is_not_an_option(self, tmp_path, capsys, command):
        # seeds are set in the config only; argparse rejects the flag before any output
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "o"), "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, extra, calls", [
        ("run", "", 1), ("run", "step.f_hat = 0.1\n", 0), ("check", "", 0),
    ], ids=["run", "run_f_hat", "check"])
    def test_target_value_is_computed_only_for_a_step_rule(self, tmp_path, monkeypatch, command, extra, calls):
        from sparsepolyak import diagnostics

        counted = []
        real = diagnostics.target_value
        monkeypatch.setattr(diagnostics, "target_value", lambda *args: counted.append(1) or real(*args))
        cfg = write_config(tmp_path, extra=extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(counted) == calls

    def test_seed_override_changes_trace(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out1)]) == EXIT_OK
        cfg = write_config(tmp_path, BASE_CONFIG.replace("run.seed = 1", "run.seed = 7"))
        assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
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
        # 1/L_hat is defined for s >= s* only, so this is a config error
        cfg = write_config(tmp_path, text="design.d = 60\ntruth.s_star = 20\noperator.s = 10\n"
                                          "step.kind = fixed\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "operator.s" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "grid", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_f_hat_names_the_key(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path, extra=f"step.f_hat = {value}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "step.f_hat" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_negative_cell_budget_names_the_key(self, tmp_path, capsys, command):
        key = f"{command}.max_iters"
        cfg = write_config(tmp_path, BASE_CONFIG.replace(f"{key} = 150", f"{key} = -3"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_sweep_dimension_below_true_sparsity_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("sweep.d_values = 60,120", "sweep.d_values = 4,120"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sweep.d_values" in err and "truth.s_star" in err

    def test_sweep_with_nonpositive_n_factor_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("design.n_factor = 6", "design.n_factor = -1"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "design.n_factor" in capsys.readouterr().err

    def test_empty_sweep_dimension_list_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("sweep.d_values = 60,120", "sweep.d_values ="))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "sweep.d_values" in capsys.readouterr().err

    def test_run_ignores_sweep_dimensions_below_true_sparsity(self, tmp_path):
        # the default sweep.d_values = 250,500,1000 only constrain the sweep
        cfg = write_config(tmp_path, text="truth.s_star = 300\nrun.max_iters = 3\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_divergent_run_is_numerical_failure(self, tmp_path, capsys):
        # a target of -1e300 makes the first step huge, so iteration 1 overflows
        cfg = write_config(tmp_path, extra="step.f_hat = -1e300\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "evaluation failed at iteration 1" in capsys.readouterr().err

    def test_divergent_run_reports_without_numpy_warnings(self, tmp_path, capsys):
        # the finiteness check reports the failure; overflow on the way warns nothing
        cfg = write_config(tmp_path, extra="step.f_hat = -1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_non_finite_target_value_is_numerical_failure(self, tmp_path, capsys, command):
        # f(theta*) overflows at this noise scale, so no step rule has a target value
        cfg = write_config(tmp_path, text="design.d = 60\ntruth.s_star = 3\nnoise.sigma = 1e160\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "f(theta*) = inf" in err

    def test_check_does_not_need_a_finite_target_value(self, tmp_path):
        cfg = write_config(tmp_path, text="design.d = 60\ntruth.s_star = 3\nnoise.sigma = 1e160\n"
                                          "check.pairs = 8\n")
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("kind", ["sparse_polyak", "classic_polyak", "fixed"])
    def test_run_matches_its_one_cell_instance_run(self, tmp_path, kind):
        # run and the grid/sweep worker build their cells with one step-rule builder
        cfg_path = write_config(tmp_path, extra=f"step.kind = {kind}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        cfg = load_config(cfg_path)
        cell = (ThresholdSpec(kind=cfg.operator_kind, s=cfg.operator_s), kind)
        [(trace, _, hit)] = run_instance_cells(cfg.design, cfg.s_star, cfg.noise, cfg.seed, [cell],
                                               cfg.max_iters, cfg.ht_width, cfg.f_hat)
        assert next(out.glob("run_*/trace.csv")).read_text() == trace_csv_text(trace)
        summary = json.loads(next(out.glob("run_*/summary.json")).read_text())
        assert summary["iters_to_floor"] == hit

    def test_fixed_rule_records_the_configured_width(self, tmp_path):
        # grad_ht_norm_sq is ||HT_w(grad)||^2 at step.ht_width for every rule; a width
        # cannot move a fixed rule's iterates, so no other column changes
        columns = {}
        for width in ("s", "2s"):
            text = ("design.d = 120\ntruth.s_star = 5\nnoise.family = logistic\nstep.kind = fixed\n"
                    f"run.max_iters = 100\nstep.ht_width = {width}\n")
            out = tmp_path / width
            assert main(["run", "--config", write_config(tmp_path, text=text), "--out", str(out)]) == EXIT_OK
            with open(next(out.glob("run_*/trace.csv")), newline="") as fh:
                rows = list(csv.DictReader(fh))
            columns[width] = {name: [row[name] for row in rows] for name in rows[0]}
        narrow = columns["s"].pop("grad_ht_norm_sq")
        wide = columns["2s"].pop("grad_ht_norm_sq")
        assert columns["s"] == columns["2s"]
        assert all(float(w) >= float(n) for n, w in zip(narrow, wide)) and narrow != wide

    def test_output_root_from_environment(self, tmp_path, monkeypatch, capsys):
        # the root comes from --out or $SPARSEPOLYAK_OUT and does not enter the hash
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "flag")]) == EXIT_OK
        monkeypatch.setenv("SPARSEPOLYAK_OUT", str(tmp_path / "env"))
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert len(list((tmp_path / "env").glob("run_*/trace.csv"))) == 1
        flag_dirs = [p.name for p in (tmp_path / "flag").iterdir()]
        assert flag_dirs == [p.name for p in (tmp_path / "env").iterdir()]
        manifest = json.loads((tmp_path / "flag" / flag_dirs[0] / "manifest.json").read_text())
        assert not [key for key in manifest["config"] if key.startswith("out.")]
        artifacts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("artifacts:")]
        assert artifacts == [f"artifacts: {tmp_path / root / flag_dirs[0]}" for root in ("flag", "env")]

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

    def test_pool_modules_not_loaded_without_a_pool(self, tmp_path):
        # a fresh interpreter, so that modules other tests loaded do not count
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        code = (
            "import sys\n"
            "from sparsepolyak.cli import main\n"
            f"assert main(['run', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            f"assert main(['grid', '--config', {cfg!r}, '--out', {out!r}, '--workers', '1']) == 0\n"
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
        )
        src = str(Path(sparsepolyak.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_pool_capped_at_items_and_cpus(self, monkeypatch):
        # records the requested pool size instead of starting processes;
        # `_pmap` imports the pool class from concurrent.futures when it runs one
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        items = [(2, 1), (2, 2), (2, 3)]
        assert cli._pmap(pow, items, 5000) == [2, 4, 8]
        assert cli._pmap(pow, items * 3, 5000) == [2, 4, 8] * 3
        assert cli._pmap(pow, items, 1) == [2, 4, 8]
        assert sizes == [3, 4]

    def test_pool_workers_draw_designs_on_one_thread(self, monkeypatch):
        from sparsepolyak import cli, synthdata

        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)  # a two-worker pool on any host
        assert cli._pmap(synthdata._draw_threads, [(64,), (64,)], 2) == [1, 1]


class TestCliGridSweepReports:
    def test_grid_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
        grid_dir = next(out.glob("grid_*"))
        lines = (grid_dir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "operator,s,seed,status,iterations,final_error_sq,iters_to_floor"
        # 2 operators x 2 grid values x 3 seeds
        assert len(lines) == 1 + 12
        assert (grid_dir / "summary.txt").is_file()

    def test_grid_rejects_fixed_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="step.kind = fixed\n")
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
        assert lines[0] == ("d,n,seed,method,status,iterations,plateau_error_sq,iters_to_plateau,"
                            "median_active_step")
        # 2 dimensions x 3 seeds x 2 methods
        assert len(lines) == 1 + 12

    def test_sweep_runs_the_configured_operator(self, tmp_path):
        # each sweep cell runs operator.kind at min(operator.s, d), like a one-cell instance run
        text = "design.d = 120\ntruth.s_star = 5\nsweep.d_values = 60,120\ngrid.seeds = 0\nrun.max_iters = 200\n"
        rows = {}
        for kind in ("ht", "rt"):
            out = tmp_path / kind
            cfg_path = write_config(tmp_path, text=text, extra=f"operator.kind = {kind}\n")
            assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
            rows[kind] = next(out.glob("sweep_*/sweep.csv")).read_text().splitlines()[1:]
        assert rows["rt"] != rows["ht"]
        cfg = load_config(cfg_path)
        methods = ("sparse_polyak", "classic_polyak")
        expected = []
        for d in cfg.sweep_d_values:
            design = replace(cfg.design, n=derived_n(cfg.n_factor, cfg.s_star, d), d=d)
            cells = [(ThresholdSpec(kind="rt", s=min(cfg.operator_s, d)), method) for method in methods]
            runs = run_instance_cells(design, cfg.s_star, cfg.noise, 0, cells,
                                      cfg.sweep_max_iters, cfg.ht_width, cfg.f_hat)
            expected += [f"{d},{design.n},0,{method},{trace.status.value},{len(trace) - 1},{level:.12g},"
                         f"{hit},{active_median_step(trace.step_size, hit):.12g}"
                         for method, (trace, level, hit) in zip(methods, runs)]
        assert rows["rt"] == expected

    def test_grid_and_sweep_honour_f_hat(self, tmp_path):
        # f(0) < 4 on every instance here, so f - f_hat < 0 at the zero start
        # and every cell stops at iteration 0
        cfg = write_config(tmp_path, extra="step.f_hat = 100.0\n")
        out = tmp_path / "out"
        assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        grid_rows = next(out.glob("grid_*/comparison.csv")).read_text().splitlines()[1:]
        sweep_rows = next(out.glob("sweep_*/sweep.csv")).read_text().splitlines()[1:]
        assert len(grid_rows) == 12 and len(sweep_rows) == 12
        assert all(row.split(",")[3:5] == ["converged", "0"] and row.split(",")[6] == "0" for row in grid_rows)
        assert all(row.split(",")[4:6] == ["converged", "0"] and row.split(",")[7] == "0" for row in sweep_rows)

    def test_rows_say_why_each_cell_stopped(self, tmp_path):
        # at a budget of 1000 this small instance has converged and
        # max_iters cells in both files; iterations counts like summary.json
        text = (BASE_CONFIG.replace("grid.seeds = 0,1,2", "grid.seeds = 0,1")
                .replace("grid.max_iters = 150", "grid.max_iters = 1000")
                .replace("sweep.max_iters = 150", "sweep.max_iters = 1000"))
        cfg_path = write_config(tmp_path, text=text)
        out = tmp_path / "out"
        assert main(["grid", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        cfg = load_config(cfg_path)

        def outcomes(pattern, key):
            with open(next(out.glob(pattern)), newline="") as fh:
                return {key(row): (row["status"], int(row["iterations"])) for row in csv.DictReader(fh)}

        grid = outcomes("grid_*/comparison.csv", lambda row: (row["operator"], int(row["s"]), int(row["seed"])))
        sweep = outcomes("sweep_*/sweep.csv", lambda row: (int(row["d"]), int(row["seed"]), row["method"]))
        grid_cells = [(ThresholdSpec(kind=kind, s=s), cfg.step_kind) for kind in ("ht", "rt") for s in cfg.s_grid]
        methods = ("sparse_polyak", "classic_polyak")
        want_grid, want_sweep = {}, {}
        for seed in cfg.seeds:
            runs = run_instance_cells(cfg.design, cfg.s_star, cfg.noise, seed, grid_cells,
                                      cfg.grid_max_iters, cfg.ht_width, cfg.f_hat)
            for (op, _), (trace, _, _) in zip(grid_cells, runs):
                want_grid[(op.kind, op.s, seed)] = (trace.status.value, len(trace) - 1)
            for d in cfg.sweep_d_values:
                design = replace(cfg.design, n=derived_n(cfg.n_factor, cfg.s_star, d), d=d)
                cells = [(ThresholdSpec(kind=cfg.operator_kind, s=min(cfg.operator_s, d)), m) for m in methods]
                runs = run_instance_cells(design, cfg.s_star, cfg.noise, seed, cells,
                                          cfg.sweep_max_iters, cfg.ht_width, cfg.f_hat)
                for method, (trace, _, _) in zip(methods, runs):
                    want_sweep[(d, seed, method)] = (trace.status.value, len(trace) - 1)
        assert grid == want_grid
        assert sweep == want_sweep
        for rows in (grid, sweep):
            assert {status for status, _ in rows.values()} == {"converged", "max_iters"}
            assert all(iters == 1000 for status, iters in rows.values() if status == "max_iters")
            assert all(iters < 1000 for status, iters in rows.values() if status == "converged")

    def test_grid_rows_replay_as_one_cell_runs(self, tmp_path):
        # every cell of the default grid's seed-0 instance, rerun alone with
        # `run`: a batch sums its products over the union of its cells'
        # supports, so only last bits may differ (at most 8.6e-14 relative
        # over the 110 default cells, measured with 1 BLAS thread)
        cfg = resolve_config({})
        seed = cfg.seeds[0]
        cells = [(ThresholdSpec(kind=kind, s=s), cfg.step_kind) for kind in ("ht", "rt") for s in cfg.s_grid]
        rows = run_instance_cells(cfg.design, cfg.s_star, cfg.noise, seed, cells, cfg.grid_max_iters,
                                  cfg.ht_width, cfg.f_hat)
        for (op, _), (trace, _, hit) in zip(cells, rows):
            out = tmp_path / f"{op.kind}{op.s}"
            text = f"operator.kind = {op.kind}\noperator.s = {op.s}\nrun.seed = {seed}\n"
            assert main(["run", "--config", write_config(tmp_path, text=text), "--out", str(out)]) == EXIT_OK
            summary = json.loads(next(out.glob("run_*/summary.json")).read_text())
            assert summary["status"] == trace.status.value
            assert summary["iterations"] + 1 == len(trace)
            assert summary["iters_to_floor"] == hit
            assert summary["final_error_sq"] == pytest.approx(trace.error_sq[-1], rel=1e-12, abs=0.0)

    def test_concavity_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["concavity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        cells = json.loads(next(out.glob("concavity_*/concavity.json")).read_text())
        # s in {2, 3}, s* in 1..s, two operators -> 10 cells
        assert len(cells) == 10
        assert all(c["within_bound"] in (True, None) for c in cells)

    @pytest.mark.parametrize("dims, named", [
        ("2", "concavity.s_values: need an entry at most the largest dimension, max(concavity.dims) = 2"),
        ("", "concavity.dims: dimension list must be nonempty"),
    ], ids=["s_values_above_dims", "no_dims"])
    def test_concavity_without_a_valid_cell_names_the_key(self, tmp_path, capsys, dims, named):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("concavity.dims = 6", f"concavity.dims = {dims}")
                                                .replace("concavity.s_values = 2,3", "concavity.s_values = 3"))
        out = tmp_path / "out"
        assert main(["concavity", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_check_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(next(out.glob("check_*/assumptions.json")).read_text())
        assert {r["assumption"] for r in payload["reports"]} == {"rsc", "rss", "weak_rsc"}
        assert all(r["violations"] == 0 for r in payload["reports"])


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        import sparsepolyak

        missing = [name for name in sparsepolyak.__all__ if not hasattr(sparsepolyak, name)]
        assert missing == []
