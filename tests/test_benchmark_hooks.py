"""The benchmark's hooks into the package still resolve.

`perfbench/tracing.py` wraps the functions its `TRACED` table names and
skips a name that no longer exists, so renaming a traced function would
silently read 0 for its per-layer metrics.  The benchmark also wraps
`optimizer.run` to record each `sparsepolyak run` outcome, and hands the
CLI the configs of `perfbench/workloads.py`, so a schema change that
rejects one would read as `cells_ok_frac` 0.  Its output check compares
each cell with `perfbench/reference.json`, so a trajectory that drifts
past that check's tolerance reads as a failed cell.
"""

import importlib.util
from pathlib import Path

import pytest

import sparsepolyak.cli
from sparsepolyak.cli import EXIT_OK, main
from sparsepolyak.config import ConfigError, parse_config_text, resolve_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Entries the table still names after the package dropped them; they read 0 by design.
STALE = {("objectives", "gradient"), ("thresholding", "top_s_support"),
         ("thresholding", "threshold_batch")}


def perfbench_table(module: str, table: str):
    """`table` of perfbench/<module>.py; skips when either is absent."""
    path = PERFBENCH / f"{module}.py"
    if not path.is_file():
        pytest.skip(f"no perfbench/{module}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{module}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    if not hasattr(loaded, table):
        pytest.skip(f"perfbench/{module}.py has no {table} table")
    return getattr(loaded, table)


def test_every_traced_function_resolves():
    missing = [f"{module}.{func}" for module, func in perfbench_table("tracing", "TRACED")
               if (module, func) not in STALE
               and not callable(getattr(importlib.import_module(f"sparsepolyak.{module}"), func, None))]
    assert missing == []


def test_every_workload_config_resolves():
    failures = []
    for workload in perfbench_table("workloads", "WORKLOADS").values():
        for seed in workload.pool:
            for inv in workload.invocations(seed):
                for text in (inv.config, inv.probe_config):
                    try:
                        resolve_config(parse_config_text(text))
                    except ConfigError as exc:
                        failures.append(f"{workload.name}/{inv.label}/seed{seed}: {exc}")
    assert failures == []


def test_cli_run_calls_optimizer_run_once(tmp_path, monkeypatch):
    calls = []
    real = sparsepolyak.cli.run

    def counted(config, *args, **kwargs):
        calls.append(config)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(sparsepolyak.cli, "run", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("design.d = 60\ntruth.s_star = 3\nrun.max_iters = 20\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 6, 7])
def test_desk_runs_match_the_benchmark_reference(tmp_path, seed):
    # seeds 6 and 7 end their default run at max_iters after 1501 rows: a few
    # ulps of drift could flip that status, which the benchmark counts as failed
    compare = perfbench_table("check", "compare")
    reference = perfbench_table("check", "load_reference")()
    workload = perfbench_table("workloads", "WORKLOADS")["cli_run_desk"]
    mismatches = []
    for inv in workload.invocations(seed):
        cfg, out = tmp_path / f"{inv.label}.cfg", tmp_path / inv.label
        cfg.write_text(inv.config)
        assert main([inv.command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cells = workload.read_cells(inv, out, [])
        assert sorted(cells) == sorted(inv.cells)
        for key, cell in cells.items():
            ok, reason, _ = compare(cell, reference.get(key))
            if not ok:
                mismatches.append(f"{key}: {reason}")
    assert mismatches == []
