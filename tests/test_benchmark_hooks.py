"""The benchmark's hooks into the package still resolve.

`perfbench/tracing.py` wraps the functions its `TRACED` table names and
skips a name that no longer exists, so renaming a traced function would
silently read 0 for its per-layer metrics.  The benchmark also wraps
`optimizer.run` to record each `sparsepolyak run` outcome.
"""

import importlib.util
from pathlib import Path

import pytest

import sparsepolyak.cli
from sparsepolyak.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Entries the table still names after the package dropped them; they read 0 by design.
STALE = {("objectives", "gradient"), ("thresholding", "top_s_support"),
         ("thresholding", "threshold_batch")}


def traced_names():
    if not TRACING.is_file():
        pytest.skip("no perfbench/tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    if not hasattr(tracing, "TRACED"):
        pytest.skip("perfbench/tracing.py has no TRACED table")
    return [tuple(entry) for entry in tracing.TRACED]


def test_every_traced_function_resolves():
    missing = [f"{module}.{func}" for module, func in traced_names()
               if (module, func) not in STALE
               and not callable(getattr(importlib.import_module(f"sparsepolyak.{module}"), func, None))]
    assert missing == []


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
