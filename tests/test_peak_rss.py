"""`tools/peak_rss.py`: peak RSS of sparsepolyak commands in fresh processes."""

import importlib.util
import os
from pathlib import Path

import pytest

import sparsepolyak

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"

CONFIG = "design.d = 40\ntruth.s_star = 3\noperator.s = 6\nrun.max_iters = 30\n"


@pytest.fixture
def tool(monkeypatch):
    """The script as a module, with this sparsepolyak importable in its children."""
    src = str(Path(sparsepolyak.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spec = importlib.util.spec_from_file_location("peak_rss", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_fresh_run(tool, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert tool.main(["-n", "2", "--", "run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(line[0], line[2]) for line in lines] == [("peak_rss_mb", "wall_s")] * 2
    # a Python process with numpy loaded holds more than 10 MB, and no tiny run 1 GB
    assert all(10.0 < float(line[1]) < 1024.0 for line in lines)
    # importing numpy alone takes milliseconds, and a tiny run takes well under a minute
    assert all(0.01 < float(line[3]) < 60.0 for line in lines)
    assert len(list(out.glob("run_*/summary.json"))) == 1


def test_failed_run_is_reported(tool, tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert tool.main(["-n", "3", "--", "run", "--config", missing, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("run 1: sparsepolyak exited with 2")
