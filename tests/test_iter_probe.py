"""`tools/iter_probe.py`: per-iteration time of one linear run per dimension, in fresh processes."""

import importlib.util
import os
from pathlib import Path

import pytest

import sparsepolyak
from sparsepolyak.config import derived_n

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "iter_probe.py"


@pytest.fixture
def tool(monkeypatch):
    """The script as a module, with this sparsepolyak importable in its children."""
    src = str(Path(sparsepolyak.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spec = importlib.util.spec_from_file_location("iter_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_dimension(tool, capsys):
    assert tool.main(["--max-iters", "30", "60", "80"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(int(d), int(n)) for d, n, *_ in lines] == [(60, derived_n(5.0, 20, 60)), (80, derived_n(5.0, 20, 80))]
    for _, _, iterations, ms_per_iter, setup_s in lines:
        assert 1 <= int(iterations) <= 30
        assert float(ms_per_iter) > 0.0 and float(setup_s) > 0.0


def test_failed_probe_names_its_dimension(tool, capsys):
    # s = 40 exceeds d = 30, which the config rejects
    assert tool.main(["--max-iters", "5", "30", "60"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("d = 30: the probe exited with 1")
