"""`tools/artifact_digest.py`: one digest line per artifact file of a command set."""

import importlib.util
from pathlib import Path

import pytest

from sparsepolyak.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"

CONFIG = "design.d = 40\ntruth.s_star = 3\noperator.s = 6\nrun.max_iters = 30\n"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(tool, work: Path, config: str) -> list[str]:
    return tool.digest_lines(tool.run_commands(cli_main, [("run", config)], work))


def test_a_run_digests_identically_and_its_seed_changes_it(tool, tmp_path):
    first = digest(tool, tmp_path / "a", CONFIG)
    assert [line.split()[1].split("/")[1] for line in first] == [
        "dataset.npz", "manifest.json", "summary.json", "trace.csv"]
    assert digest(tool, tmp_path / "b", CONFIG) == first
    reseeded = digest(tool, tmp_path / "c", CONFIG + "run.seed = 1\n")
    assert all(a.split()[0] != b.split()[0] for a, b in zip(first, reseeded))


def test_a_failing_command_is_named(tool, tmp_path):
    with pytest.raises(RuntimeError, match=r"command 0 \(run\) exited with 2"):
        tool.run_commands(cli_main, [("run", "design.d = 0\n")], tmp_path)
