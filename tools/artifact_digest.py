"""Digest every artifact file of a standard set of sparsepolyak commands.

Imports sparsepolyak from SRC_DIR, runs each command of the standard set
in this process into one temporary output root, and prints one line per
artifact file, ``<sha256> <path relative to the output root>``, in path
order.  Two source trees whose outputs are equal write the same bytes for
the whole set; ``diff`` the two outputs to check it.

The standard set is every invocation of the ``cli_run_desk`` and
``grid_logistic`` workloads at each seed of their pools, read from
``perfbench/workloads.py``, then a default ``grid`` with
``grid.seeds = 0,1``, a default ``sweep``, ``check`` and ``concavity``.

Usage: ``OPENBLAS_NUM_THREADS=1 python tools/artifact_digest.py src > digest.txt``

The solver's last bits follow the BLAS library and its thread count, and
each manifest records the BLAS thread environment, so compare outputs
made on one machine with the same environment.  Exits 1, naming the
command, if a command fails.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DEFAULT_CONFIGS = [("grid", "grid.seeds = 0,1\n"), ("sweep", ""), ("check", ""), ("concavity", "")]


def standard_set() -> list[tuple[str, str]]:
    """(command, config text) of every command of the standard set, in run order."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = []
    for name in ("cli_run_desk", "grid_logistic"):
        workload = workloads.WORKLOADS[name]
        for seed in workload.pool:
            commands += [(inv.command, inv.config) for inv in workload.invocations(seed)]
    return commands + DEFAULT_CONFIGS


def run_commands(cli_main, commands: list[tuple[str, str]], work: Path) -> Path:
    """Run each (command, config text) through ``cli_main``, reports silenced; return the output root.

    Configs are written under ``work``/configs and artifacts under
    ``work``/out.  Raises RuntimeError naming the first command that exits
    nonzero.
    """
    out = work / "out"
    for i, (command, text) in enumerate(commands):
        config = work / "configs" / f"{i}.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"command {i} ({command}) exited with {code}:\n{text}")
    return out


def digest_lines(root: Path) -> list[str]:
    """``<sha256> <relative path>`` of every file under root, in path order."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifact_digest.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    cli = importlib.import_module("sparsepolyak.cli")
    with tempfile.TemporaryDirectory() as work:
        try:
            out = run_commands(cli.main, standard_set(), Path(work))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("\n".join(digest_lines(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
