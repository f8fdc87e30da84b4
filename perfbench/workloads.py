"""The benchmark's workloads: config files handed to ``sparsepolyak.cli.main``.

A workload is a fixed pool of instance seeds.  One *unit* of a workload
is the CLI invocations for one instance seed; a run executes whole passes
over the pool in an order drawn from the benchmark seed, so every run
measures the same cells and every cell has a recorded reference value.

Each invocation also has a *set-up probe*: the same config with a
one-iteration budget.  Its wall time is config parsing, instance
generation, the target value and the spectrum, plus one evaluation per
cell and the (small) artifact writes.  The probe is measured at the CLI
boundary, so it stays valid however the solver is restructured inside.

Why each workload was chosen is recorded in PREDICTIONS.md.
"""

import csv
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    label: str
    command: str
    config: str
    probe_config: str
    cells: tuple  # expected cell keys, in artifact order


@dataclass(frozen=True)
class Cell:
    key: str
    status: str | None  # None when the solver entry point was not observed
    error_sq: float
    iters_to_floor: int
    iterations: int | None  # evaluations of the run (trace rows), when observed


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple  # (n, d) of the design, for the BLAS warm-up
    pool: tuple  # instance seeds; one unit each
    invocations: Callable  # instance seed -> list of Invocation

    def read_cells(self, inv: Invocation, artifacts: Path, outcomes: list) -> dict:
        """Cells found in the invocation's artifacts, keyed like `Invocation.cells`."""
        return _READERS[inv.command](self.name, artifacts, outcomes, inv)


def _config(budget_key: str, budget: int, lines: list) -> tuple:
    body = "\n".join(lines)
    return (f"{body}\n{budget_key} = {budget}\n", f"{body}\n{budget_key} = 1\n")


# C08 shape: logistic, d = 1250, s* = 75, derived n = 2675.
GRID_S = (75, 100, 125, 150, 175)
GRID_ITERS = 150


def _grid_invocations(seed: int) -> list:
    config, probe = _config("grid.max_iters", GRID_ITERS, [
        "noise.family = logistic",
        "design.d = 1250",
        "design.omega = 0.5",
        "truth.s_star = 75",
        "step.kind = sparse_polyak",
        "step.ht_width = auto",
        "grid.s_values = " + ",".join(map(str, GRID_S)),
        f"grid.seeds = {seed}",
    ])
    cells = tuple(f"grid_logistic/seed{seed}/{kind}/s{s}" for kind in ("ht", "rt") for s in GRID_S)
    return [Invocation("grid", "grid", config, probe, cells)]


# Wide linear design: d = 1e4, s* = 20, HT s = 40, derived n = 922.
WIDE_D = 10000
WIDE_ITERS = 150
WIDE_METHODS = ("sparse_polyak", "classic_polyak")


def _wide_invocations(seed: int) -> list:
    config, probe = _config("sweep.max_iters", WIDE_ITERS, [
        "noise.family = linear",
        "noise.sigma = 0.5",
        "design.omega = 0.5",
        "truth.s_star = 20",
        "operator.kind = ht",
        "operator.s = 40",
        f"sweep.d_values = {WIDE_D}",
        f"grid.seeds = {seed}",
    ])
    cells = tuple(f"wide_linear/seed{seed}/{method}" for method in WIDE_METHODS)
    return [Invocation("sweep", "sweep", config, probe, cells)]


# Desk scale: d = 1000, s* = 20, derived n = 691; three single-run configs.
DESK_ITERS = 1500
DESK_CONFIGS = (
    ("default", ["operator.kind = ht", "operator.s = 40", "step.kind = sparse_polyak"]),
    ("rt_s100", ["operator.kind = rt", "operator.s = 100", "step.kind = sparse_polyak"]),
    ("fixed", ["operator.kind = ht", "operator.s = 40", "step.kind = fixed"]),
)


def _desk_invocations(seed: int) -> list:
    out = []
    for label, extra in DESK_CONFIGS:
        config, probe = _config("run.max_iters", DESK_ITERS, [
            "noise.family = linear",
            "noise.sigma = 0.5",
            "design.d = 1000",
            "design.omega = 0.5",
            "truth.s_star = 20",
            *extra,
            f"run.seed = {seed}",
        ])
        out.append(Invocation(label, "run", config, probe, (f"cli_run_desk/seed{seed}/{label}",)))
    return out


def _single(artifacts: Path, pattern: str) -> Path:
    found = sorted(artifacts.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} under the output root, found {len(found)}")
    return found[0]


def _outcome(outcomes: list, **match) -> tuple:
    hits = [o for o in outcomes if all(o.get(k) == v for k, v in match.items())]
    if len(hits) != 1:
        return None, None
    return hits[0]["status"], hits[0]["iterations"]


def _read_grid(name, artifacts, outcomes, inv) -> dict:
    cells = {}
    with open(_single(artifacts, "grid_*/comparison.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"{name}/seed{int(row['seed'])}/{row['operator']}/s{int(row['s'])}"
            status, iters = _outcome(outcomes, kind=row["operator"], s=int(row["s"]))
            cells[key] = Cell(key, status, float(row["final_error_sq"]),
                              int(row["iters_to_floor"]), iters)
    return cells


def _read_sweep(name, artifacts, outcomes, inv) -> dict:
    cells = {}
    with open(_single(artifacts, "sweep_*/sweep.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"{name}/seed{int(row['seed'])}/{row['method']}"
            status, iters = _outcome(outcomes, step=row["method"])
            cells[key] = Cell(key, status, float(row["plateau_error_sq"]),
                              int(row["iters_to_plateau"]), iters)
    return cells


def _read_run(name, artifacts, outcomes, inv) -> dict:
    run_dir = _single(artifacts, "run_*/summary.json").parent
    summary = json.loads((run_dir / "summary.json").read_text())
    for required in ("trace.csv", "manifest.json", "dataset.npz"):
        if not (run_dir / required).is_file():
            raise FileNotFoundError(f"run artifact {required} is missing")
    with open(run_dir / "trace.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != summary["iterations"] + 1:
        raise ValueError(f"trace.csv has {rows} rows, summary.json reports "
                         f"{summary['iterations']} iterations")
    key = inv.cells[0]
    return {key: Cell(key, summary["status"], float(summary["final_error_sq"]),
                      int(summary["iters_to_floor"]), rows)}


_READERS = {"grid": _read_grid, "sweep": _read_sweep, "run": _read_run}

# wide_linear is not in BENCHMARK.json: its timings were not steady on a
# shared host (see PREDICTIONS.md).  It stays runnable for d = 1e4 layers.
WORKLOADS = {
    w.name: w for w in (
        Workload("grid_logistic", (2675, 1250), tuple(range(5)), _grid_invocations),
        Workload("wide_linear", (922, 10000), tuple(range(4)), _wide_invocations),
        Workload("cli_run_desk", (691, 1000), tuple(range(8)), _desk_invocations),
    )
}
