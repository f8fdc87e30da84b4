"""Repository benchmark: drives ``sparsepolyak.cli.main`` in-process, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload grid_logistic --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  A run makes whole passes over
the workload's instance pool, in an order drawn from ``--seed``, for about
``--seconds``.  Every invocation goes through the CLI entry point with
``--workers 1``, so cells run in this process and the tracer sees them.
BLAS threads are pinned (``--blas-threads``, default 1) before numpy is
imported: on a shared 2-core machine a single BLAS thread gave about half
the run-to-run spread of two.  A BLAS product at the workload's shape runs untimed
before the timed phase.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers (``tracing.py``), runs each invocation once untraced and once
traced, prints the per-layer metrics and writes the spans to
``.perfbench_out/``.  Every run checks each cell against
``reference.json`` (``check.py``).  Above the last line, stdout names every
metric with its unit, the output check and the environment; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record-reference`` runs one pass and stores its cells as the reference.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from check import REFERENCE, cell_record, compare, load_reference, save_reference
from tracing import Patches, SpanStats, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up probes per invocation; a unit's set-up time sums their medians.
SETUP_PROBES = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas(threads: int) -> None:
    """Must run before numpy is imported; the BLAS reads these at load time."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


def import_library():
    """Import the package from this checkout's src/, never from anywhere else."""
    if not (SRC / "sparsepolyak" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sparsepolyak package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sparsepolyak.cli
    if Path(sparsepolyak.__file__).resolve().parent != (SRC / "sparsepolyak").resolve():
        raise ImportError(f"sparsepolyak imported from {sparsepolyak.__file__}, not {SRC}")
    return sparsepolyak.cli


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sparsepolyak").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def warm_up(shape) -> None:
    """Untimed BLAS products at the workload's design shape."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal(shape)
    v = rng.standard_normal(shape[1])
    for _ in range(5):
        r = X @ v
        v = X.T @ r / shape[0]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """Invokes the CLI on generated configs and checks what it writes."""

    def __init__(self, workload, cli, workdir: Path, reference: dict):
        self.workload = workload
        self.cli = cli
        self.workdir = workdir
        self.reference = reference
        self.outcomes = []
        self.patches = Patches()
        self.patches.wrap("optimizer", "run", self._recording)
        spectrum = getattr(sys.modules.get("sparsepolyak.synthdata"), "design_spectrum", None)
        self.clear_caches = getattr(spectrum, "cache_clear", lambda: None)

    def _recording(self, fn):
        """Wrap the solver entry point to record each run's status and length."""
        outcomes = self.outcomes

        @functools.wraps(fn)
        def recorded(config, *args, **kwargs):
            trace = fn(config, *args, **kwargs)
            op = getattr(config, "operator", None)
            outcomes.append({
                "kind": getattr(op, "kind", None),
                "s": getattr(op, "s", None),
                "step": getattr(getattr(config, "step_rule", None), "kind", None),
                "status": trace.status.value,
                "iterations": len(trace),
            })
            return trace

        return recorded

    def close(self):
        self.patches.restore()

    def invoke(self, command: str, config_text: str):
        """One CLI call, as a fresh process would make it.  Returns (wall_s, exit code, dir)."""
        run_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        cfg = run_dir / "bench.cfg"
        cfg.write_text(config_text)
        argv = [command, "--config", str(cfg), "--out", str(run_dir / "artifacts"), "--workers", "1"]
        self.outcomes.clear()
        self.clear_caches()  # the spectrum cache does not outlive a CLI process
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - start
        return wall, code, run_dir

    def check(self, inv, code, run_dir: Path) -> list:
        """One result dict per expected cell of the invocation."""
        if code != 0:
            return [failed_cell(key, f"exit code {code}") for key in inv.cells]
        try:
            cells = self.workload.read_cells(inv, run_dir / "artifacts", list(self.outcomes))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [failed_cell(key, f"unreadable artifacts: {exc}") for key in inv.cells]
        results = []
        for key in inv.cells:
            cell = cells.get(key)
            if cell is None:
                results.append(failed_cell(key, "missing from the artifacts"))
                continue
            ref = self.reference.get(key)
            ok, reason, rel = compare(cell, ref)
            results.append({
                "key": key, "ok": ok, "reason": reason, "error_rel_diff": rel,
                "status": cell.status, "error_sq": cell.error_sq,
                "iters_to_floor": cell.iters_to_floor, "iterations": cell.iterations,
                "ref_iterations": (ref or {}).get("iterations"),
            })
        return results


def failed_cell(key: str, reason: str) -> dict:
    return {"key": key, "ok": False, "reason": reason}


def pass_order(pool, seed: int) -> list:
    order = list(pool)
    random.Random(seed).shuffle(order)
    return order


def run_passes(seconds: float, order: list, run_unit) -> int:
    """Whole passes over the pool while another pass still fits in ``seconds``."""
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for instance in order:
            run_unit(instance)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t_pass) > seconds:
            return passes


def measure_end_to_end(bench, order, seconds):
    units, checked = [], []

    def run_unit(instance):
        setup = wall = 0.0
        cells = 0
        for inv in bench.workload.invocations(instance):
            probe_walls, probe_codes = [], set()
            for _ in range(SETUP_PROBES):
                probe_wall, probe_code, probe_dir = bench.invoke(inv.command, inv.probe_config)
                shutil.rmtree(probe_dir)
                probe_walls.append(probe_wall)
                probe_codes.add(probe_code)
            inv_wall, code, run_dir = bench.invoke(inv.command, inv.config)
            results = bench.check(inv, code, run_dir)
            shutil.rmtree(run_dir)
            if probe_codes != {0}:
                results = [failed_cell(r["key"], f"set-up probe exit codes {probe_codes}")
                           for r in results]
            setup += statistics.median(probe_walls)
            wall += inv_wall
            cells += len(inv.cells)
            checked.extend(results)
        units.append((setup, wall, cells))

    passes = run_passes(seconds, order, run_unit)
    ok = [r for r in checked if r["ok"]]
    ref_iters = sum(r["ref_iterations"] or r["iterations"] or 0 for r in ok)
    solve_time = sum(wall - setup for setup, wall, _ in units)
    metrics = {
        "setup_s": (statistics.median(s for s, _, _ in units), "s"),
        "wall_s": (statistics.median(w for _, w, _ in units), "s"),
        "iters_per_s": (ref_iters / solve_time if solve_time > 0 else 0.0, "1/s"),
        "cell_s_p50": (statistics.median(w / c for _, w, c in units), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cells_ok_frac": (len(ok) / len(checked), "frac"),
        "final_error_sq_p50": (statistics.median(r["error_sq"] for r in ok) if ok else 0.0, "1"),
        "iters_to_floor_p50": (statistics.median(r["iters_to_floor"] for r in ok) if ok else 0.0, "iter"),
    }
    notes = {"passes": passes, "units": len(units), "cells": len(checked),
             "unit_setup_s": [round(s, 4) for s, _, _ in units],
             "unit_wall_s": [round(w, 4) for _, w, _ in units]}
    return metrics, checked, notes


def measure_per_layer(bench, order, seconds, tracer):
    plain, traced, checked = [], [], []
    counters = {"units": 0, "iterations": 0, "bytes": 0}

    def run_unit(instance):
        first_traced = counters["units"] % 2 == 1  # alternate which side runs first
        for inv in bench.workload.invocations(instance):
            for is_traced in (first_traced, not first_traced):
                if is_traced:
                    tracer.context = f"u{counters['units']}.{inv.label}"
                    tracer.install()
                try:
                    wall, code, run_dir = bench.invoke(inv.command, inv.config)
                finally:
                    if is_traced:
                        tracer.uninstall()
                checked.extend(bench.check(inv, code, run_dir))
                if is_traced:
                    traced.append(wall)
                    counters["iterations"] += sum(o["iterations"] for o in bench.outcomes)
                    counters["bytes"] += dir_bytes(run_dir / "artifacts")
                else:
                    plain.append(wall)
                shutil.rmtree(run_dir)
        counters["units"] += 1

    passes = run_passes(seconds, order, run_unit)
    st = SpanStats(tracer.spans)
    units, iters = counters["units"], counters["iterations"]

    def per_unit(x):
        return x / units

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    vg = "objectives.value_and_gradient"
    metrics = {
        "synthdata.generate_design.s": (per_unit(st.seconds("synthdata.generate_design")), "s"),
        "synthdata.design_spectrum.s": (per_unit(st.seconds("synthdata.design_spectrum")), "s"),
        "synthdata.design_spectrum.calls": (per_unit(st.count("synthdata.design_spectrum")), "count"),
        "objectives.value_and_gradient.calls": (per_unit(st.count(vg)), "count"),
        "objectives.value_and_gradient.s": (per_unit(st.seconds(vg)), "s"),
        "objectives.value_and_gradient.ms_per_call": (ratio(st.seconds(vg), st.count(vg), 1e3), "ms"),
        "objectives.target_value.s": (per_unit(st.seconds("objectives.target_value")), "s"),
        "thresholding.calls_per_iter": (ratio(st.outer_calls.get("thresholding", 0), iters), "count/iter"),
        "thresholding.hard_threshold.s": (per_unit(st.seconds("thresholding.hard_threshold")), "s"),
        "thresholding.reciprocal_threshold.s": (per_unit(st.seconds("thresholding.reciprocal_threshold")), "s"),
        "thresholding.ms_per_call": (ratio(st.outer_total.get("thresholding", 0.0),
                                           st.outer_calls.get("thresholding", 0), 1e3), "ms"),
        "optimizer.run.calls": (per_unit(st.count("optimizer.run")), "count"),
        "optimizer.iterations": (per_unit(iters), "count"),
        "optimizer.run.self_s": (per_unit(st.self_time.get("optimizer.run", 0.0)), "s"),
        "optimizer.step_rule.s": (per_unit(st.seconds("optimizer.sparse_polyak_step",
                                                      "optimizer.classic_polyak_step")), "s"),
        "optimizer.iter_ms": (ratio(st.seconds("optimizer.run"), iters, 1e3), "ms"),
        "diagnostics.make_instance.s": (per_unit(st.seconds("diagnostics.make_instance")), "s"),
        "diagnostics.plateau.s": (per_unit(st.seconds("diagnostics.plateau_level",
                                                      "diagnostics.iters_to_plateau")), "s"),
        "dataio.write.s": (per_unit(st.outer_total.get("dataio", 0.0)), "s"),
        "dataio.bytes_written": (per_unit(counters["bytes"]), "bytes"),
        "config.load_config.s": (per_unit(st.seconds("config.load_config")), "s"),
        "cli.command.s": (per_unit(st.seconds("cli.cmd_run", "cli.cmd_grid", "cli.cmd_sweep")), "s"),
        "trace.overhead_frac": (sum(traced) / sum(plain) - 1.0, "frac"),
    }
    notes = {"passes": passes, "units": units, "spans": len(tracer.spans), "cells": len(checked)}
    return metrics, checked, notes


def record_reference(bench, workload, reference: dict) -> int:
    """Run one pass without timing and store its cells in reference.json."""
    recorded = 0
    for instance in workload.pool:
        for inv in workload.invocations(instance):
            _, code, run_dir = bench.invoke(inv.command, inv.config)
            if code != 0:
                raise RuntimeError(f"{inv.label} seed {instance}: exit code {code}")
            cells = workload.read_cells(inv, run_dir / "artifacts", list(bench.outcomes))
            shutil.rmtree(run_dir)
            for key in inv.cells:
                cell = cells[key]
                if cell.status is None or cell.iterations is None:
                    raise RuntimeError(f"{key}: solver outcome not observed")
                reference[key] = cell_record(cell)
                recorded += 1
    save_reference(reference)
    print(f"recorded {recorded} cells of {workload.name}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="BLAS threads, at most nproc (default 1)")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.blas_threads is not None and not 1 <= args.blas_threads <= nproc():
        p.error(f"--blas-threads must lie in [1, {nproc()}]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = args.blas_threads or 1
    pin_blas(threads)
    try:
        cli = import_library()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = load_reference() if REFERENCE.is_file() else {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}_", dir=OUT))
    bench = Bench(workload, cli, workdir, reference)
    try:
        if args.record_reference:
            return record_reference(bench, workload, reference)
        env = environment(threads)
        warm_up(workload.shape)
        order = pass_order(workload.pool, args.seed)
        if args.trace:
            tracer = Tracer()
            metrics, checked, notes = measure_per_layer(bench, order, args.seconds, tracer)
            tracer.write_csv(OUT / f"spans_{workload.name}_seed{args.seed}.csv")
        else:
            metrics, checked, notes = measure_end_to_end(bench, order, args.seconds)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in checked if not r["ok"]]
    for r in failed[:10]:
        print(f"perfbench: cell {r['key']} failed: {r['reason']}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  env=env, notes=notes,
                  cells=checked)
    (OUT / f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in notes.items() if not isinstance(v, list)))
    print(f"output check: {len(checked) - len(failed)}/{len(checked)} cells match reference.json")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
