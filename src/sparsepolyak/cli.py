"""Command-line harness: single runs, operator grids, dimension sweeps, reports.

Subcommands
    run        one optimizer run; writes trace.csv, summary.json, manifest.json, dataset.npz
    grid       operator-vs-sparsity grid search; writes comparison.csv and a text summary
    sweep      dimension sweep at constant statistical difficulty, operator.kind at
               min(operator.s, d); writes sweep.csv
    concavity  thresholding-operator concavity certification; writes concavity.json
    check      curvature-assumption sampling report; writes assumptions.json

Every cell (one instance run with one operator and one step rule) gets its
rule from `optimizer.make_step_rule`.  `grid` and `sweep` build their cell
list and one argument tuple per instance and map
`diagnostics.run_instance_cells` over the instances; `run` calls
`optimizer.run` and measures the plateau with the same `diagnostics.plateau`.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a stalled
step rule, a non-finite target value, objective evaluation or step size).

Every artifact directory carries a manifest (config echo, seeds, schema and
toolkit versions, config hash) sufficient to reproduce it byte for byte;
output directories are named `<command>_<config hash>`, and `_publish` writes
every command's text artifacts, its manifest and its report the same way.
The output root is --out, else $SPARSEPOLYAK_OUT, else ./runs; it is not part
of the config, so it does not change the hash.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, derived_n, load_config, resolve_config
from .dataio import (
    atomic_write_text,
    config_hash,
    dataset_to_npz,
    write_manifest,
    write_summary_json,
    write_trace_csv,
)
from .diagnostics import (
    active_median_step,
    check_assumptions,
    make_instance,
    plateau,
    run_instance_cells,
    step_target,
    summarize_comparison,
)
from .optimizer import (
    CLASSIC_POLYAK,
    FIXED,
    SPARSE_POLYAK,
    OptimizerError,
    RunConfig,
    RunStatus,
    RunTrace,
    make_step_rule,
    run,
)
from .rng import usable_cpus
from .synthdata import compute_regularity
from .thresholding import HT, RT, ThresholdSpec, empirical_relative_concavity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _artifact_dir(out_root: Path, command: str, cfg: ExperimentConfig) -> Path:
    return out_root / f"{command}_{config_hash(cfg.echo)}"


def _publish(out_root: Path, command: str, cfg: ExperimentConfig, seeds: list[int],
             files: dict[str, str], report: str) -> None:
    """Write each named text file, then the manifest, into the command's
    artifact directory; then print the report and the directory.

    `run` writes its trace, summary and dataset into `_artifact_dir` first
    and publishes no text file of its own.
    """
    out_dir = _artifact_dir(out_root, command, cfg)
    for name, text in files.items():
        atomic_write_text(out_dir / name, text)
    write_manifest(out_dir / "manifest.json", cfg.echo, seeds)
    print(report, end="")
    print(f"artifacts: {out_dir}")


def cmd_run(cfg: ExperimentConfig, out_root: Path) -> int:
    s_star = max(cfg.s_star, 1)
    if cfg.step_kind == FIXED and cfg.operator_s < s_star:
        raise ConfigError(f"operator.s: the fixed step 1/L_hat needs operator.s >= truth.s_star "
                          f"= {s_star}, got {cfg.operator_s}")
    model, theta_star = make_instance(cfg.design, cfg.s_star, cfg.noise, cfg.seed)
    f_hat = step_target(model, theta_star, cfg.f_hat)
    rule = make_step_rule(cfg.step_kind, f_hat, cfg.ht_width, cfg.design, cfg.operator_s, cfg.s_star)
    op = ThresholdSpec(kind=cfg.operator_kind, s=cfg.operator_s)
    trace = run(RunConfig(model=model, operator=op, step_rule=rule, max_iters=cfg.max_iters,
                          theta_star=theta_star))

    out_dir = _artifact_dir(out_root, "run", cfg)
    write_trace_csv(trace, out_dir / "trace.csv")
    _, hit = plateau(trace.error_sq)
    write_summary_json(out_dir / "summary.json", trace, hit)
    dataset_to_npz(model, out_dir / "dataset.npz", cfg.seed)
    _publish(out_root, "run", cfg, [cfg.seed], {},
             f"run: status={trace.status.value} iters={len(trace) - 1} "
             f"final_f={trace.f_value[-1]:.6g} final_error_sq={trace.error_sq[-1]:.6g}\n")
    if trace.status is RunStatus.STALLED_ZERO_GRADIENT:
        print("numerical failure: step rule stalled (positive gap, zero thresholded "
              "gradient); the target value is unattainable at this sparsity", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _pmap(task, items, workers: int):
    """``task(*item)`` for each item, in order.

    Runs in a process pool of at most one worker per item and per CPU this
    process may use (`usable_cpus`), or in this process when that leaves
    one worker; the pool modules are imported only in the first case.  A
    pool worker draws its designs on one thread (`synthdata._draw_threads`).
    """
    workers = min(workers, len(items), usable_cpus())
    if workers <= 1:
        return [task(*item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, *zip(*items)))


def _outcome(trace: RunTrace) -> str:
    """The ``status,iterations`` fields of a grid or sweep row, as `summary.json` counts them."""
    return f"{trace.status.value},{len(trace) - 1}"


def cmd_grid(cfg: ExperimentConfig, out_root: Path, workers: int) -> int:
    if cfg.step_kind == FIXED:
        raise ConfigError("step.kind: the grid comparison needs an adaptive rule "
                          "(sparse_polyak or classic_polyak)")
    cells = [(ThresholdSpec(kind=kind, s=s), cfg.step_kind) for kind in (HT, RT) for s in cfg.s_grid]
    items = [(cfg.design, cfg.s_star, cfg.noise, seed, cells, cfg.grid_max_iters,
              cfg.ht_width, cfg.f_hat) for seed in cfg.seeds]
    detail, outcomes = [], []
    for seed, runs in zip(cfg.seeds, _pmap(run_instance_cells, items, workers)):
        for (op, _), (trace, _, hit) in zip(cells, runs):
            detail.append((op.kind, op.s, seed, float(trace.error_sq[-1]), hit))
            outcomes.append(_outcome(trace))
    rows = summarize_comparison(detail, cfg.s_grid)

    csv_lines = ["operator,s,seed,status,iterations,final_error_sq,iters_to_floor"]
    for (kind, s, seed, err, itf), outcome in zip(detail, outcomes):
        csv_lines.append(f"{kind},{s},{seed},{outcome},{err:.12g},{itf}")
    lines = [
        f"{'operator':<10} {'best s':>8} {'median final error^2':>22} {'iters to floor':>16}",
    ]
    for kind in (HT, RT):
        row = rows[kind]
        lines.append(f"{kind:<10} {row.best_s:>8} {row.final_error_sq:>22.6g} {row.iters_to_floor:>16}")
    summary = "\n".join(lines) + "\n"
    _publish(out_root, "grid", cfg, cfg.seeds,
             {"comparison.csv": "\n".join(csv_lines) + "\n", "summary.txt": summary}, summary)
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_root: Path, workers: int) -> int:
    if not cfg.sweep_d_values:
        raise ConfigError("sweep.d_values: dimension list must be nonempty")
    if any(d < cfg.s_star for d in cfg.sweep_d_values):
        raise ConfigError(f"sweep.d_values: every dimension must be >= truth.s_star = "
                          f"{cfg.s_star}, got {cfg.sweep_d_values}")
    methods = (SPARSE_POLYAK, CLASSIC_POLYAK)
    items = []
    for d in cfg.sweep_d_values:
        design = replace(cfg.design, n=derived_n(cfg.n_factor, cfg.s_star, d), d=d)
        cells = [(ThresholdSpec(kind=cfg.operator_kind, s=min(cfg.operator_s, d)), method) for method in methods]
        items += [(design, cfg.s_star, cfg.noise, seed, cells, cfg.sweep_max_iters,
                   cfg.ht_width, cfg.f_hat) for seed in cfg.seeds]
    detail = [(design.d, design.n, seed, method, level, hit, active_median_step(trace.step_size, hit),
               _outcome(trace))
              for (design, _, _, seed, *_), runs in zip(items, _pmap(run_instance_cells, items, workers))
              for method, (trace, level, hit) in zip(methods, runs)]

    csv_lines = ["d,n,seed,method,status,iterations,plateau_error_sq,iters_to_plateau,median_active_step"]
    for d, n, seed, method, level, hit, step, outcome in detail:
        csv_lines.append(f"{d},{n},{seed},{method},{outcome},{level:.12g},{hit},{step:.12g}")
    lines = [f"{'d':>6} {'n':>6} {'method':<16} {'median plateau':>15} {'median iters':>13} {'median step':>12}"]
    report = {}
    for d in cfg.sweep_d_values:
        for method in methods:
            rows = [r for r in detail if r[0] == d and r[3] == method]
            med_level = float(np.median([r[4] for r in rows]))
            med_hit = float(np.median([r[5] for r in rows]))
            med_step = float(np.median([r[6] for r in rows]))
            report[(d, method)] = (med_level, med_hit, med_step)
            lines.append(f"{d:>6} {rows[0][1]:>6} {method:<16} {med_level:>15.6g} {med_hit:>13.0f} {med_step:>12.6g}")
    sparse_hits = [report[(d, SPARSE_POLYAK)][1] for d in cfg.sweep_d_values]
    if min(sparse_hits) > 0:
        lines.append(f"sparse polyak iters-to-plateau spread (max/min): {max(sparse_hits) / min(sparse_hits):.3f}")
    summary = "\n".join(lines) + "\n"
    _publish(out_root, "sweep", cfg, cfg.seeds,
             {"sweep.csv": "\n".join(csv_lines) + "\n", "summary.txt": summary}, summary)
    return EXIT_OK


def _concavity_cell_task(kind, s, s_star, dim, trials, seed):
    est = empirical_relative_concavity(ThresholdSpec(kind=kind, s=s), s_star, dim, trials, seed)
    bound = est.theoretical_bound
    return {
        "operator": kind,
        "dim": dim,
        "s": s,
        "s_star": s_star,
        "estimate": est.estimate,
        "theoretical_bound": bound,
        "trials": est.trials,
        "within_bound": None if bound is None else bool(est.estimate <= bound + 1e-9),
    }


def cmd_concavity(cfg: ExperimentConfig, out_root: Path, workers: int) -> int:
    items = [
        (kind, s, s_star, dim, cfg.concavity_trials, cfg.seed)
        for dim in cfg.concavity_dims
        for s in cfg.concavity_s_values
        if s <= dim
        for s_star in range(1, s + 1)
        for kind in (HT, RT)
    ]
    if not cfg.concavity_dims:
        raise ConfigError("concavity.dims: dimension list must be nonempty")
    if not items:
        raise ConfigError(f"concavity.s_values: need an entry at most the largest dimension, "
                          f"max(concavity.dims) = {max(cfg.concavity_dims)}, got {cfg.concavity_s_values}")
    cells = _pmap(_concavity_cell_task, items, workers)
    violations = [c for c in cells if c["within_bound"] is False]
    _publish(out_root, "concavity", cfg, [cfg.seed], {"concavity.json": json.dumps(cells, indent=2) + "\n"},
             f"concavity: {len(cells)} cells, {len(violations)} bound violations\n")
    return EXIT_OK


def cmd_check(cfg: ExperimentConfig, out_root: Path) -> int:
    params = compute_regularity(cfg.design, cfg.operator_s)
    model, _ = make_instance(cfg.design, cfg.s_star, cfg.noise, cfg.seed)
    reports = check_assumptions(model, params, cfg.check_pairs, cfg.seed)
    payload = {
        "constants": {"mu": params.mu, "L": params.L, "tau": params.tau, "s": params.s,
                      "mu_bar": params.mu_bar, "L_bar": params.L_bar,
                      "kappa_bar": params.kappa_bar},
        "reports": [
            {"assumption": r.assumption, "pairs_tested": r.pairs_tested,
             "violations": r.violations, "worst_margin": r.worst_margin}
            for r in reports
        ],
    }
    report = "".join(f"{r.assumption}: {r.violations}/{r.pairs_tested} violations, "
                     f"worst margin {r.worst_margin:.3g}\n" for r in reports)
    _publish(out_root, "check", cfg, [cfg.seed], {"assumptions.json": json.dumps(payload, indent=2) + "\n"},
             report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsepolyak",
        description="Sparse Polyak benchmark harness (see config-schema.txt for config keys)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("run", "single optimizer run"),
        ("grid", "operator-vs-sparsity grid search"),
        ("sweep", "dimension sweep at constant statistical difficulty"),
        ("concavity", "concavity certification of the thresholding operators"),
        ("check", "curvature assumption sampling report"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=str, default=None, help="config file (defaults apply if omitted)")
        p.add_argument("--out", type=str, default=None,
                       help="output root directory (default $SPARSEPOLYAK_OUT, else ./runs)")
        p.add_argument("--workers", type=int, default=1, help="parallel workers for grid/sweep/concavity cells")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config) if args.config else resolve_config({})
        out_root = Path(args.out or os.environ.get("SPARSEPOLYAK_OUT", "runs"))
        if args.command == "run":
            return cmd_run(cfg, out_root)
        if args.command == "grid":
            return cmd_grid(cfg, out_root, args.workers)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_root, args.workers)
        if args.command == "concavity":
            return cmd_concavity(cfg, out_root, args.workers)
        return cmd_check(cfg, out_root)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OptimizerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
