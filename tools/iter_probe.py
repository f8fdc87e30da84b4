"""Per-iteration time of one linear run at each given dimension d, each in a fresh process.

The run is one desk cell of ``sparsepolyak run``: linear responses with
noise sigma = 0.5, an AR(1) design with omega = 0.5 and the derived n,
s* = 20, hard thresholding at s = 40 with the sparse Polyak step (target
f(theta*)), seed 0 and at most ``--max-iters`` (default 1500) iterations.
Each d runs in its own child process, one after another, with the BLAS
thread variables set to 1 before numpy loads.

Prints one line per d, ``d n iterations ms_per_iter setup_s``:
iterations counts the updates, as ``run`` reports them; ms_per_iter is
the wall time of ``optimizer.run`` over them; setup_s is the wall time of
``diagnostics.instance_cells`` (design, truth, responses, target value and
the cell's config).

Usage: ``PYTHONPATH=src python tools/iter_probe.py 1000 10000 100000``

The children inherit the environment, so sparsepolyak must be importable
there (installed, or ``PYTHONPATH=src``).  At d = 1e5 a child holds about
1 GB.  Exits 1, naming d, if a child fails.
"""

import argparse
import os
import subprocess
import sys
import time

ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def probe(d: int, max_iters: int) -> str:
    """``d n iterations ms_per_iter setup_s`` of one run at dimension d, in this process."""
    from sparsepolyak.config import resolve_config
    from sparsepolyak.diagnostics import instance_cells
    from sparsepolyak.optimizer import run
    from sparsepolyak.thresholding import ThresholdSpec

    cfg = resolve_config({"noise.sigma": 0.5, "design.d": d, "design.omega": 0.5, "truth.s_star": 20,
                          "operator.kind": "ht", "operator.s": 40, "step.kind": "sparse_polyak",
                          "run.max_iters": max_iters})
    cell = (ThresholdSpec(kind=cfg.operator_kind, s=cfg.operator_s), cfg.step_kind)
    t0 = time.perf_counter()
    _, (config,) = instance_cells(cfg.design, cfg.s_star, cfg.noise, cfg.seed, [cell], cfg.max_iters,
                                  cfg.ht_width, cfg.f_hat)
    t1 = time.perf_counter()
    iterations = len(run(config)) - 1
    t2 = time.perf_counter()
    return f"{d} {cfg.design.n} {iterations} {1e3 * (t2 - t1) / max(iterations, 1):.4f} {t1 - t0:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-iters", type=int, default=1500, help="iteration budget (default 1500)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("dims", type=int, nargs="+", help="dimensions d, one fresh process each")
    opts = parser.parse_args(argv)
    if opts.child:
        print(probe(opts.dims[0], opts.max_iters))
        return 0
    if opts.max_iters < 1:
        parser.error("need --max-iters >= 1")
    env = {**os.environ, **ONE_THREAD}
    for d in opts.dims:
        done = subprocess.run([sys.executable, __file__, "--child", "--max-iters", str(opts.max_iters), str(d)],
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"d = {d}: the probe exited with {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
