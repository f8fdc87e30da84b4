"""Peak resident memory and wall time of a sparsepolyak command, each run in a fresh process.

Runs ``python -m sparsepolyak.cli <args>`` N times, one child after
another, with the child's stdout sent to /dev/null, and prints one line
per run, ``peak_rss_mb <value> wall_s <value>``: the child's own peak RSS
as the kernel reports it when the child is reaped (``os.wait4``'s
``ru_maxrss``, in KiB on Linux, divided by 1024 as perfbench's
``peak_rss_mb`` is), and the wall time from its spawn to its reaping, so
start-up (interpreter, imports) is counted.

Usage: ``python tools/peak_rss.py [-n N] -- check --config exp.cfg --out runs``

The children inherit the environment, so sparsepolyak must be importable
there (installed, or ``PYTHONPATH=src``), and BLAS thread counts are set
there too.  Exits 1, naming the run, if a child fails.
"""

import argparse
import os
import sys
import time


def fresh_run(args: list[str]) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of one ``python -m sparsepolyak.cli *args`` child."""
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "sparsepolyak.cli", *args], os.environ,
                         file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", "--runs", type=int, default=3, help="fresh processes to run (default 3)")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="sparsepolyak arguments, after --")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if opts.runs < 1 or not args:
        parser.error("need --runs >= 1 and a sparsepolyak command after --")
    for i in range(opts.runs):
        code, mb, wall = fresh_run(args)
        if code != 0:
            print(f"run {i + 1}: sparsepolyak exited with {code}", file=sys.stderr)
            return 1
        print(f"peak_rss_mb {mb:.2f} wall_s {wall:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
