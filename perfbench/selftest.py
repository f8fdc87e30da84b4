"""Self-test of the benchmark's output check.

Run from the repository root (about three minutes on 2 cores):

    python3 perfbench/selftest.py

1. Runs one pass of every workload with 1 and with 2 BLAS threads.  The
   thread count changes the reduction order inside the BLAS, so cell values
   may differ in their last bits; the check's tolerance must absorb that,
   and every cell must match reference.json.  Prints the largest
   deviation seen next to the tolerance.
2. Corrupts artifacts of a real CLI invocation (a changed error value, a
   changed iteration count, a deleted file) and requires each corruption to
   be counted as a failed cell.

Exits 0 when every expectation holds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench_run
from check import ERROR_RTOL, ITERS_ATOL, load_reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = (1, 2)


def thread_runs() -> list:
    problems = []
    for name in WORKLOADS:
        by_threads = {}
        for threads in THREADS:
            seed = 900 + threads
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--blas-threads", str(threads)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if out.returncode != 0:
                problems.append(f"{name} threads {threads}: exit code {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            detail = json.loads((bench_run.OUT / f"result_{name}_seed{seed}_trace0.json").read_text())
            cells = {c["key"]: c for c in detail["cells"]}
            by_threads[threads] = cells
            worst = max((c.get("error_rel_diff") or 0.0 for c in cells.values()), default=0.0)
            print(f"{name:14s} threads {threads}: {result['failed']}/{result['attempted']} cells failed, "
                  f"largest error_sq deviation from reference {worst:.2e} (tolerance {ERROR_RTOL:.0e})")
            if result["failed"]:
                problems.append(f"{name} threads {threads}: {result['failed']} cells failed")
        if len(by_threads) == len(THREADS):
            one, two = (by_threads[t] for t in THREADS)
            rel = max(abs(one[k]["error_sq"] - two[k]["error_sq"]) / abs(two[k]["error_sq"]) for k in two)
            itf = max(abs(one[k]["iters_to_floor"] - two[k]["iters_to_floor"]) for k in two)
            print(f"{name:14s} 1 vs 2 threads: largest error_sq difference {rel:.2e}, "
                  f"largest iters_to_floor difference {itf} (tolerance {ITERS_ATOL})")
    return problems


def corruption_runs() -> list:
    bench_run.pin_blas(1)
    cli = bench_run.import_library()
    bench_run.OUT.mkdir(exist_ok=True)
    problems = []

    def corrupt_summary(artifacts):
        path = next(artifacts.glob("run_*/summary.json"))
        summary = json.loads(path.read_text())
        summary["final_error_sq"] *= 1.001
        path.write_text(json.dumps(summary))

    def delete_dataset(artifacts):
        next(artifacts.glob("run_*/dataset.npz")).unlink()

    def corrupt_grid_row(artifacts):
        path = next(artifacts.glob("grid_*/comparison.csv"))
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[-1] = str(int(fields[-1]) + 10)
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    # Each corruption touches one cell, which must fail.
    cases = (
        ("cli_run_desk", "final_error_sq scaled by 1.001 in summary.json", corrupt_summary),
        ("cli_run_desk", "dataset.npz deleted", delete_dataset),
        ("grid_logistic", "one iters_to_floor in comparison.csv raised by 10", corrupt_grid_row),
    )
    reference = load_reference()
    with tempfile.TemporaryDirectory(dir=bench_run.OUT) as workdir:
        for name, what, corrupt in cases:
            workload = WORKLOADS[name]
            bench = bench_run.Bench(workload, cli, Path(workdir), reference)
            try:
                inv = workload.invocations(workload.pool[0])[0]
                _, code, run_dir = bench.invoke(inv.command, inv.config)
                clean = sum(not r["ok"] for r in bench.check(inv, code, run_dir))
                corrupt(run_dir / "artifacts")
                results = bench.check(inv, code, run_dir)
            finally:
                bench.close()
            failed = [r for r in results if not r["ok"]]
            print(f"{name:14s} {what}: {len(failed)}/{len(results)} cells failed "
                  f"(expected 1; {clean} before corruption)"
                  + (f" - {failed[0]['reason']}" if failed else ""))
            if clean or len(failed) != 1:
                problems.append(f"{name}: {what} gave {len(failed)} failed cells, expected 1")
    return problems


def main() -> int:
    problems = thread_runs() + corruption_runs()
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
