"""Output check: every cell against the reference values recorded in reference.json.

A cell matches when its status is the recorded one, its squared error is
within `ERROR_RTOL` (relative) of the recorded one, and its iterations to
the floor and its iteration count are within `ITERS_ATOL`.  The
tolerances absorb BLAS reduction-order changes (thread count, batching of
products): ``python3 perfbench/selftest.py`` reruns every workload with 1
and 2 BLAS threads and expects zero mismatches, and shows that a corrupted
artifact is caught.  A cell missing from the artifacts, or absent from the
reference, fails.
"""

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

ERROR_RTOL = 1e-9
ITERS_ATOL = 2


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["cells"]


def save_reference(cells: dict) -> None:
    payload = {"note": "recorded by perfbench/run.py --record-reference",
               "error_rtol": ERROR_RTOL, "iters_atol": ITERS_ATOL,
               "cells": dict(sorted(cells.items()))}
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


def cell_record(cell) -> dict:
    return {"status": cell.status, "error_sq": cell.error_sq,
            "iters_to_floor": cell.iters_to_floor, "iterations": cell.iterations}


def compare(cell, ref: dict | None) -> tuple:
    """(ok, reason, relative squared-error difference or None) for one cell."""
    if ref is None:
        return False, "no reference value for this cell", None
    if not math.isfinite(cell.error_sq):
        return False, "non-finite squared error", None
    rel = abs(cell.error_sq - ref["error_sq"]) / max(abs(ref["error_sq"]), 1e-300)
    if cell.status is not None and cell.status != ref["status"]:
        return False, f"status {cell.status} != {ref['status']}", rel
    if rel > ERROR_RTOL:
        return False, f"error_sq {cell.error_sq!r} vs {ref['error_sq']!r} (rel {rel:.2e})", rel
    if abs(cell.iters_to_floor - ref["iters_to_floor"]) > ITERS_ATOL:
        return False, f"iters_to_floor {cell.iters_to_floor} vs {ref['iters_to_floor']}", rel
    if cell.iterations is not None and abs(cell.iterations - ref["iterations"]) > ITERS_ATOL:
        return False, f"iterations {cell.iterations} vs {ref['iterations']}", rel
    return True, "", rel
