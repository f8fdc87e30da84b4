"""File formats: the dataset container, run traces, summaries, manifests.

A problem record `ObjectiveModel(family, X, y)` is written as a dataset NPZ:
binary arrays X, y plus a JSON metadata header (n, d, the model's family,
seed, schema version) for exact replay.  The container is the one
`np.savez` builds, byte for byte (a stored zip64 archive with ZipFile's
fixed 1980 timestamps), but each `.npy` member is streamed from its
array's own buffer, so writing it holds no copy of X.  Schema version 2
added the ``status`` and ``iterations`` columns of the grid and sweep CSVs;
version 3 drops ``config`` and ``config_hash`` from ``summary.json``
(the manifest beside it holds both), and `check` draws its pairs from one
stream per chunk.

Run traces are CSV with the fixed header
``iter,f_value,step_size,grad_ht_norm_sq,error_sq,support_size`` and 12
significant digits.  All writes go through one atomic path (temp file,
fsync, rename), so a reader, or a second process writing the same
config-hash directory, never sees a partial file; files get the umask's
default mode, as with a plain ``open``.
"""

import hashlib
import json
import os
import secrets
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .objectives import ObjectiveModel
from .optimizer import RunTrace

SCHEMA_VERSION = 3
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_HEADER = "iter,f_value,step_size,grad_ht_norm_sq,error_sq,support_size"
_TRACE_ROW = "%d,%.12g,%.12g,%.12g,%.12g,%d\n"


@contextmanager
def _atomic_file(path):
    """Binary handle on a sibling temp file that replaces ``path`` on success.

    The temp file is created like a plain ``open``, so the artifact gets
    the umask's default mode; it is synced before the rename, and removed
    if writing fails.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}_{secrets.token_hex(4)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    with _atomic_file(path) as fh:
        fh.write(payload)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def config_hash(echo: dict) -> str:
    """Short content hash of a canonicalized configuration echo."""
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def trace_csv_text(trace: RunTrace) -> str:
    """The header and one row per iteration."""
    rows = zip(range(len(trace)), trace.f_value.tolist(), trace.step_size.tolist(),
               trace.grad_ht_norm_sq.tolist(), trace.error_sq.tolist(), trace.support_size.tolist())
    return TRACE_HEADER + "\n" + "".join([_TRACE_ROW % row for row in rows])


def write_trace_csv(trace: RunTrace, path) -> None:
    atomic_write_text(path, trace_csv_text(trace))


def write_summary_json(path, trace: RunTrace, iters_to_floor: int | None) -> None:
    """Status, iterations, final values and floor timing; the config is in the manifest beside it."""
    summary = {
        "status": trace.status.value,
        "iterations": len(trace) - 1,
        "final_f_value": float(trace.f_value[-1]),
        "final_error_sq": float(trace.error_sq[-1]),
        "final_support_size": int(trace.support_size[-1]),
        "iters_to_floor": iters_to_floor,
    }
    atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def numeric_build() -> dict:
    """The numpy and BLAS build, and the BLAS thread environment, of this process.

    The design streams follow numpy's SeedSequence algorithm and the solver's
    last bits follow the BLAS library and its thread count.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_ENV},
    }


def write_manifest(path, echo: dict, seeds: list[int]) -> None:
    """Everything required to reproduce the artifact directory byte-for-byte."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "numeric_build": numeric_build(),
        "seeds": list(map(int, seeds)),
        "config": echo,
        "config_hash": config_hash(echo),
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_npy(archive: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """The `.npy` member `np.savez` writes for ``array``, from the array's own buffer.

    A column-major array goes out as the rows of its transpose, the order
    `np.save` writes it in.  The array must be C- or F-contiguous: a strided
    one raises BufferError.
    """
    header = np.lib.format.header_data_from_array_1_0(array)
    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(member, header)
        member.write(memoryview(array.T if header["fortran_order"] else array))


def dataset_to_npz(model: ObjectiveModel, path, seed: int) -> None:
    """Write the model's X and y, with its family and the generating seed, as a dataset NPZ."""
    meta = {
        "schema_version": SCHEMA_VERSION,
        "n": model.n,
        "d": model.d,
        "family": model.family,
        "seed": int(seed),
    }
    arrays = {"X": model.X, "y": model.y, "meta": np.array(json.dumps(meta, sort_keys=True))}
    with _atomic_file(path) as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in arrays.items():
            _write_npy(archive, name, array)
