"""Serialization tests: exact round-trips, trace format, atomic writes, hashing."""

import io
import json
import os
import stat
import tracemalloc
import zipfile

import numpy as np
import pytest

import sparsepolyak
from sparsepolyak.dataio import (
    SCHEMA_VERSION,
    TRACE_HEADER,
    atomic_write_text,
    config_hash,
    dataset_to_npz,
    trace_csv_text,
    write_manifest,
    write_summary_json,
    write_trace_csv,
)
from sparsepolyak.objectives import LINEAR, LOGISTIC, ObjectiveModel
from sparsepolyak.optimizer import RunStatus, RunTrace
from sparsepolyak.synthdata import DesignSpec, generate_design


def small_trace():
    return RunTrace(
        f_value=np.array([1.5, 0.25, 1e-13]),
        step_size=np.array([0.1, 0.05, 0.0]),
        grad_ht_norm_sq=np.array([4.0, 1.0, 1e-20]),
        error_sq=np.array([2.0, 0.5, 1e-12]),
        support_size=np.array([0, 3, 3]),
        status=RunStatus.CONVERGED,
        final_theta=np.array([1.0, 0.0]),
    )


def fstring_trace_csv(trace):
    """The per-row f-string formatter that the trace writer must match byte for byte."""
    lines = [TRACE_HEADER]
    for i in range(len(trace)):
        lines.append(
            f"{i},{trace.f_value[i]:.12g},{trace.step_size[i]:.12g},"
            f"{trace.grad_ht_norm_sq[i]:.12g},{trace.error_sq[i]:.12g},{trace.support_size[i]}"
        )
    return "\n".join(lines) + "\n"


def long_trace(rows=1500):
    """Values over many decades, with signed zeros, subnormals and huge values."""
    rng = np.random.default_rng(3)

    def column():
        v = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
        v[:6] = [0.0, -0.0, 5e-324, -1e308, 1.0 / 3.0, 123456789012345.0]
        return v

    return RunTrace(
        f_value=column(),
        step_size=np.abs(column()),
        grad_ht_norm_sq=np.abs(column()),
        error_sq=np.abs(column()),
        support_size=rng.integers(0, 1000, rows),
        status=RunStatus.MAX_ITERS,
        final_theta=np.array([1.0, 0.0]),
    )


class TestTraceCsv:
    def test_matches_the_per_row_formatter(self):
        one_row = small_trace()
        for name in ("f_value", "step_size", "grad_ht_norm_sq", "error_sq", "support_size"):
            setattr(one_row, name, getattr(one_row, name)[:1])
        for trace in (long_trace(), one_row, small_trace()):
            assert trace_csv_text(trace) == fstring_trace_csv(trace)

    def test_header_contract(self):
        text = trace_csv_text(small_trace())
        assert text.splitlines()[0] == TRACE_HEADER
        assert TRACE_HEADER == "iter,f_value,step_size,grad_ht_norm_sq,error_sq,support_size"

    def test_row_count_and_write(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(small_trace(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4

    def test_identical_traces_serialize_identically(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(small_trace(), a)
        write_trace_csv(small_trace(), b)
        assert a.read_bytes() == b.read_bytes()


class TestDatasetContainers:
    def test_npz_round_trip_with_metadata(self, tmp_path):
        rng = np.random.default_rng(1)
        model = ObjectiveModel(family=LINEAR, X=rng.standard_normal((5, 4)), y=rng.standard_normal(5))
        path = tmp_path / "data.npz"
        dataset_to_npz(model, path, seed=17)
        with np.load(path, allow_pickle=False) as archive:
            X, y, meta = archive["X"], archive["y"], json.loads(str(archive["meta"]))
        assert X.tobytes() == model.X.tobytes()
        assert y.tobytes() == model.y.tobytes()
        assert meta["n"] == 5 and meta["d"] == 4
        assert meta["family"] == LINEAR and meta["seed"] == 17

    @pytest.mark.parametrize("shape", [(60, 50), (1, 7), (9, 1)], ids=["generated", "one_row", "one_column"])
    def test_npz_bytes_equal_numpy_savez(self, tmp_path, shape):
        # a 1 x d or n x 1 design is both C- and F-contiguous; the y given is strided
        n, d = shape
        X = generate_design(DesignSpec(n=n, d=d, omega=0.5), seed=3)
        y = np.random.default_rng(2).standard_normal(2 * n)[::2]
        path = tmp_path / "data.npz"
        dataset_to_npz(ObjectiveModel(family=LINEAR, X=X, y=y), path, seed=5)
        meta = {"schema_version": SCHEMA_VERSION, "n": n, "d": d, "family": LINEAR, "seed": 5}
        expected = io.BytesIO()
        np.savez(expected, X=X, y=y, meta=json.dumps(meta, sort_keys=True))
        assert path.read_bytes() == expected.getvalue()

    def test_logistic_npz_takes_the_family_from_the_model(self, tmp_path):
        X = generate_design(DesignSpec(n=20, d=6, omega=0.5), seed=1)
        y = (np.random.default_rng(4).random(20) < 0.5).astype(float)
        path = tmp_path / "data.npz"
        dataset_to_npz(ObjectiveModel(family=LOGISTIC, X=X, y=y), path, seed=9)
        with np.load(path, allow_pickle=False) as archive:
            assert json.loads(str(archive["meta"]))["family"] == LOGISTIC
        meta = {"schema_version": SCHEMA_VERSION, "n": 20, "d": 6, "family": LOGISTIC, "seed": 9}
        expected = io.BytesIO()
        np.savez(expected, X=X, y=y, meta=json.dumps(meta, sort_keys=True))
        assert path.read_bytes() == expected.getvalue()

    def test_npz_write_holds_no_copy_of_the_design(self, tmp_path):
        # np.savez copies X into bytes objects before writing (5.5 MB here)
        X = generate_design(DesignSpec(n=691, d=1000, omega=0.5), seed=0)
        model = ObjectiveModel(family=LINEAR, X=X, y=np.ones(691))
        tracemalloc.start()
        try:
            dataset_to_npz(model, tmp_path / "data.npz", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4


class TestSummaryAndHash:
    def test_summary_contents(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(path, small_trace(), 1)
        payload = json.loads(path.read_text())
        assert payload["status"] == "converged"
        assert payload["final_error_sq"] == pytest.approx(1e-12)
        assert payload["iters_to_floor"] == 1
        assert set(payload) == {"status", "iterations", "final_f_value", "final_error_sq",
                                "final_support_size", "iters_to_floor"}

    def test_manifest_records_the_numeric_build(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        path = tmp_path / "manifest.json"
        write_manifest(path, {"design.d": 2}, [4])
        payload = json.loads(path.read_text())
        assert set(payload) == {"schema_version", "toolkit_version", "numeric_build", "seeds",
                                "config", "config_hash"}
        assert payload["toolkit_version"] == sparsepolyak.__version__
        build = payload["numeric_build"]
        assert set(build) == {"numpy", "blas_vendor", "blas_version", "blas_thread_env"}
        assert build["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (build["blas_vendor"], build["blas_version"]) == (blas["name"], blas["version"])
        assert build["blas_thread_env"] == {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
                                            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}

    def test_config_hash_key_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "sub" / "x.txt"
        atomic_write_text(path, "payload")
        assert path.read_text() == "payload"
        assert [p.name for p in path.parent.iterdir()] == ["x.txt"]

    def test_artifacts_get_the_umask_default_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            atomic_write_text(tmp_path / "a.txt", "payload")
            dataset_to_npz(ObjectiveModel(family=LINEAR, X=np.ones((2, 2)), y=np.ones(2)),
                           tmp_path / "d.npz", seed=0)
            (tmp_path / "plain.txt").write_text("payload")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"a.txt": 0o640, "d.npz": 0o640, "plain.txt": 0o640}

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(zipfile.ZipFile, "open", fail)
        with pytest.raises(OSError, match="disk full"):
            dataset_to_npz(ObjectiveModel(family=LINEAR, X=np.ones((2, 2)), y=np.ones(2)),
                           tmp_path / "d.npz", seed=0)
        assert list(tmp_path.iterdir()) == []
