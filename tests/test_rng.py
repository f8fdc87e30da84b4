"""Row-stream seeding: the vectorised PCG64 states against NumPy's own SeedSequence."""

import os

import numpy as np
import pytest

from sparsepolyak import rng
from sparsepolyak.rng import CHUNK_ROWS, STREAM_DESIGN, substream

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 7, 2**200 + 3]  # 1, 1, 2, 3 and 7 uint32 words
# The second key spans three uint32 words; with the empty key, the (seed, key)
# SeedSequence has no spawn key and so does not pad the seed's words.
KEYS = [(STREAM_DESIGN,), (3, 2**40 + 5), ()]
KEY_IDS = ["design_key", "multi_word_key", "empty_key"]
ROWS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS]


def numpy_state(seed, key, i):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key + (i,))).state


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_row_states_match_seedsequence(seed, key):
    words = rng.row_words(seed, *key, rows=max(ROWS) + 1)
    for i in ROWS:
        assert rng.row_generator(words[i]).bit_generator.state == numpy_state(seed, key, i), i


def test_reused_generator_draws_each_row_stream():
    words = rng.row_words(5, STREAM_DESIGN, rows=max(ROWS) + 1)
    for i in ROWS:
        got, ref = rng.row_generator(words[i]), substream(5, STREAM_DESIGN, i)
        assert got.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
        assert got.random(3).tobytes() == ref.random(3).tobytes()


@pytest.mark.parametrize("name", ["INIT_A", "MULT_A", "INIT_B", "MULT_B", "MIX_MULT_L", "MIX_MULT_R", "XSHIFT"])
def test_guard_raises_on_a_wrong_mixing_constant(monkeypatch, name):
    # every constant the row word's mixing and the output hash read; INIT_A
    # and MULT_A also set where the row word's hash constants start
    monkeypatch.setattr(rng, name, getattr(rng, name) ^ 1)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        rng.row_words(0, STREAM_DESIGN, rows=1)


def test_negative_seed_rejected():
    # NumPy's SeedSequence, which gives the (seed, key) pool, rejects the seed
    with pytest.raises(ValueError):
        rng.row_words(-1, STREAM_DESIGN, rows=1)


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
def test_row_words_seed_each_row_stream(key):
    words = rng.row_words(5, *key, rows=2 * CHUNK_ROWS + 3)
    assert words.shape == (2 * CHUNK_ROWS + 3, 4) and words.dtype == np.uint64
    for i in ROWS + [2 * CHUNK_ROWS + 2]:
        got = rng.row_generator(words[i])
        assert got.bit_generator.state == numpy_state(5, key, i), i
        assert got.standard_normal(5).tobytes() == substream(5, *key, i).standard_normal(5).tobytes(), i
    assert rng.row_words(5, *key, rows=0).shape == (0, 4)


def test_row_words_guard_checks_every_chunk(monkeypatch):
    real = rng.substream

    def wrong_from_the_second_chunk(seed, *key):
        return real(seed + (key[-1] >= CHUNK_ROWS), *key)

    monkeypatch.setattr(rng, "substream", wrong_from_the_second_chunk)
    rng.row_words(0, STREAM_DESIGN, rows=CHUNK_ROWS)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        rng.row_words(0, STREAM_DESIGN, rows=CHUNK_ROWS + 1)


def test_row_words_beyond_2_32_rows_rejected_before_any_work():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rng.row_words(0, STREAM_DESIGN, rows=2**32 + 1)


def test_usable_cpus_counts_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert rng.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert rng.usable_cpus() == 6
