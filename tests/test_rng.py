"""Row-stream seeding: the vectorised PCG64 states against NumPy's own SeedSequence."""

import numpy as np
import pytest

from sparsepolyak import rng
from sparsepolyak.rng import CHUNK_ROWS, STREAM_DESIGN, substream, substreams

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 7, 2**200 + 3]  # 1, 1, 2, 3 and 7 uint32 words
KEYS = [(STREAM_DESIGN,), (3, 2**40 + 5)]  # the second key spans three uint32 words
ROWS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS]


def numpy_state(seed, key, i):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key + (i,))).state


@pytest.mark.parametrize("key", KEYS, ids=["design_key", "multi_word_key"])
@pytest.mark.parametrize("seed", SEEDS)
def test_row_states_match_seedsequence(seed, key):
    rows = substreams(seed, *key)
    states = [next(rows).bit_generator.state for _ in range(max(ROWS) + 1)]
    for i in ROWS:
        assert states[i] == numpy_state(seed, key, i), i


def test_reused_generator_draws_each_row_stream():
    rows = substreams(5, STREAM_DESIGN)
    for i in range(CHUNK_ROWS + 2):
        got = next(rows)
        if i in ROWS:
            ref = substream(5, STREAM_DESIGN, i)
            assert got.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
            assert got.random(3).tobytes() == ref.random(3).tobytes()


def test_guard_raises_on_a_wrong_mixing_constant(monkeypatch):
    monkeypatch.setattr(rng, "MIX_MULT_L", rng.MIX_MULT_L ^ 1)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        next(substreams(0, STREAM_DESIGN))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        next(substreams(-1, STREAM_DESIGN))
