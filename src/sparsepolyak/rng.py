"""Seedable, portable random streams.

Every random quantity in the toolkit is drawn from a PCG64 generator keyed
by ``SeedSequence(entropy=seed, spawn_key=key)``.  The spawn key encodes
what the stream is for, so independently generated pieces of an instance
never share state and generation order cannot leak between them:

* design matrix, sample row ``i``  -> ``(STREAM_DESIGN, i)``
* ground-truth coefficient vector -> ``(STREAM_TRUTH,)``
* response noise / label draws    -> ``(STREAM_NOISE,)``
* concavity-oracle trial batches  -> ``(STREAM_CONCAVITY,)``
* assumption-checker chunk ``c``   -> ``(STREAM_CHECK, c)``

PCG64 output is platform independent, so identical (seed, key) pairs
reproduce identical data everywhere.

`substream` builds one generator through NumPy.  `row_words` serves the
per-row streams ``key + (i,)`` at the cost of their draws.  NumPy's
SeedSequence hash (O'Neill's entropy mixing, then ``generate_state(4,
uint64)``) uses constants that do not depend on the data, and the words of
(seed, key) come before the row word and are the same for every row, so
the pool they leave is NumPy's own: ``SeedSequence(seed,
spawn_key=key).pool``.  Only the row word's mixing and the output hash are
written out here, on uint32 arrays in one pass over all the rows, never on
numpy scalars.  The result is four uint64 words per row; `row_generator`
builds the row's PCG64 from them by NumPy's own seeding step, through
`_StateWords`, a seed sequence that only hands those words over.  The
64-bit words are composed arithmetically as ``lo | hi << 32`` from the
hash's 32-bit words, NumPy's own little-endian order, so nothing depends
on the host's byte order.  A guard compares every `CHUNK_ROWS`-th row with
NumPy's own `substream` and raises `RuntimeError` on a mismatch, so a
NumPy whose seeding differs fails loudly instead of changing the data.

A row's draws depend only on (seed, key, row), never on which other rows
were drawn before it or by whom, so rows may be drawn on separate threads
(see `synthdata._draw_rows`); `usable_cpus` is the one count of CPUs that
such threads and the CLI's process pool are sized by.
"""

import os

import numpy as np
from numpy.random.bit_generator import ISeedSequence

STREAM_DESIGN = 0
STREAM_TRUTH = 1
STREAM_NOISE = 2
STREAM_CONCAVITY = 3
STREAM_CHECK = 4

# The guard's stride: `row_words` checks rows 0, CHUNK_ROWS, 2 CHUNK_ROWS, ...
# against `substream`.
CHUNK_ROWS = 256

# NumPy's SeedSequence (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = (1 << 32) - 1


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def _hash_consts(init: int, mult: int):
    """The (xor, multiplier) pairs of successive hash calls: h_k, h_{k+1}."""
    h = init
    while True:
        nxt = h * mult & MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult & MASK32
    return value ^ (value >> XSHIFT)


def _mix(x, y):
    result = (x * MIX_MULT_L - y * MIX_MULT_R) & MASK32
    return result ^ (result >> XSHIFT)


def _seed_words(seed: int, key: tuple, rows: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=key + (row,)).generate_state(4, uint64), for each row.

    The entropy of each row's SeedSequence is the words of (seed, key), the
    same for every row, then the row word.  NumPy's ``SeedSequence(seed,
    spawn_key=key).pool`` is the pool after those L words, where L = max(
    `POOL_SIZE`, words of seed) + words of key: a SeedSequence with a spawn
    key pads the seed's words to `POOL_SIZE` with zeros, and one without
    hashes a 0 into each empty slot, which leaves the same pool.  Every one
    of the L words took `POOL_SIZE` hash calls (filling and cross-mixing the
    pool, or mixing a later word into each slot), so the row word's hash
    constants start at ``INIT_A * MULT_A**(POOL_SIZE * L)``.  Only the row
    word, the uint32 array ``rows``, and the output hash run here.  Returns a
    rows x 4 uint64 array of the state words, ``lo | hi << 32`` of the
    hash's consecutive uint32 outputs.
    """
    pool = np.random.SeedSequence(seed, spawn_key=key).pool
    prefix_len = (max(POOL_SIZE, (seed.bit_length() + 31) // 32)
                  + sum((k.bit_length() + 31) // 32 or 1 for k in key))
    consts = _hash_consts(INIT_A * pow(MULT_A, POOL_SIZE * prefix_len, 1 << 32) & MASK32, MULT_A)
    pool = [_mix(pool[dst:dst + 1], _hashmix(rows, consts)) for dst in range(POOL_SIZE)]
    consts = _hash_consts(INIT_B, MULT_B)
    out = np.empty((rows.size, 4), dtype=np.uint64)
    for j in range(4):
        out[:, j] = _hashmix(pool[2 * j % POOL_SIZE], consts)
        out[:, j] |= _hashmix(pool[(2 * j + 1) % POOL_SIZE], consts).astype(np.uint64) << np.uint64(32)
    return out


class _StateWords(ISeedSequence):
    """A seed sequence whose ``generate_state(4, uint64)`` is already known.

    PCG64 seeds itself from ``generate_state(4, uint64)`` alone, so
    ``PCG64(_StateWords(w))`` is the generator that a SeedSequence whose
    hash gives the four uint64 words ``w`` seeds; the arguments are not
    read.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def row_generator(words: np.ndarray) -> np.random.Generator:
    """The generator seeded with one row of `row_words`."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def row_words(seed: int, *key: int, rows: int) -> np.ndarray:
    """Seed words of the streams ``key + (i,)``, i < rows: a rows x 4 uint64 array.

    ``row_generator(words[i])`` draws what ``substream(seed, *key, i)``
    draws.  The (seed, key) part of every row's hash is NumPy's own
    ``SeedSequence(seed, spawn_key=key).pool``, made once; the row words
    are mixed into it and hashed out in one vectorised pass, 32 bytes per
    row (`_seed_words` says where their hash constants start).  Every
    `CHUNK_ROWS`-th row, from row 0, is checked against `substream`.  More
    than 2**32 rows, or a negative seed, raise `ValueError`.
    """
    if rows > 1 << 32:
        raise ValueError("row indices beyond 2**32 - 1 are not supported")
    seed, key = int(seed), tuple(int(k) for k in key)
    words = _seed_words(seed, key, np.arange(rows, dtype=np.uint32))
    for start in range(0, rows, CHUNK_ROWS):
        first = row_generator(words[start])
        if first.bit_generator.state != substream(seed, *key, start).bit_generator.state:
            raise RuntimeError(
                f"derived PCG64 state of stream {key + (start,)} under seed {seed} differs from NumPy "
                f"{np.__version__}'s SeedSequence; its seeding algorithm has changed")
    return words


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
