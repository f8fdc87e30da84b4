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
uint64)``) uses constants that do not depend on the data: the words of
(seed, key), the same for every row, are hashed once per chunk of
`CHUNK_ROWS` rows on Python ints masked to 32 bits, and only the row word
and the output run on uint32 arrays across the chunk, never on numpy
scalars.  The result is four uint64 words per row; `row_generator` builds
the row's PCG64 from them by NumPy's own seeding step, through
`_StateWords`, a seed sequence that only hands those words over.  The
64-bit words are composed arithmetically as ``lo | hi << 32`` from the
hash's 32-bit words, NumPy's own little-endian order, so nothing depends
on the host's byte order.  A guard compares the first row of every chunk
with NumPy's own `substream` and raises `RuntimeError` on a mismatch, so a
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

# Rows whose seed words are hashed in one vectorised pass.
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


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, least significant first."""
    words = [value & MASK32]
    while value > MASK32:
        value >>= 32
        words.append(value & MASK32)
    return words


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


def _seed_words(prefix: list[int], rows: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) of the entropy words ``prefix + [row]``, for each row.

    ``prefix`` holds at least `POOL_SIZE` uint32 words, the same for every
    row, so they are hashed once, on Python ints; only the last word, the
    uint32 array ``rows``, is mixed in per row.  Returns a rows x 4 uint64
    array of the state words, ``lo | hi << 32`` of the hash's consecutive
    uint32 outputs.
    """
    consts = _hash_consts(INIT_A, MULT_A)
    pool = [_hashmix(prefix[i], consts) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in prefix[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    pool = [np.array([word], dtype=np.uint32) for word in pool]
    for dst in range(POOL_SIZE):
        pool[dst] = _mix(pool[dst], _hashmix(rows, consts))
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
    draws.  The words are hashed `CHUNK_ROWS` rows at a time into the one
    array, 32 bytes per row, and the first row of each chunk is checked
    against `substream`.  More than 2**32 rows raise `ValueError`.
    """
    if rows > 1 << 32:
        raise ValueError("row indices beyond 2**32 - 1 are not supported")
    seed, key = int(seed), tuple(int(k) for k in key)
    run = _words(seed)
    # A SeedSequence with a spawn key pads its run entropy to the pool size,
    # so the entropy has more than POOL_SIZE words.
    run += [0] * (POOL_SIZE - len(run))
    prefix = run + [w for k in key for w in _words(k)]
    words = np.empty((rows, 4), dtype=np.uint64)
    for start in range(0, rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, rows)
        words[start:stop] = _seed_words(prefix, np.arange(start, stop, dtype=np.uint32))
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
