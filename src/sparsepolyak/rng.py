"""Seedable, portable random streams.

Every random quantity in the toolkit is drawn from a PCG64 generator keyed
by ``SeedSequence(entropy=seed, spawn_key=key)``.  The spawn key encodes
what the stream is for, so independently generated pieces of an instance
never share state and generation order cannot leak between them:

* design matrix, sample row ``i``  -> ``(STREAM_DESIGN, i)``
* ground-truth coefficient vector -> ``(STREAM_TRUTH,)``
* response noise / label draws    -> ``(STREAM_NOISE,)``
* concavity-oracle trial batches  -> ``(STREAM_CONCAVITY,)``
* assumption-checker pair batches -> ``(STREAM_CHECK,)``

PCG64 output is platform independent, so identical (seed, key) pairs
reproduce identical data everywhere.

`substream` builds one generator through NumPy.  `substreams` serves the
per-row streams ``key + (i,)`` at the cost of their draws: NumPy's
SeedSequence hash (O'Neill's entropy mixing, then ``generate_state(4,
uint64)``) uses constants that do not depend on the data, so it runs on
uint32 arrays across a chunk of `CHUNK_ROWS` rows at once; only PCG64's
``srandom`` step (two 128-bit multiply-adds) runs per row, on Python ints,
and each row re-seeds one reused Generator.  The 64-bit state words are
composed arithmetically as ``lo | hi << 32`` from the hash's 32-bit words,
NumPy's own little-endian order, so nothing depends on the host's byte
order; all wrapping arithmetic is on uint32 arrays, never on numpy
scalars.  A guard compares the first row of every chunk with NumPy's own
`substream` and raises `RuntimeError` on a mismatch, so a NumPy whose
seeding differs fails loudly instead of changing the data.
"""

import itertools

import numpy as np

STREAM_DESIGN = 0
STREAM_TRUTH = 1
STREAM_NOISE = 2
STREAM_CONCAVITY = 3
STREAM_CHECK = 4

# Rows whose states `substreams` derives in one vectorised pass.
CHUNK_ROWS = 256

# NumPy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64
# (pcg_setseq_128_srandom_r with PCG_DEFAULT_MULTIPLIER_128).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32 = (1 << 32) - 1
MASK128 = (1 << 128) - 1


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


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * MIX_MULT_L - y * MIX_MULT_R
    return result ^ (result >> XSHIFT)


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, uint64) for each column of the entropy words.

    ``entropy`` holds one uint32 array per entropy word, one entry per row,
    and at least `POOL_SIZE` words.  Returns the four uint64 state words,
    ``lo | hi << 32`` of the hash's consecutive uint32 outputs.
    """
    consts = _hash_consts(INIT_A, MULT_A)
    pool = [_hashmix(entropy[i], consts) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(INIT_B, MULT_B)
    out = [_hashmix(pool[i % POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    return [out[2 * j] | out[2 * j + 1] << np.uint64(32) for j in range(4)]


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> tuple[int, int]:
    """PCG64's (state, inc) after seeding with the generate_state words (w0, w1, w2, w3)."""
    inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
    state = ((inc + (w0 << 64 | w1)) * PCG64_MULT + inc) & MASK128
    return state, inc


def _row_states(seed: int, key: tuple[int, ...], start: int, stop: int):
    """PCG64 (state, inc) of the streams ``key + (i,)`` for i in [start, stop), stop <= 2**32.

    The hash runs once over the chunk; each state is formed as it is read.
    """
    run = _words(seed)
    # A SeedSequence with a spawn key pads its run entropy to the pool size,
    # so the entropy has more than POOL_SIZE words.
    run += [0] * (POOL_SIZE - len(run))
    prefix = run + [w for k in key for w in _words(k)]
    rows = np.arange(start, stop, dtype=np.uint32)
    entropy = [np.array([w], dtype=np.uint32) for w in prefix] + [rows]
    words = [w.tolist() for w in _seed_words(entropy)]
    return (_pcg64_state(*row) for row in zip(*words))


def _check_against_numpy(seed: int, key: tuple[int, ...], state: tuple[int, int]) -> None:
    expected = substream(seed, *key).bit_generator.state["state"]
    if (expected["state"], expected["inc"]) != state:
        raise RuntimeError(
            f"derived PCG64 state of stream {key} under seed {seed} differs from NumPy "
            f"{np.__version__}'s SeedSequence; its seeding algorithm has changed")


def substreams(seed: int, *key: int):
    """Generators for the streams ``key + (i,)``, i = 0, 1, 2, ..., in order.

    The i-th draws what ``substream(seed, *key, i)`` draws.  One Generator
    is re-seeded for each row, so a yielded generator is valid only until
    the next one is requested.  States are derived `CHUNK_ROWS` rows at a
    time; the first row of each chunk is checked against `substream`.
    """
    seed, key = int(seed), tuple(int(k) for k in key)
    gen = np.random.Generator(np.random.PCG64(0))  # every row re-seeds it
    bit_gen = gen.bit_generator
    reseed = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for start in range(0, 1 << 32, CHUNK_ROWS):
        states = _row_states(seed, key, start, min(start + CHUNK_ROWS, 1 << 32))
        first = next(states)
        _check_against_numpy(seed, key + (start,), first)
        for state, inc in itertools.chain([first], states):
            reseed["state"] = {"state": state, "inc": inc}
            bit_gen.state = reseed
            yield gen
    raise ValueError("row indices beyond 2**32 - 1 are not supported")
