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
"""

import numpy as np

STREAM_DESIGN = 0
STREAM_TRUTH = 1
STREAM_NOISE = 2
STREAM_CONCAVITY = 3
STREAM_CHECK = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def substreams(seed: int, *key: int):
    """Generators for the streams ``key + (i,)``, i = 0, 1, 2, ..., in order.

    The i-th is the generator ``substream(seed, *key, i)`` returns: a
    SeedSequence spawns its children under consecutive keys.  They are
    spawned one at a time, as they are drawn.
    """
    parent = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    while True:
        yield np.random.Generator(np.random.PCG64(parent.spawn(1)[0]))
