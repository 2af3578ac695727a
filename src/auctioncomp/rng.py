"""Seed derivation and the one batch loop.

Every estimator in this package takes a single integer master seed. Sub-tasks
(per-item streams, per-batch shards, named experiment stages) derive their own
independent generator through ``substream``, which hashes a label into a
``SeedSequence`` spawn key. The derivation is a pure function of
``(seed, label)``, so results do not depend on evaluation order or on how work
is sharded across workers.

``map_batches`` is the only place where N samples are split into seeded
batches: batch i of a labelled estimator has ``BATCH // width`` rows (at least
one; the last batch takes the remainder) and draws from
``substream(seed, *label, i)``. ``width`` is the number of floats one sample
row holds, so a batch holds about ``BATCH`` floats whatever the row size.

A kernel may stream its batch in blocks of about ``BLOCK`` floats, drawing
block after block from the batch's generator: ``Generator.random`` fills rows
in order, so the blocks hold exactly the one-shot draw, and a block's
temporaries stay in cache. Batches run one after another in the calling
thread.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

# floats drawn per batch; a row of ``width`` floats gives BATCH // width rows
BATCH = 1_000_000
# floats per block when a kernel streams its batch in cache-sized pieces
BLOCK = 65_536


def substream(seed: int, *labels: str | int) -> np.random.Generator:
    """Return a generator for the sub-task identified by ``labels``."""
    key = []
    for lab in labels:
        if isinstance(lab, int):
            key.append(lab & 0xFFFFFFFF)
        else:
            key.append(zlib.crc32(lab.encode("utf-8")))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.default_rng(ss)


def batch_sizes(total: int, batch: int) -> list[int]:
    """Split ``total`` samples into batches of at most ``batch``."""
    if total <= 0:
        return []
    full, rem = divmod(total, batch)
    out = [batch] * full
    if rem:
        out.append(rem)
    return out


def need_samples(N: int) -> None:
    """Reject an estimate of N < 1 samples, with the one message for it."""
    if N < 1:
        raise ValueError("need N >= 1 samples")


def map_batches(seed: int, label: str | tuple, N: int, kernel: Callable, width: int = 1) -> list:
    """``[kernel(substream(seed, *label, i), b) for the i-th batch of b samples]``.

    N samples are split into batches of ``max(1, BATCH // width)`` rows, in
    order; the kernel's outputs come back in batch order for the caller to
    join or sum. One batch's draws are alive at a time, as long as the kernel
    returns a reduction of them.
    """
    need_samples(N)
    labels = (label,) if isinstance(label, str) else tuple(label)
    sizes = batch_sizes(N, max(1, BATCH // max(1, width)))
    return [kernel(substream(seed, *labels, i), b) for i, b in enumerate(sizes)]
