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
temporaries stay in cache. A caller whose batches keep only block-sized
temporaries may run them on lanes (``parallel=True``): batch i runs on lane
i mod w, w is the number of usable CPUs (at most the number of batches), and
results come back in batch order. Since a batch's stream depends only on its
label and index, the output does not depend on the CPU count or on which lane
ran which batch.
"""

from __future__ import annotations

import os
import threading
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


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_batches(
    seed: int,
    label: str | tuple,
    N: int,
    kernel: Callable,
    width: int = 1,
    parallel: bool = False,
) -> list:
    """``[kernel(substream(seed, *label, i), b) for the i-th batch of b samples]``.

    N samples are split into batches of ``max(1, BATCH // width)`` rows, in
    order; the kernel's outputs come back in batch order for the caller to
    join or sum. One batch's draws are alive at a time, as long as the kernel
    returns a reduction of them.

    With ``parallel`` the batches run on ``min(usable_cpus(), batches)``
    lanes: lane 0 is the calling thread, the others are threads that end
    with the call, and batch i runs on lane i mod lanes, so one batch per
    lane is alive at a time. Batches then finish out of order, so the kernel
    is called as ``kernel(rng, b, start)``, with the index of its batch's
    first sample, to write its rows into the caller's array in place; it
    must be safe to run on several threads at once. If a batch raises, every
    lane stops after its current batch and the first exception is re-raised.
    """
    if N < 1:
        raise ValueError("need N >= 1 samples")
    labels = (label,) if isinstance(label, str) else tuple(label)
    rows = max(1, BATCH // max(1, width))
    sizes = batch_sizes(N, rows)
    if not parallel:
        return [kernel(substream(seed, *labels, i), b) for i, b in enumerate(sizes)]

    lanes = min(usable_cpus(), len(sizes))
    results = [None] * len(sizes)
    errors = []  # list.append is atomic; a lane checks it between batches

    def lane(k):
        try:
            for i in range(k, len(sizes), lanes):
                if errors:
                    return
                results[i] = kernel(substream(seed, *labels, i), sizes[i], i * rows)
        except BaseException as exc:  # re-raised below, once every lane has stopped
            errors.append(exc)

    helpers = [threading.Thread(target=lane, args=(k,), daemon=True) for k in range(1, lanes)]
    for t in helpers:
        t.start()
    lane(0)
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return results
