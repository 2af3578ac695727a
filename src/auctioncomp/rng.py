"""Seed derivation and the one Monte Carlo loop.

Every estimator in this package takes a single integer master seed. Sub-tasks
(per-item streams, named experiment stages) derive their own independent
generator through ``substream``, which hashes a label into a ``SeedSequence``
spawn key, a pure function of ``(seed, label)``.

Determinism model: a Monte Carlo estimator of N samples draws them all from
one generator, ``substream(seed, *label)``, in blocks of
``max(1, BLOCK // width)`` rows taken in order (``map_batches``), so its
result is a pure function of ``(seed, label, N)``. ``width`` counts the
floats a kernel holds per row: the row's own draws, or one per block-sized
array the kernel keeps alive, so a block holds about ``BLOCK`` floats.

A Monte Carlo estimate never holds its N samples: each block returns
integer counts and the loop adds them, exactly, so no estimate depends on
the order in which its blocks are added. One rule (``estimate``) turns the
integer totals S1 and S2 of the per-run values and of their squares into
a mean and its standard error. A value is an integer over a common
denominator L, passed as ``scale`` (1 for counts): the Y* estimator's
per-row means h/k have L = lcm(1, ..., m - 1), and its totals are Python
ints, so no sum rounds or overflows whatever m is.

An exact integrand on a long grid is evaluated in pieces of ``PIECE``
values: elementwise arithmetic gives the same bits on any slice. The one
bracket kernel of the exact integrals (``revenue._stieltjes``) keeps no
grid-length array of its own: it sums each piece as it goes and adds the
piece sums in order, a fold fixed by the constant ``PIECE``, not by the CPU
count. The X_L and X_B CDFs, a closed form, a continued fraction or a
series per point, read each point by its own branch, so a point's bits do
not depend on the points beside it.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Iterator

import numpy as np

# floats drawn per block; a row of ``width`` floats gives BLOCK // width rows
BLOCK = 65_536
# values per piece of an exact integrand: 64 KiB per float64 temporary
PIECE = BLOCK // 8


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
    """Split ``total`` >= 0 rows into blocks of at most ``batch``."""
    full, rem = divmod(total, batch)
    out = [batch] * full
    if rem:
        out.append(rem)
    return out


def need_samples(N: int) -> None:
    """Reject an estimate of N < 1 samples, with the one message for it."""
    if N < 1:
        raise ValueError("need N >= 1 samples")


def map_batches(seed: int, label: str, N: int, kernel: Callable, width: int = 1) -> Iterator:
    """``kernel(rng, r)`` for each block of r rows, lazily and in block order,
    with the one generator ``rng = substream(seed, label)``.

    N rows are split into blocks of ``max(1, BLOCK // width)`` rows (the last
    takes the remainder); ``width`` is the number of floats the kernel holds
    per row, counting each block-sized array it keeps alive at once.
    N is checked at the call; the caller adds the outputs as they come, so
    one block's draws are alive at a time as long as the kernel returns a
    reduction of them.
    """
    need_samples(N)
    rng = substream(seed, label)
    return (kernel(rng, r) for r in batch_sizes(N, max(1, BLOCK // max(1, width))))


def estimate(s1: int, s2: int, N: int, scale: int = 1) -> tuple[float, float]:
    """(mean, standard error) of N runs from the integer totals s1 and s2 of
    their values and of the values' squares, each value an integer over the
    denominator ``scale``: S1 / (N scale) and
    sqrt((N S2 - S1^2) / (N^2 (N - 1) scale^2)), 0 at N = 1. The numerators
    and denominators are exact integers, each ratio rounded once, so runs
    that all agree read 0."""
    stderr = math.sqrt((N * s2 - s1 * s1) / (N * N * (N - 1) * scale * scale)) if N > 1 else 0.0
    return s1 / (N * scale), stderr
