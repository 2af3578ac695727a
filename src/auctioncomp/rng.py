"""Seed derivation, the one Monte Carlo loop and the fold of its block means.

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

A Monte Carlo mean never holds its N samples: each block is reduced to
``batch_moments`` and ``mean_stderr`` folds those in block order, and a hit
rate is a count (``hit_rate``).

An exact integrand on a long grid is evaluated in pieces of ``PIECE``
values: elementwise arithmetic gives the same bits on any slice. The one
bracket kernel of the exact integrals (``revenue._stieltjes``) keeps no
grid-length array of its own: it sums each piece as it goes and adds the
piece sums in order, a fold fixed by the constant ``PIECE``, not by the CPU
count. The X_L and X_B CDFs, a closed form or a series per point and a
quadrature per point, fill their output piece by piece (``fill_pieces``),
so a point's bits do not depend on the points beside it.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Iterable, Iterator

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
    """Split ``total`` rows into blocks of at most ``batch``."""
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


def map_batches(
    seed: int, label: str | tuple, N: int, kernel: Callable, width: int = 1
) -> Iterator:
    """``kernel(rng, r)`` for each block of r rows, lazily and in block order,
    with the one generator ``rng = substream(seed, *label)``.

    N rows are split into blocks of ``max(1, BLOCK // width)`` rows (the last
    takes the remainder); ``width`` is the number of floats the kernel holds
    per row, counting each block-sized array it keeps alive at once.
    N is checked at the call; the caller sums or folds the outputs as they
    come, so one block's draws are alive at a time as long as the kernel
    returns a reduction of them.
    """
    need_samples(N)
    labels = (label,) if isinstance(label, str) else tuple(label)
    rng = substream(seed, *labels)
    return (kernel(rng, r) for r in batch_sizes(N, max(1, BLOCK // max(1, width))))


def fill_pieces(out: np.ndarray, fn: Callable, *arrays: np.ndarray, size: int = PIECE) -> np.ndarray:
    """``out[i:j] = fn(*(a[i:j] for a in arrays))`` for consecutive pieces of
    ``size`` rows; returns ``out``. ``fn`` must act row by row, so ``out``
    holds the bits of ``fn(*arrays)`` with one piece of temporaries alive."""
    for i in range(0, len(out), size):
        out[i:i + size] = fn(*(a[i:i + size] for a in arrays))
    return out


def batch_moments(x: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of one block, M2 being the sum of squared deviations
    from its mean (``np.sum``, not a BLAS dot, whose threaded sum order
    follows the CPU count)."""
    mean = np.mean(x)
    return len(x), float(mean), float(np.sum((x - mean) ** 2))


def mean_stderr(moments: Iterable[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean of all samples and its standard error, from the blocks'
    ``batch_moments`` folded in order (Chan, Golub & LeVeque's pairwise update).

    One block gives ``np.mean`` and ``np.std(ddof=1) / sqrt(N)`` of its
    samples bit for bit; a single sample has stderr 0.
    """
    moments = iter(moments)
    count, mean, m2 = next(moments)
    for n_b, mean_b, m2_b in moments:
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    stderr = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0
    return mean, stderr


def hit_rate(hits: int, N: int) -> tuple[float, float]:
    """Binomial rate estimate hits / N and its standard error."""
    est = hits / N
    return est, math.sqrt(max(est * (1 - est), 1e-300) / N)
