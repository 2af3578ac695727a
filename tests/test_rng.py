import math
from fractions import Fraction

import numpy as np
import pytest

from auctioncomp.rng import BLOCK, estimate, map_batches, substream


def _draw(rng, b):
    return rng.random(b)


def test_map_batches_equals_hand_written_loop():
    # N not divisible by the block: two full blocks and a remainder, drawn
    # one after another from the one generator of the label
    N = 2 * (BLOCK // 3) + 7
    got = list(map_batches(5, "lab", N, _draw, width=3))
    rng = substream(5, "lab")
    want = [rng.random(b) for b in (BLOCK // 3, BLOCK // 3, 7)]
    assert [len(g) for g in got] == [BLOCK // 3, BLOCK // 3, 7]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # Generator.random fills rows in order: the blocks are one N-row draw
    assert np.array_equal(np.concatenate(got), substream(5, "lab").random(N))


def test_map_batches_wide_rows_give_one_row_batches():
    got = list(map_batches(7, "wide", 3, lambda rng, b: b, width=BLOCK + 1))
    assert got == [1, 1, 1]


@pytest.mark.parametrize("N", [0, -1])
def test_map_batches_needs_samples(N):
    calls = []
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        map_batches(0, "x", N, lambda rng, b: calls.append(b))
    assert calls == []


@pytest.mark.parametrize(
    "counts", [[3], [0, 1], [1, 0, 1, 1, 0], [2, 2, 2], [0, 0, 5], [1, 2, 3, 4], [0, 7, 1, 1, 0]]
)
def test_estimate_is_the_sample_mean_and_stderr_of_the_counts(counts):
    # the rule on the integer totals against the same moments taken exactly
    N = len(counts)
    mean, stderr = estimate(sum(counts), sum(k * k for k in counts), N)
    want_mean = Fraction(sum(counts), N)
    assert mean == float(want_mean)
    if N == 1:
        assert stderr == 0.0
    else:
        var = sum((k - want_mean) ** 2 for k in counts) / (N - 1) / N
        assert stderr == pytest.approx(math.sqrt(var), rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "values", [[Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)], [0, Fraction(2, 3), 1, Fraction(1, 6)]]
)
def test_estimate_reads_values_over_a_common_denominator(values):
    # each value an integer over L = 6: the mean and stderr are those of the
    # rationals themselves, each rounded once
    L, N = 6, len(values)
    s1 = sum(int(v * L) for v in values)
    s2 = sum(int(v * L) ** 2 for v in values)
    mean = Fraction(sum(values), N)
    var = sum((v - mean) ** 2 for v in values) / (N - 1) / N if N > 1 else 0
    assert estimate(s1, s2, N, L) == (float(mean), math.sqrt(float(var)))


def test_estimate_reads_zero_when_every_run_agrees():
    # N S2 = S1^2 exactly, so the stderr is 0, not a rounding residue
    for k, N in [(0, 1), (1, 1), (0, 10), (1, 10), (3, 10**6), (2**40, 7)]:
        assert estimate(k * N, k * k * N, N) == (k, 0.0)
