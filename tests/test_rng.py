import math

import numpy as np
import pytest

from auctioncomp.rng import (
    BLOCK,
    batch_moments,
    map_batches,
    mean_stderr,
    substream,
)


def _draw(rng, b):
    return rng.random(b)


def test_map_batches_equals_hand_written_loop():
    # N not divisible by the block: two full blocks and a remainder, drawn
    # one after another from the one generator of the label
    N = 2 * (BLOCK // 3) + 7
    got = list(map_batches(5, ("lab", 2), N, _draw, width=3))
    rng = substream(5, "lab", 2)
    want = [rng.random(b) for b in (BLOCK // 3, BLOCK // 3, 7)]
    assert [len(g) for g in got] == [BLOCK // 3, BLOCK // 3, 7]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # Generator.random fills rows in order: the blocks are one N-row draw
    assert np.array_equal(np.concatenate(got), substream(5, "lab", 2).random(N))


def test_map_batches_string_label_is_a_one_element_tuple():
    a = list(map_batches(6, "lab", 10, _draw))
    b = list(map_batches(6, ("lab",), 10, _draw))
    assert len(a) == 1 and np.array_equal(a[0], b[0])
    assert np.array_equal(a[0], substream(6, "lab").random(10))


def test_map_batches_wide_rows_give_one_row_batches():
    got = list(map_batches(7, "wide", 3, lambda rng, b: b, width=BLOCK + 1))
    assert got == [1, 1, 1]


@pytest.mark.parametrize("N", [0, -1])
def test_map_batches_needs_samples(N):
    calls = []
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        map_batches(0, "x", N, lambda rng, b: calls.append(b))
    assert calls == []


@pytest.mark.parametrize("sizes", [[1], [2], [70_001], [1, 1], [3, 1, 2], [300_000, 300_000, 7]])
def test_mean_stderr_folds_batches_like_the_whole_sample(sizes):
    # heavy-tailed draws (equal revenue, truncated at 1e6) make the fold's
    # rounding show; one batch must give the whole-sample numbers bit for bit
    u = substream(8, "fold").random(sum(sizes))
    x = np.minimum(1.0 / (1.0 - u), 1e6)
    chunks = np.split(x, np.cumsum(sizes)[:-1])
    mean, stderr = mean_stderr(batch_moments(c) for c in chunks)
    want_mean = float(np.mean(x))
    want_stderr = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    if len(sizes) == 1:
        assert (mean, stderr) == (want_mean, want_stderr)
    else:
        assert mean == pytest.approx(want_mean, rel=1e-13, abs=0)
        assert stderr == pytest.approx(want_stderr, rel=1e-12, abs=0)

