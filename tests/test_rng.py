import numpy as np
import pytest

from auctioncomp.rng import BATCH, batch_sizes, map_batches, substream


def _draw(rng, b):
    return rng.random(b)


def test_map_batches_equals_hand_written_loop():
    # N not divisible by the batch: two full batches and a remainder
    N = 2 * (BATCH // 3) + 7
    got = map_batches(5, ("lab", 2), N, _draw, width=3)
    sizes = batch_sizes(N, BATCH // 3)
    want = [substream(5, "lab", 2, i).random(b) for i, b in enumerate(sizes)]
    assert [len(g) for g in got] == [BATCH // 3, BATCH // 3, 7]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_map_batches_string_label_is_a_one_element_tuple():
    a = map_batches(6, "lab", 10, _draw)
    b = map_batches(6, ("lab",), 10, _draw)
    assert len(a) == 1 and np.array_equal(a[0], b[0])
    assert np.array_equal(a[0], substream(6, "lab", 0).random(10))


def test_map_batches_wide_rows_give_one_row_batches():
    got = map_batches(7, "wide", 3, lambda rng, b: b, width=BATCH + 1)
    assert got == [1, 1, 1]


@pytest.mark.parametrize("N", [0, -1])
def test_map_batches_needs_samples(N):
    calls = []
    with pytest.raises(ValueError, match="need N >= 1 samples"):
        map_batches(0, "x", N, lambda rng, b: calls.append(b))
    assert calls == []
