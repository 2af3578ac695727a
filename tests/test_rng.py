import numpy as np
import pytest

from auctioncomp.rng import BLOCK, map_batches, substream


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
