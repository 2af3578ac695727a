import os
import sys
import threading
import time

import numpy as np
import pytest

from auctioncomp import rng as rng_mod
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


# ---------------------------------------------------------------------------
# Lanes: map_batches(..., parallel=True)
# ---------------------------------------------------------------------------


def _placed(rng, b, start):
    return start, rng.random(b)


@pytest.mark.parametrize("lanes", [1, 2, 3, 5])
def test_parallel_results_match_serial_in_batch_order(monkeypatch, lanes):
    monkeypatch.setattr(rng_mod, "usable_cpus", lambda: lanes)
    N = 3 * (BATCH // 4) + 11  # four batches, the last one partial
    got = map_batches(8, "lanes", N, _placed, width=4, parallel=True)
    want = map_batches(8, "lanes", N, _draw, width=4)
    assert [s for s, _ in got] == [0, BATCH // 4, 2 * (BATCH // 4), 3 * (BATCH // 4)]
    assert len(got) == len(want) == 4
    assert all(np.array_equal(g, w) for (_, g), w in zip(got, want))


def test_parallel_lanes_stop_at_the_number_of_batches(monkeypatch):
    monkeypatch.setattr(rng_mod, "usable_cpus", lambda: 64)
    before = threading.active_count()
    seen = set()
    map_batches(0, "few", 2, lambda rng, b, start: seen.add(threading.get_ident()),
                width=BATCH, parallel=True)
    assert len(seen) == 2 and threading.get_ident() in seen  # lane 0 is the caller
    assert threading.active_count() == before


@pytest.mark.parametrize("lanes", [2, 3])
def test_parallel_helper_lane_error_reaches_caller(monkeypatch, lanes):
    monkeypatch.setattr(rng_mod, "usable_cpus", lambda: lanes)
    before = threading.active_count()
    ran = []

    def kernel(rng, b, start):  # one-sample batches, so start is the batch index
        ran.append(start)
        if start == 1:  # batch 1 runs on helper lane 1
            raise ZeroDivisionError("batch one failed")
        if start == 0:  # lane 0 goes on only once every helper lane has ended
            deadline = time.monotonic() + 30
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.001)
        return b

    with pytest.raises(ZeroDivisionError, match="^batch one failed$"):
        map_batches(0, "err", 40, kernel, width=BATCH, parallel=True)
    assert threading.active_count() == before
    assert lanes not in ran  # lane 0 stopped before its second batch


def test_parallel_stress_more_lanes_than_cores(monkeypatch):
    # every sample is written exactly once, in its place, whatever the thread
    # switching; the call runs in a thread so that a hang fails, not blocks
    lanes = 2 * rng_mod.usable_cpus() + 3
    monkeypatch.setattr(rng_mod, "usable_cpus", lambda: lanes)
    N = 5_003
    out = np.zeros(N, dtype=np.int64)

    def kernel(rng, b, start):
        for k in range(start, start + b):
            out[k] += 1
        return b

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = []

        def call():
            result.append(map_batches(1, "stress", N, kernel, width=BATCH // 7, parallel=True))

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not caller.is_alive()
    assert sum(result[0]) == N and np.all(out == 1)


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rng_mod.usable_cpus() == (os.cpu_count() or 1)
