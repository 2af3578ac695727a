"""The package's surface: what an import loads, and the input checks of the
public functions."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import auctioncomp
from auctioncomp.distributions import FiniteDiscrete
from auctioncomp.experiments import sample_xs, top_order_stats, ystar_conditional_mc
from auctioncomp.repro import bign_tightness, er_benchmark_decomposition, er_order_stat


def _modules_after(statement):
    # a fresh interpreter, so no module this session imported counts
    src = str(Path(auctioncomp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys; {statement}; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return out.split()


def test_the_root_imports_nothing_and_a_module_only_what_it_needs():
    loaded = _modules_after("import auctioncomp")
    assert "auctioncomp" in loaded and "numpy" not in loaded
    assert [m for m in loaded if m.startswith("auctioncomp.")] == []
    loaded = _modules_after("import auctioncomp.distributions")
    assert [m for m in loaded if m.startswith("auctioncomp.")] == ["auctioncomp.distributions"]


def _rng():
    return np.random.default_rng(1)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: FiniteDiscrete((1.0, 2.0), (1.0,)),
                     "values and probs must be equal-length 1-d sequences", id="discrete-lengths"),
        pytest.param(lambda: FiniteDiscrete((2.0, 1.0), (0.5, 0.5)),
                     "values must be strictly ascending", id="discrete-order"),
        pytest.param(lambda: top_order_stats(3, 4, _rng(), 8), "need 1 <= k <= n", id="top-k-above-n"),
        pytest.param(lambda: top_order_stats(3, 0, _rng(), 8), "need 1 <= k <= n", id="top-k-0"),
        pytest.param(lambda: sample_xs(0, 0, _rng(), 8), "need n + c >= 1", id="xs-n+c-0"),
        pytest.param(lambda: ystar_conditional_mc(2, 4, 1.0, 1000, 1), "p must lie in (0, 1)", id="ystar-p-1"),
        pytest.param(lambda: ystar_conditional_mc(2, 4, 0.0, 1000, 1), "p must lie in (0, 1)", id="ystar-p-0"),
        pytest.param(lambda: ystar_conditional_mc(2, 1, 0.5, 1000, 1), "need m >= 2", id="ystar-m-1"),
        pytest.param(lambda: er_order_stat(5, 4), "need 2 <= x <= y", id="er-order-x-above-y"),
        pytest.param(lambda: er_order_stat(0, 4), "need 2 <= x <= y", id="er-order-x-0"),
        pytest.param(lambda: er_benchmark_decomposition(0, 2, 1e4), "need n >= 1, m >= 1", id="er-decomposition-n-0"),
        pytest.param(lambda: er_benchmark_decomposition(2, 0, 1e4), "need n >= 1, m >= 1", id="er-decomposition-m-0"),
        pytest.param(lambda: bign_tightness(7, 2, 1), "need n >= 4m", id="bign-n-below-4m"),
    ],
)
def test_input_checks_reject_with_their_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
