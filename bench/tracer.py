"""Outside-in instrumentation of auctioncomp's layers.

Nothing here edits the package: every traced function is replaced, after
import, by a wrapper at each module binding of it. ``from .virtual import
iron`` copies ``iron`` into ``benchmark``, ``revenue`` and ``cli``, and
``efftw_bound`` is copied into ``repro``, so patching only the defining module
would miss those calls. Three class methods are wrapped on their class.

Two instruments share that patching:

* ``Tracer`` records one span per call (name, start, end, parent span) plus
  per-call counts, and turns them into per-layer metrics. Self time is a
  span's duration minus the time its child spans cover.
* ``AllocStages`` takes ``tracemalloc`` peaks around a few top-level stages.
  It runs in its own process: tracemalloc slows pure-Python loops (the
  ironing hull) several-fold, so its process is never timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (layer module, public function) pairs wrapped at every binding.
FUNCTIONS = [
    ("rng", "substream"),
    ("virtual", "iron"),
    ("revenue", "myerson_item_revenue"),
    ("revenue", "vcg_item_revenue"),
    ("revenue", "feldman_posted_price"),
    ("revenue", "three_tier_mechanism"),
    ("benchmark", "efftw_bound"),
    ("benchmark", "obs1_bound"),
    ("benchmark", "xl_chain_bound"),
    ("benchmark", "xb_chain_bound"),
    ("benchmark", "assign_regions"),
    ("experiments", "sample_xl"),
    ("experiments", "sample_xb"),
    ("experiments", "top_order_stats"),
    ("experiments", "dominance_test"),
    ("experiments", "ystar_conditional_mc"),
    ("repro", "run_all"),
    ("cli", "main"),
]

# (layer module, class, method) wrapped on the class; subclasses inherit them.
METHODS = [
    ("distributions", "SingleDist", "quantile"),
    ("distributions", "ProductDist", "sample_profiles"),
    ("virtual", "IronedVirtualMap", "at_quantile"),
]

# Stages whose tracemalloc peak is reported. None of them calls another, so
# resetting the peak at each call never cuts into an enclosing stage.
ALLOC_STAGES = [
    ("benchmark", "efftw_bound"),
    ("benchmark", "xl_chain_bound"),
    ("experiments", "dominance_test"),
    ("experiments", "ystar_conditional_mc"),
]

# Span name -> counts of one call, from its bound arguments and its result.
COUNTERS = {
    "distributions.quantile": lambda a, out: {"distributions.quantile.values": np.size(a["q"])},
    "distributions.sample_profiles": lambda a, out: {
        "distributions.sample_profiles.cells": a["n_bidders"] * a["n_profiles"] * a["self"].m
    },
    "virtual.at_quantile": lambda a, out: {"virtual.at_quantile.values": np.size(a["u"])},
    "benchmark.efftw_bound": lambda a, out: {"benchmark.profiles": a["N"]},
    "benchmark.obs1_bound": lambda a, out: {"benchmark.profiles": a["N"]},
    "experiments.sample_xl": lambda a, out: {"experiments.sample_xl.draws": a["size"]},
    "repro.run_all": lambda a, out: {"repro.claims_failed": sum(not r.passed for r in out)},
    "cli.main": lambda a, out: {"cli.main.nonzero_exits": int(out != 0)},
}

# Span name -> key of one call; the number of distinct keys over calls is the
# useful share of the work (a distribution ironed twice is ironed in vain).
DISTINCT = {"virtual.iron": lambda a: a["d"].spec()}

# Reported per-layer metrics: (name, unit, better).
LAYER_METRICS = [
    ("rng.substream.calls", "count", "lower"),
    ("rng.substream.self_s", "s", "lower"),
    ("distributions.quantile.calls", "count", "lower"),
    ("distributions.quantile.values", "count", "lower"),
    ("distributions.quantile.self_s", "s", "lower"),
    ("distributions.sample_profiles.cells", "count", "lower"),
    ("distributions.sample_profiles.self_s", "s", "lower"),
    ("virtual.iron.calls", "count", "lower"),
    ("virtual.iron.self_s", "s", "lower"),
    ("virtual.iron.useful_ratio", "ratio", "higher"),
    ("virtual.at_quantile.values", "count", "lower"),
    ("virtual.at_quantile.self_s", "s", "lower"),
    ("revenue.myerson_item_revenue.calls", "count", "lower"),
    ("revenue.myerson_item_revenue.self_s", "s", "lower"),
    ("revenue.vcg_item_revenue.self_s", "s", "lower"),
    ("revenue.feldman_posted_price.self_s", "s", "lower"),
    ("revenue.three_tier_mechanism.self_s", "s", "lower"),
    ("benchmark.efftw_bound.self_s", "s", "lower"),
    ("benchmark.obs1_bound.self_s", "s", "lower"),
    ("benchmark.xl_chain_bound.self_s", "s", "lower"),
    ("benchmark.xb_chain_bound.self_s", "s", "lower"),
    ("benchmark.assign_regions.self_s", "s", "lower"),
    ("benchmark.profiles_per_s", "1/s", "higher"),
    ("benchmark.efftw_bound.peak_alloc_mb", "MB", "lower"),
    ("benchmark.xl_chain_bound.peak_alloc_mb", "MB", "lower"),
    ("experiments.sample_xl.draws", "count", "lower"),
    ("experiments.sample_xl.self_s", "s", "lower"),
    ("experiments.sample_xb.self_s", "s", "lower"),
    ("experiments.top_order_stats.self_s", "s", "lower"),
    ("experiments.dominance_test.self_s", "s", "lower"),
    ("experiments.ystar_conditional_mc.self_s", "s", "lower"),
    ("experiments.dominance_test.peak_alloc_mb", "MB", "lower"),
    ("experiments.ystar_conditional_mc.peak_alloc_mb", "MB", "lower"),
    ("repro.run_all.self_s", "s", "lower"),
    ("repro.claims_failed", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.nonzero_exits", "count", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]

# Counts that must repeat exactly between traced runs at one seed.
EXACT_COUNTS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]


def _rebind(orig, replacement) -> None:
    """Point every auctioncomp module binding of ``orig`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name != "auctioncomp" and not name.startswith("auctioncomp."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def _patch_all(functions, methods, make_wrapper) -> None:
    for layer, fname in functions:
        orig = getattr(importlib.import_module(f"auctioncomp.{layer}"), fname)
        _rebind(orig, make_wrapper(f"{layer}.{fname}", orig))
    for layer, cls_name, meth in methods:
        cls = getattr(importlib.import_module(f"auctioncomp.{layer}"), cls_name)
        setattr(cls, meth, make_wrapper(f"{layer}.{meth}", cls.__dict__[meth]))


class Tracer:
    """Spans and counts at the layer boundaries, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    def install(self) -> None:
        _patch_all(FUNCTIONS, METHODS, self._wrap)

    def _wrap(self, name, fn):
        counter, distinct = COUNTERS.get(name), DISTINCT.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
            self.counts[f"{name}.calls"] += 1
            if counter or distinct:
                bound = sig.bind(*args, **kwargs).arguments
                for key, val in (counter(bound, out) if counter else {}).items():
                    self.counts[key] += val
                if distinct:
                    self.distinct[name].add(distinct(bound))
            return out

        return traced

    def times(self) -> tuple[dict, dict]:
        """(self seconds, total seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), cov in zip(self.spans, covered):
            self_s[name] += (end - start) - cov
            total_s[name] += end - start
        return self_s, total_s

    def metrics(self) -> dict:
        """Per-layer counts and self times; names absent from the run read 0."""
        self_s, total_s = self.times()
        out = {}
        for name, _, _ in LAYER_METRICS:
            span, _, kind = name.rpartition(".")
            out[name] = self_s.get(span, 0.0) if kind == "self_s" else self.counts.get(name, 0.0)
        iron_calls = self.counts["virtual.iron.calls"]
        out["virtual.iron.useful_ratio"] = (
            len(self.distinct["virtual.iron"]) / iron_calls if iron_calls else 0.0
        )
        bench_s = total_s.get("benchmark.efftw_bound", 0.0) + total_s.get("benchmark.obs1_bound", 0.0)
        out["benchmark.profiles_per_s"] = self.counts["benchmark.profiles"] / bench_s if bench_s else 0.0
        return out


class AllocStages:
    """tracemalloc peak above the starting level, per stage, max over calls."""

    def __init__(self):
        self.peak_mb: dict[str, float] = {f"{layer}.{fn}": 0.0 for layer, fn in ALLOC_STAGES}

    def install(self) -> None:
        tracemalloc.start()
        _patch_all(ALLOC_STAGES, [], self._wrap)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def staged(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.peak_mb[name] = max(self.peak_mb[name], (peak - base) / 2**20)

        return staged

    def metrics(self) -> dict:
        return {f"{name}.peak_alloc_mb": mb for name, mb in self.peak_mb.items()}
