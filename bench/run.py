"""auctioncomp benchmark.

    python3 bench/run.py --workload {claims,profiles,xl-wide} --seed N --seconds S --trace {0,1}

Run from the repository root (any directory holding ``src/auctioncomp`` and
this ``bench`` directory). Each repetition of the workload runs in its own
fresh process (``worker.py``), one after another, until ``--seconds`` have
passed. With ``--trace 0`` it reports the end-to-end metrics as medians over
the repetitions; with ``--trace 1`` it alternates untraced and traced
repetitions, adds one tracemalloc repetition, and reports the per-layer
metrics. Every metric is printed as ``name value unit``, then a provenance
line, then, as the last line, the JSON result. See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402

WORKLOADS = ("claims", "profiles", "xl-wide")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("rse_max", "ratio")]
MIN_REPS = 3  # timed repetitions with --trace 0
MIN_PAIRS = 2  # untraced + traced pairs with --trace 1
SETUP_ONLY_REPS = 5  # extra set-up-only processes per run, for the setup_s median
DEADLINE_S = 160.0  # start no repetition that could end after this


class WorkerFailed(RuntimeError):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the worker's reading is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker process to completion and return its record."""
    start = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    record["elapsed_s"] = _now() - start
    return record


def repeat(workload: str, seed: int, modes: list[str], seconds: float, min_reps: int, t0: float):
    """Run rounds of ``modes`` until ``seconds`` have passed and ``min_reps`` rounds ran."""
    rounds = []
    while True:
        remaining = DEADLINE_S - (_now() - t0)
        rounds.append([spawn(workload, seed, mode, remaining) for mode in modes])
        elapsed = _now() - t0
        last = sum(r["elapsed_s"] for r in rounds[-1])
        if len(rounds) >= min_reps and elapsed >= seconds:
            return rounds
        if elapsed + 1.5 * last > DEADLINE_S:
            return rounds


def score(records: list[dict], extra_checks: list[tuple[str, bool]]):
    """(attempted, failed, names of failed operations) over every timed record."""
    verdicts = [tuple(v) for r in records for v in r["verdicts"]]
    digests = {r["digest"] for r in records}
    verdicts.append(("same outputs in every repetition", len(digests) == 1))
    verdicts.extend(extra_checks)
    failed = [name for name, ok in verdicts if not ok]
    return len(verdicts), len(failed), failed


def end_to_end(workload: str, seed: int, seconds: float, t0: float):
    rounds = repeat(workload, seed, ["plain"], seconds, MIN_REPS, t0)
    timed = [r[0] for r in rounds]
    setups = [r["setup_s"] for r in timed]
    for _ in range(SETUP_ONLY_REPS):
        if _now() - t0 > DEADLINE_S - 10:
            break
        setups.append(spawn(workload, seed, "setup", DEADLINE_S - (_now() - t0))["setup_s"])
    values = {name: statistics.median(r[name] for r in timed) for name, _ in END_TO_END[1:]}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    notes = {"wall_s_samples": [r["wall_s"] for r in timed], "setup_s_samples": setups}
    return timed, [], metrics, notes


def per_layer(workload: str, seed: int, seconds: float, t0: float):
    rounds = repeat(workload, seed, ["plain", "trace"], seconds, MIN_PAIRS, t0)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    mem = spawn(workload, seed, "mem", DEADLINE_S - (_now() - t0))
    counts = {json.dumps({k: r["layers"][k] for k in EXACT_COUNTS}) for r in traced}
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    layers.update(mem["layers"])
    layers["tracing.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    )
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        value = layers[name]
        metrics[name] = (int(value) if unit == "count" else value, unit)
    notes = {"repetitions": len(plain), "traced_repetitions": len(traced)}
    checks = [("counts repeat exactly between traced repetitions", len(counts) == 1)]
    return plain + traced + [mem], checks, metrics, notes


def provenance(args, numpy_version: str, notes: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        **notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "auctioncomp" / "__init__.py").is_file():
        print(f"no auctioncomp sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    t0 = _now()
    measure = per_layer if args.trace else end_to_end
    try:
        records, checks, metrics, notes = measure(args.workload, args.seed, args.seconds, t0)
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failed_names = score(records, checks)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:<22} {unit}")
    print(f"{'error_rate':48s} {failed / attempted:<22} ratio ({failed} of {attempted} operations)")
    for name, times in Counter(failed_names).items():
        print(f"failed {times}x: {name}")
    print("provenance " + json.dumps(provenance(args, records[0]["numpy"], notes)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
