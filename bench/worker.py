"""One run of one workload in a fresh process; prints one JSON record.

Usage: python3 bench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build inputs, then stop), ``plain`` (timed,
untraced), ``trace`` (spans and counts at the layer boundaries) or ``mem``
(tracemalloc peaks per stage). auctioncomp is imported from the ``src``
directory next to this one, never from an installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import auctioncomp

    if not Path(auctioncomp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"auctioncomp imported from {auctioncomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import tracer
    import workloads

    build, run = workloads.WORKLOADS[workload]
    instrument = {"trace": tracer.Tracer, "mem": tracer.AllocStages}.get(mode, lambda: None)()
    if instrument is not None:
        instrument.install()
    inputs = build(seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    record = {"ready": ready, "numpy": np.__version__}
    if mode != "setup":
        out = workloads.Outcome()
        start = time.perf_counter()
        run(inputs, out)
        record.update(
            wall_s=time.perf_counter() - start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            rse_max=max(out.rse, default=0.0),
            verdicts=out.verdicts,
            digest=out.digest(),
            layers=instrument.metrics() if instrument is not None else {},
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
