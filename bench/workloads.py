"""The benchmark's three workloads: inputs built from a seed, calls, oracles.

Each workload is a closed loop in one process: every call into auctioncomp is
issued after the previous one returns. ``build(seed)`` makes the inputs (the
library sees only these, never the benchmark seed) and ``run(inputs, out)``
issues the calls and records one verdict per operation in ``out``.

Oracles are independent of the code path they check: byte replay, exit
codes, and inequalities between different estimators or a closed form.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback

import numpy as np

from auctioncomp import benchmark, cli, distributions, experiments, revenue

UNIFORM = "uniform:0,1"
IRREGULAR = "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05"


class Outcome:
    """Verdicts, relative standard errors and a digest of one workload run."""

    def __init__(self):
        self.verdicts: list[tuple[str, bool]] = []
        self.rse: list[float] = []
        self._digest = hashlib.sha256()

    def check(self, name: str, ok: bool) -> bool:
        self.verdicts.append((name, bool(ok)))
        return bool(ok)

    def estimate(self, mean: float, stderr: float) -> None:
        """Record a Monte Carlo estimate; it enters rse_max and the digest."""
        self._digest.update(repr((mean, stderr)).encode())
        if stderr > 0:
            self.rse.append(abs(stderr / mean))

    def output(self, data: bytes) -> None:
        self._digest.update(data)

    def call(self, name: str, fn, *args):
        """Run one library call; an exception is a failed operation."""
        try:
            return fn(*args)
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc()
            self.check(name, False)
            return None

    def digest(self) -> str:
        return self._digest.hexdigest()


def _seeds(seed: int, k: int) -> list[int]:
    """k library seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _product(specs) -> distributions.ProductDist:
    return distributions.ProductDist(tuple(distributions.parse_dist(s) for s in specs))


# ---------------------------------------------------------------------------
# claims: the user's CLI session
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """Call cli.main in process; return (exit code, stdout). Stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def build_claims(seed: int) -> dict:
    s = [str(x) for x in _seeds(seed, 8)]
    return {
        "reproduce": ["reproduce", "--all", "--seed", s[0]],
        "examples": [
            ["benchmark", "--dist", *[UNIFORM] * 4, "-n", "2", "--chain", "little",
             "--samples", "400000", "--seed", s[1]],
            ["benchmark", "--dist", UNIFORM, UNIFORM, "-n", "16", "--chain", "big",
             "--samples", "400000", "--seed", s[2]],
            ["dominance", "--pair", "xs-xb", "-n", "10", "-l", "3", "-c", "20",
             "--samples", "1000000", "--seed", s[3]],
            ["revenue", "--mech", "myerson", "--dist", "er:p=10000", "-n", "5", "--seed", s[4]],
            ["revenue", "--mech", "srev", "--dist", "exp:1", "-n", "4", "-m", "3", "--seed", s[5]],
            ["revenue", "--mech", "vcg", "--dist", "exp:1", "-n", "4", "-m", "3",
             "--samples", "1000000", "--seed", s[6]],
            ["virtual", "--dist", IRREGULAR, "--seed", s[7]],
        ],
    }


def run_claims(inputs: dict, out: Outcome) -> None:
    argv = inputs["reproduce"]
    runs = [out.call(" ".join(argv), _cli, argv) for _ in range(2)]
    for code, _ in filter(None, runs):
        out.check(f"{' '.join(argv)} exits 0", code == 0)
    if None not in runs:
        out.check(f"{' '.join(argv)} replays byte for byte", runs[0][1] == runs[1][1])
        out.output(runs[0][1].encode())
    for argv in inputs["examples"]:
        result = out.call(" ".join(argv), _cli, argv)
        if result is None:
            continue
        code, text = result
        out.output(text.encode())
        if out.check(f"{' '.join(argv)} exits 0", code == 0):
            for row in json.loads(text)["results"]:
                if "stderr" in row:
                    out.estimate(row["mean"], row["stderr"])


# ---------------------------------------------------------------------------
# profiles: the benchmark kernels on two product distributions
# ---------------------------------------------------------------------------

# ER(1e4)^2 takes the closed-form virtual-value path and has a heavy-tailed
# atom; the irregular discrete item sends at_quantile down the ironed grid.
PRODUCTS = {
    "er2": ["er:p=10000"] * 2,
    "mixed": [IRREGULAR, "exp:1", UNIFORM],
}
PROFILES_N = 2_000_000
PROFILES_BIDDERS = 4


def build_profiles(seed: int) -> dict:
    s = _seeds(seed, len(PRODUCTS))
    return {name: (_product(specs), s[i]) for i, (name, specs) in enumerate(PRODUCTS.items())}


def run_profiles(inputs: dict, out: Outcome) -> None:
    n, N = PROFILES_BIDDERS, PROFILES_N
    for name, (pd, s) in inputs.items():
        eff = out.call(f"{name} efftw_bound", benchmark.efftw_bound, pd, n, N, s)
        obs = out.call(f"{name} obs1_bound", benchmark.obs1_bound, pd, n, N, s)
        sr = out.call(f"{name} srev", revenue.srev, pd, n)
        if None in (eff, obs, sr):
            continue
        for est in (eff, obs, sr):
            out.estimate(est.mean, est.stderr)
        # efftw and obs1 share the profile stream; srev is quadrature
        out.check(f"{name} srev <= efftw", sr.mean <= eff.mean + 3 * eff.combined_stderr(sr))
        out.check(f"{name} efftw <= obs1", eff.mean <= obs.mean + 3 * eff.combined_stderr(obs))


# ---------------------------------------------------------------------------
# xl-wide: the little-n chain and the quantile experiments at m = 16
# ---------------------------------------------------------------------------

XL_ITEMS = 16
XL_BIDDERS = 2
XL_EXTRA = 9  # >= n (2 + ln(1 + m/n)) = 8.39, so X_S(n, c) must dominate X_L(n, m)
XL_CHAIN_N = 1_000_000
XL_DOMINANCE_N = 2_000_000
XL_YSTAR_N = 2_000_000
XL_YSTAR_P = 0.5


def build_xl_wide(seed: int) -> dict:
    s = _seeds(seed, 3)
    pd = _product([UNIFORM] * XL_ITEMS)
    return {"pd": pd, "chain_seed": s[0], "dominance_seed": s[1], "ystar_seed": s[2]}


def run_xl_wide(inputs: dict, out: Outcome) -> None:
    n, m, c = XL_BIDDERS, XL_ITEMS, XL_EXTRA
    pd = inputs["pd"]
    xl = out.call("xl_chain_bound", benchmark.xl_chain_bound, pd, n, XL_CHAIN_N, inputs["chain_seed"])
    sr = out.call("srev(n+c)", revenue.srev, pd, n + c)
    if xl is not None and sr is not None:
        out.estimate(xl.mean, xl.stderr)
        out.estimate(sr.mean, sr.stderr)
        out.check("xl_chain <= srev(n+c)", xl.mean <= sr.mean + 3 * xl.combined_stderr(sr))

    report = out.call(
        "dominance_test",
        experiments.dominance_test,
        lambda rng, b: experiments.sample_xs(n, c, rng, b),
        lambda rng, b: experiments.sample_xl(n, m, rng, b),
        XL_DOMINANCE_N,
        experiments.DEFAULT_GRID_SIZE,
        1e-3,
        inputs["dominance_seed"],
    )
    if report is not None:
        out.output(report.cdf_a.tobytes() + report.cdf_b.tobytes())
        out.check(f"X_S({n},{c}) dominates X_L({n},{m})",
                  c >= n * (2 + math.log(1 + m / n)) and report.dominates)

    mc = out.call("ystar_conditional_mc", experiments.ystar_conditional_mc,
                  n, m, XL_YSTAR_P, XL_YSTAR_N, inputs["ystar_seed"])
    if mc is not None:
        est, stderr = mc
        out.estimate(est, stderr)
        tail = experiments.ystar_tail(n, m, XL_YSTAR_P)
        out.check("ystar_conditional_mc ~ ystar_tail", abs(est - tail) <= 4 * stderr)


WORKLOADS = {
    "claims": (build_claims, run_claims),
    "profiles": (build_profiles, run_profiles),
    "xl-wide": (build_xl_wide, run_xl_wide),
}
