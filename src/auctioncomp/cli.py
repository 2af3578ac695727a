"""Command-line front end.

Subcommands: ``virtual``, ``revenue``, ``benchmark``, ``dominance``,
``reproduce``. Every run requires an explicit ``--seed`` and emits a
machine-readable artifact (JSON or CSV) that embeds the run configuration, so
published numbers are replayable. Output is a pure function of (argv, seed):
wall-clock runtimes are reported on stderr only, never in the artifact.

Exit codes: 0 success, 1 claim/contract failure, 2 usage error (argparse),
3 precondition violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import benchmark as bench_mod
from . import experiments as exp_mod
from . import repro as repro_mod
from . import revenue as rev_mod
from .distributions import ProductDist, TruncatedEqualRevenue, parse_dist
from .rng import need_samples

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_PRECONDITION = 3


def _emit(payload: dict, rows: list[dict], args) -> None:
    """Write the artifact as JSON (config + rows) or CSV (rows only).

    Strict JSON has no NaN or Infinity, so neither format carries one: a
    non-finite number is a precondition violation, never an artifact.
    """
    for row in rows:
        for key, val in row.items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"non-finite {key} {val} in the artifact")
    if args.out == "json":
        text = json.dumps(
            {"config": payload, "results": rows}, sort_keys=True, indent=2, allow_nan=False
        ) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            # rows may differ in their keys: the header is their union, in first-seen order
            fieldnames = list(dict.fromkeys(key for row in rows for key in row))
            writer = csv.DictWriter(buf, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise ValueError(f"cannot write the artifact to {args.output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "output") and v is not None}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_virtual(args) -> int:
    d = parse_dist(args.dist)
    if args.quantile is not None:
        probes = [args.quantile]
    else:
        probes = list(np.linspace(0.0, 0.99, 12))
    rows = [
        {
            "quantile": u,
            "value": float(np.asarray(d.quantile(u))),
            "phi_bar": float(np.asarray(d.phi_bar(u))),
        }
        for u in probes
    ]
    _emit(_config(args, regular=d.regular), rows, args)
    return EXIT_OK


def cmd_revenue(args) -> int:
    # an exact revenue's row is its bracket (lo, hi); the one Monte Carlo
    # revenue's is its mean and stderr over --samples runs
    n = args.n
    if args.mech == "myerson":
        row = vars(rev_mod.myerson_item_revenue(parse_dist(args.dist), n))
    elif args.mech in ("vcg", "srev"):
        pd = ProductDist((parse_dist(args.dist),) * args.m)
        row = vars((rev_mod.vcg if args.mech == "vcg" else rev_mod.srev)(pd, n))
    elif args.mech == "feldman":
        d = parse_dist(args.dist)
        if not isinstance(d, TruncatedEqualRevenue):
            raise ValueError(f"--mech feldman runs on equal-revenue items (er:p=...), not {args.dist!r}")
        mean, stderr = rev_mod.feldman_posted_price(n, args.m, args.samples, args.seed, p=d.p, price=args.price)
        row = {"mean": mean, "stderr": stderr, "samples": args.samples}
    else:  # three-tier
        row = vars(rev_mod.three_tier_mechanism(n, args.medium_price, args.high_price))
    _emit(_config(args), [{"name": args.mech, **row}], args)
    return EXIT_OK


def _little_n_extra(n: int, m: int) -> float:
    """The paper's count of extra bidders for little n: n (2 + ln(1 + m/n))."""
    return n * (2.0 + math.log(1.0 + m / n))


def cmd_benchmark(args) -> int:
    pd = ProductDist(tuple(parse_dist(s) for s in args.dist))
    n, m, N = args.n, pd.m, args.samples
    if args.chain and args.c is not None and n + args.c < 1:
        # the last link, srev with n + c bidders, is checked before any link is computed
        raise ValueError("need n + c >= 1")
    # the bounds read no N; the tracer counts it (README, "Pinned by `bench/`")
    chain = [("efftw", bench_mod.efftw_bound(pd, n, N))]
    if args.chain == "little":
        c = args.c if args.c is not None else math.ceil(_little_n_extra(n, m))
        chain.append(("obs1", bench_mod.obs1_bound(pd, n, N)))
        chain.append(("xl_chain", bench_mod.xl_chain_bound(pd, n)))
        chain.append((f"srev_n+{c}", rev_mod.srev(pd, n + c)))
    elif args.chain == "big":
        ell = args.l if args.l is not None else math.ceil(math.sqrt(n / m)) + 1
        c = args.c if args.c is not None else math.ceil(5.0 * math.sqrt(n * m) + 4.0 * (m - 1))
        chain.append((f"xb_chain_l{ell}", bench_mod.xb_chain_bound(pd, n, ell)))
        chain.append((f"srev_n+{c}", rev_mod.srev(pd, n + c)))
    rows = [{"name": name, **vars(b)} for name, b in chain]
    # each link holds unless the two brackets refute it
    links = [a.le(b) is not False for (_, a), (_, b) in zip(chain, chain[1:])]
    for row, ok in zip(rows[1:], links):
        row["link_ok"] = ok
    _emit(_config(args), rows, args)
    return EXIT_OK if all(links) else EXIT_CLAIM


# --pair -> (the law X_S(n, c) must dominate, the paper's c for it); the law checks its sizes first
PAIRS = {
    "xs-xb": lambda args: (exp_mod.XB(args.n, args.l), 4.0 * args.n / (args.l - 1)),
    "xs-xl": lambda args: (exp_mod.XL(args.n, args.m), _little_n_extra(args.n, args.m)),
}


def cmd_dominance(args) -> int:
    law, threshold = PAIRS[args.pair](args)
    report = exp_mod.dominance_test(lambda rng, b: exp_mod.sample_xs(args.n, args.c, rng, b), law,
                                    args.samples, delta=args.delta, seed=args.seed)
    expected = args.c >= threshold
    rows = [
        {
            "pair": args.pair,
            "dominates": report.dominates,
            "epsilon": report.epsilon,
            "max_violation": report.max_violation,
            "threshold_c": threshold,
            "above_threshold": expected,
        }
    ]
    _emit(_config(args), rows, args)
    return EXIT_CLAIM if expected and not report.dominates else EXIT_OK


def cmd_reproduce(args) -> int:
    if args.all:
        results = repro_mod.run_all(args.seed)
    else:
        results = [repro_mod.run_claim(args.claim, args.seed)]
    rows = []
    for r in results:
        # the verdict's five keys, then the claim's details; runtime
        # deliberately excluded: artifacts must be byte-identical
        print(f"{r.name}: {r.runtime:.2f}s", file=sys.stderr)
        rows.append({**{key: getattr(r, key) for key in ("name", "computed", "target", "tolerance", "passed")},
                     **r.details})
    _emit(_config(args), rows, args)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CLAIM


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctioncomp",
        description="Seeded simulation and verification of auction competition-complexity claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, required=True, help="master RNG seed (required)")
        p.add_argument("--out", choices=["json", "csv"], default="json")
        p.add_argument("--output", help="write artifact to this path instead of stdout")

    def sampled(p):
        # dominance and feldman draw N samples; the exact estimators read none
        # (README, "Pinned by `bench/`")
        p.add_argument("--samples", type=int, default=1_000_000)
        common(p)

    p = sub.add_parser("virtual", help="ironed virtual values of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--quantile", type=float)
    common(p)
    p.set_defaults(func=cmd_virtual)

    p = sub.add_parser("revenue", help="revenue estimators and explicit mechanisms")
    p.add_argument("--mech", choices=["myerson", "vcg", "srev", "feldman", "three-tier"],
                   required=True)
    p.add_argument("--dist", default="er:p=10000")
    p.add_argument("-n", type=int, required=True, help="number of bidders")
    p.add_argument("-m", type=int, default=1, help="number of items")
    p.add_argument("--price", type=float, help="override the posted bundle price")
    p.add_argument("--medium-price", type=float, default=100.0)
    p.add_argument("--high-price", type=float, default=1e8)
    sampled(p)
    p.set_defaults(func=cmd_revenue)

    p = sub.add_parser("benchmark", help="revenue benchmark and its chain of upper bounds")
    p.add_argument("--dist", nargs="+", required=True, help="one marginal spec per item")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--chain", choices=["little", "big"])
    p.add_argument("-l", type=int, help="order index for the big-n chain")
    p.add_argument("-c", type=int, help="extra bidders for the final chain link")
    sampled(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("dominance", help="empirical stochastic dominance of quantile experiments")
    p.add_argument("--pair", choices=list(PAIRS), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-l", type=int, default=2)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-3)
    sampled(p)
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("reproduce", help="run the registered reproduction claims")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--claim", help="claim identifier")
    which.add_argument("--all", action="store_true")
    common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built once per process; parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "samples" in vars(args):  # the one check of --samples, whichever estimator reads it
            need_samples(args.samples)
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
