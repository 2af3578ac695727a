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
from .distributions import ProductDist, parse_dist
from .virtual import iron

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_PRECONDITION = 3


def _emit(payload: dict, rows: list[dict], args) -> None:
    """Write the artifact as JSON (config + rows) or CSV (rows only)."""
    if args.out == "json":
        text = json.dumps({"config": payload, "results": rows}, sort_keys=True, indent=2) + "\n"
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
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "output") and v is not None}
    cfg.update(extra)
    return cfg


def _est_row(name: str, est: rev_mod.RevenueEstimate) -> dict:
    return {"name": name, "mean": est.mean, "stderr": est.stderr, "samples": est.samples}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_virtual(args) -> int:
    d = parse_dist(args.dist)
    imap = iron(d)
    if args.quantile is not None:
        probes = [args.quantile]
    else:
        probes = list(np.linspace(0.0, 0.99, 12))
    rows = [
        {
            "quantile": u,
            "value": float(np.asarray(d.quantile(u))),
            "phi_bar": float(np.asarray(imap.at_quantile(u))),
        }
        for u in probes
    ]
    _emit(_config(args, regular=imap.regular), rows, args)
    return EXIT_OK


def cmd_revenue(args) -> int:
    n, N, seed = args.n, args.samples, args.seed
    if args.mech == "myerson":
        est = rev_mod.myerson_item_revenue(parse_dist(args.dist), n, N, seed)
    elif args.mech in ("vcg", "srev"):
        pd = ProductDist(tuple(parse_dist(args.dist) for _ in range(args.m)))
        est = (rev_mod.vcg if args.mech == "vcg" else rev_mod.srev)(pd, n, N, seed)
    elif args.mech == "feldman":
        est = rev_mod.feldman_posted_price(n, args.m, N, seed, p=args.trunc, price=args.price)
    else:  # three-tier
        est = rev_mod.three_tier_mechanism(n, args.medium_price, args.high_price, N, seed)
    _emit(_config(args), [_est_row(args.mech, est)], args)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    marginals = tuple(parse_dist(s) for s in args.dist)
    pd = ProductDist(marginals)
    n, m, N, seed = args.n, pd.m, args.samples, args.seed
    rows = [_est_row("efftw", bench_mod.efftw_bound(pd, n, N, seed))]
    links_ok = True
    if args.chain == "little":
        c = args.c if args.c is not None else math.ceil(n * (2.0 + math.log(1.0 + m / n)))
        rows.append(_est_row("obs1", bench_mod.obs1_bound(pd, n, N, seed)))
        rows.append(_est_row("xl_chain", bench_mod.xl_chain_bound(pd, n, N, seed)))
        rows.append(_est_row(f"srev_n+{c}", rev_mod.srev(pd, n + c, N, seed)))
    elif args.chain == "big":
        ell = args.l if args.l is not None else math.ceil(math.sqrt(n / m)) + 1
        c = args.c if args.c is not None else math.ceil(5.0 * math.sqrt(n * m) + 4.0 * (m - 1))
        rows.append(_est_row(f"xb_chain_l{ell}", bench_mod.xb_chain_bound(pd, n, ell, N, seed)))
        rows.append(_est_row(f"srev_n+{c}", rev_mod.srev(pd, n + c, N, seed)))
    # every row is an exact bracket: its half-width is certified, so the
    # slack of a link is the sum of the two, not a multiple of sigma
    for lo, hi in zip(rows, rows[1:]):
        ok = lo["mean"] <= hi["mean"] + lo["stderr"] + hi["stderr"]
        hi["link_ok"] = ok
        links_ok = links_ok and ok
    _emit(_config(args), rows, args)
    return EXIT_OK if links_ok else EXIT_CLAIM


def cmd_dominance(args) -> int:
    n, m, ell, c = args.n, args.m, args.l, args.c
    xb = args.pair == "xs-xb"
    if xb:
        sampler_b = lambda rng, b: exp_mod.sample_xb(n, ell, rng, b)
    else:  # xs-xl
        sampler_b = lambda rng, b: exp_mod.sample_xl(n, m, rng, b)
    sampler_a = lambda rng, b: exp_mod.sample_xs(n, c, rng, b)
    # the samplers check n, m and ell before the threshold formulas divide by them
    report = exp_mod.dominance_test(
        sampler_a, sampler_b, args.samples, delta=args.delta, seed=args.seed
    )
    threshold = 4.0 * n / (ell - 1) if xb else n * (2.0 + math.log(1.0 + m / n))
    expected = c >= threshold
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
        # runtime deliberately excluded: artifacts must be byte-identical
        print(f"{r.name}: {r.runtime:.2f}s", file=sys.stderr)
        rows.append(
            {
                "name": r.name,
                "computed": r.computed,
                "target": r.target,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
        )
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
        # only the subcommands whose estimators take a sample budget N
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
    p.add_argument("--trunc", type=float, default=1e4, help="value-support truncation point")
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
    p.add_argument("--pair", choices=["xs-xb", "xs-xl"], required=True)
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
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
