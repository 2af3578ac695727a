import csv
import io
import json
import math
import subprocess
import sys

import pytest

from auctioncomp import benchmark as bench_mod
from auctioncomp import cli as cli_mod
from auctioncomp import experiments as exp_mod
from auctioncomp import repro as repro_mod
from auctioncomp import revenue as rev_mod
from auctioncomp.cli import (
    EXIT_CLAIM,
    EXIT_OK,
    EXIT_PRECONDITION,
    build_parser,
    main,
)
from auctioncomp.revenue import Bracket


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_chain_bounds_do_not_load_numpy_polynomial():
    # the quadrature nodes are built in the package: numpy.polynomial costs
    # ~5 ms to import and ~1.6 MB of resident memory
    code = (
        "import sys; from auctioncomp.benchmark import xb_chain_bound, xl_chain_bound; "
        "from auctioncomp.distributions import ProductDist, Uniform; "
        "pd = ProductDist((Uniform(0, 1),) * 2); xl_chain_bound(pd, 2); xb_chain_bound(pd, 2, 2); "
        "print('numpy.polynomial' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--all", "--seed", "42"],
        ["benchmark", "--dist", "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05", "exp:1",
         "uniform:0,1", "-n", "4", "--chain", "little", "--seed", "1"],
    ],
    ids=["reproduce", "benchmark-mixed"],
)
def test_commands_do_not_load_numpy_ma(argv):
    # np.unique imports all of numpy.ma on first use: ~15 ms and ~1.5 MB
    code = (
        "import sys; from auctioncomp.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert out.stderr.split()[-2:] == [str(EXIT_OK), "False"], out.stderr


def test_import_does_not_load_scipy():
    # scipy.integrate alone takes several times the whole package's import
    code = "import sys, auctioncomp; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["virtual", "--dist", "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05"],
        ["revenue", "--mech", "srev", "--dist", "exp:1", "-n", "4", "-m", "2"],
        ["benchmark", "--dist", "uniform:0,1", "er:p=100", "-n", "2", "--chain", "little",
         "--samples", "20000"],
        ["dominance", "--pair", "xs-xl", "-n", "2", "-m", "4", "-c", "7", "--samples", "20000"],
        ["reproduce", "--all"],
        # a high price past 2^53: the truncated sum tail must not cancel
        ["revenue", "--mech", "three-tier", "-n", "1000000", "--medium-price", "1000",
         "--high-price", "1e16"],
    ],
    ids=["virtual", "revenue", "benchmark", "dominance", "reproduce", "three-tier-1e16"],
)
def test_subcommands_run_without_scipy(argv):
    # scipy is a test-only dependency: an import of it, lazy or not, fails here
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from auctioncomp.cli import main; sys.exit(main())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv, "--seed", "1"], capture_output=True, text=True
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert json.loads(out.stdout)["results"]


def test_one_parser_writes_what_fresh_parsers_write(tmp_path):
    # main builds its parser once per process; a subcommand's options must
    # not leak into the next call's artifact
    runs = [
        ["virtual", "--dist", "discrete:v=1,3,4,20;p=0.4,0.3,0.25,0.05", "--seed", "1"],
        ["revenue", "--mech", "myerson", "--dist", "exp:1", "-n", "3", "--seed", "2"],
        ["virtual", "--dist", "uniform:0,1", "--quantile", "0.3", "--out", "csv", "--seed", "3"],
        ["benchmark", "--dist", "uniform:0,1", "uniform:0,1", "-n", "2", "--seed", "4"],
    ]

    def artifact(argv, name):
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == EXIT_OK
        return path.read_bytes()

    cli_mod._parser.cache_clear()
    shared = [artifact(argv, f"shared{i}") for i, argv in enumerate(runs)]
    assert cli_mod._parser.cache_info().misses == 1
    fresh = []
    for i, argv in enumerate(runs):
        cli_mod._parser.cache_clear()
        fresh.append(artifact(argv, f"fresh{i}"))
    assert shared == fresh


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["revenue", "--mech", "myerson"])  # missing -n/--seed
    assert exc.value.code == 2


def test_every_module_reachable_from_command_table():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {"virtual", "revenue", "benchmark", "dominance", "reproduce"}


def test_virtual_json(capsys):
    code, out = run_cli(
        ["virtual", "--dist", "uniform:0,1", "--quantile", "0.75", "--seed", "0"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["regular"] is True
    assert doc["results"][0]["phi_bar"] == pytest.approx(0.5)


def test_virtual_nan_quantile_exit_3(capsys):
    code, out = run_cli(
        ["virtual", "--dist", "uniform:0,1", "--quantile", "nan", "--seed", "1"], capsys
    )
    assert code == EXIT_PRECONDITION
    assert out == ""


def test_virtual_skips_a_leading_zero_mass_atom(capsys):
    # the atom at -5 has no mass, so quantile 0 is the law's support_lo, 1
    code, out = run_cli(
        ["virtual", "--dist", "discrete:v=-5,1;p=0,1", "--quantile", "0", "--seed", "1"], capsys
    )
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["value"] == 1.0


def test_revenue_vcg_single_bidder_zero(capsys):
    code, out = run_cli(
        ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "1",
         "--samples", "1000", "--seed", "1"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"][0]["lo"] == doc["results"][0]["hi"] == 0.0


def test_revenue_myerson_csv(capsys):
    code, out = run_cli(
        ["revenue", "--mech", "myerson", "--dist", "er:p=10000", "-n", "1",
         "--seed", "2", "--out", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["lo"]) == pytest.approx(1.0, rel=1e-6)
    assert float(rows[0]["hi"]) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("price", ["1e155", "1e160", "1e200"])
def test_three_tier_high_price_past_the_square_root_of_the_largest_float(price, capsys):
    # the sum tail squared the high tier's threshold and raised OverflowError
    code, out = run_cli(["revenue", "--mech", "three-tier", "-n", "1000000", "--medium-price", "100",
                         "--high-price", price, "--seed", "1"], capsys)
    row = json.loads(out)["results"][0]
    assert code == EXIT_OK and row["lo"] == row["hi"] == pytest.approx(2.0e6, rel=1e-5)


def test_revenue_precondition_exit_3(capsys):
    code, _ = run_cli(
        ["revenue", "--mech", "three-tier", "-n", "100", "--samples", "10", "--seed", "0"],
        capsys,
    )
    assert code == EXIT_PRECONDITION


def test_benchmark_chain_links(capsys):
    code, out = run_cli(
        ["benchmark", "--dist", "uniform:0,1", "uniform:0,1", "-n", "2",
         "--chain", "little", "--samples", "50000", "--seed", "3"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    names = [r["name"] for r in doc["results"]]
    assert names[0] == "efftw" and names[1] == "obs1" and names[2] == "xl_chain"
    assert names[3].startswith("srev_n+")
    assert all(r.get("link_ok", True) for r in doc["results"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--dist", "uniform:0,1", "-n", "2", "--chain", "little"],
        ["--dist", "uniform:0,1", "uniform:0,1", "-n", "16", "--chain", "big"],
    ],
    ids=["little", "big"],
)
def test_benchmark_csv_header_is_union_of_row_keys(argv, capsys):
    # the first row (efftw) has no link_ok; the header still names it
    code, out = run_cli(["benchmark", *argv, "--seed", "1", "--out", "csv"], capsys)
    assert code == EXIT_OK
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["name", "lo", "hi", "link_ok"]
    rows = list(reader)
    assert rows[0]["name"] == "efftw" and rows[0]["link_ok"] == ""
    assert len(rows) > 2 and all(row["link_ok"] == "True" for row in rows[1:])


def test_benchmark_links_use_certified_slack(monkeypatch, capsys):
    # the rows are exact brackets, so a link fails where they refute it: a
    # chain row 1.5e-3 below obs1 with half-width 1e-3 passes
    # 3 * hypot(half-widths) but breaks the link
    def low_chain(pd, n):
        obs1 = bench_mod.obs1_bound(pd, n)
        return Bracket(obs1.mid - 2.5e-3, obs1.mid - 0.5e-3)

    monkeypatch.setattr(bench_mod, "xl_chain_bound", low_chain)
    code, out = run_cli(
        ["benchmark", "--dist", "uniform:0,1", "uniform:0,1", "-n", "2",
         "--chain", "little", "--samples", "1000", "--seed", "3"],
        capsys,
    )
    rows = json.loads(out)["results"][1:3]
    obs1, chain = (Bracket(r["lo"], r["hi"]) for r in rows)
    assert obs1.mid <= chain.mid + 3 * math.hypot(obs1.half, chain.half)
    assert rows[1]["link_ok"] is False
    assert code == EXIT_CLAIM


@pytest.mark.parametrize(
    "argv",
    [
        ["--dist", "uniform:0,1", "uniform:0,1", "-n", "2", "--chain", "little"],
        ["--dist", "uniform:0,1", "uniform:0,1", "-n", "16", "--chain", "big"],
    ],
    ids=["little", "big"],
)
def test_benchmark_links_read_bracket_le(argv, monkeypatch, capsys):
    # the one comparison decides every link: refuted, each link fails
    monkeypatch.setattr(Bracket, "le", lambda self, other: False)
    code, out = run_cli(["benchmark", *argv, "--seed", "1"], capsys)
    rows = json.loads(out)["results"]
    assert code == EXIT_CLAIM
    assert len(rows) > 2 and all(row["link_ok"] is False for row in rows[1:])


@pytest.mark.parametrize(
    "dist,n,chain",
    [
        (["uniform:-8,-7"], 2, "little"),
        (["discrete:v=-8,8;p=0.9,0.1"], 2, "little"),
        (["uniform:-1,1"], 2, "little"),
        (["uniform:-8,-7", "uniform:-8,-7"], 16, "big"),
        # its links held, with exit 0, though the chain need not bound the benchmark there
        (["uniform:-1,1", "uniform:0,1"], 16, "big"),
    ],
    ids=["little-below-0", "little-atom-below-0", "little-across-0", "big-below-0", "big-one-item-across-0"],
)
def test_chain_on_support_below_0_exits_3(dist, n, chain, capsys):
    # the chain is an upper bound on the benchmark only where every item's
    # support_lo >= 0; the first four failed a link (exit 1) on valid items
    code = main(["benchmark", "--dist", *dist, "-n", str(n), "--chain", chain, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION and captured.out == ""
    assert captured.err == (
        "precondition violated: the chain needs every item's support_lo >= 0; below 0 it need not bound the benchmark\n"
    )
    # the benchmark alone still runs there
    code, out = run_cli(["benchmark", "--dist", *dist, "-n", str(n), "--seed", "1"], capsys)
    assert code == EXIT_OK and [r["name"] for r in json.loads(out)["results"]] == ["efftw"]


SAMPLED = {
    "benchmark": ["benchmark", "--dist", "uniform:0,1", "-n", "2"],
    "myerson": ["revenue", "--mech", "myerson", "--dist", "uniform:0,1", "-n", "2"],
    "srev": ["revenue", "--mech", "srev", "--dist", "uniform:0,1", "-n", "2", "-m", "3"],
    "vcg": ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "2"],
    "vcg-m3": ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "2", "-m", "3"],
    "feldman": ["revenue", "--mech", "feldman", "-n", "1", "-m", "8"],
    "three-tier": ["revenue", "--mech", "three-tier", "-n", "10000"],
    # one bidder: VCG revenue is 0 with no integral, but --samples is still checked
    "vcg-n1": ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "1"],
    "vcg-n1-m3": ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "1", "-m", "3"],
    "dominance": ["dominance", "--pair", "xs-xl", "-n", "2", "-m", "4", "-c", "7"],
}


@pytest.mark.parametrize("argv", list(SAMPLED.values()), ids=list(SAMPLED))
def test_benchmark_without_samples_exit_3(argv, capsys):
    # main checks --samples once for every subcommand that takes it, before
    # any estimator runs, exact or not
    code = main(argv + ["--samples", "0", "--seed", "3"])
    assert code == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == "precondition violated: need N >= 1 samples\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [argv for name, argv in SAMPLED.items() if name != "dominance"]
    + [["benchmark", "--dist", "uniform:0,1", "uniform:0,1", "-n", "2", "--chain", "little"],
       ["benchmark", "--dist", "uniform:0,1", "uniform:0,1", "-n", "4", "--chain", "big"]],
    ids=[name for name in SAMPLED if name != "dominance"] + ["little", "big"],
)
def test_estimate_rows_report_the_samples_option(argv, capsys):
    # the config records --samples; the Monte Carlo row reports it with its
    # mean and stderr, and an exact row is a bracket that reads no sample count
    code, out = run_cli(argv + ["--samples", "77", "--seed", "3"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["samples"] == 77
    monte_carlo = {"name", "mean", "stderr", "samples"}
    for row in doc["results"]:
        if row["name"] == "feldman":
            assert set(row) == monte_carlo and row["samples"] == 77
        else:
            assert set(row) - {"link_ok"} == {"name", "lo", "hi"} and row["lo"] <= row["hi"]
    assert doc["results"]


@pytest.mark.parametrize("chain", ["little", "big"])
def test_chain_with_n_plus_c_below_1_exits_3_before_any_link(chain, monkeypatch, capsys):
    # srev(n + c) closes the chain: n + c < 1 is bad input, named as such,
    # and no link is computed first
    monkeypatch.setattr(bench_mod, "efftw_bound", lambda *args: pytest.fail("a link was computed"))
    code = main(["benchmark", "--dist", "er:p=10000", "-n", "2", "--chain", chain, "-c", "-3", "--seed", "1"])
    assert code == EXIT_PRECONDITION
    assert "need n + c >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["dominance", "--pair", "xs-xb", "-n", "3", "-l", "1", "-c", "1"], "need 2 <= ell <= n"),
        (["dominance", "--pair", "xs-xb", "-n", "2", "-l", "5", "-c", "7"], "need 2 <= ell <= n"),
        (["dominance", "--pair", "xs-xl", "-n", "0", "-m", "2", "-c", "1"], "need n >= 1"),
        (["revenue", "--mech", "feldman", "-n", "0", "-m", "8"], "need n >= 1"),
        (["revenue", "--mech", "vcg", "-n", "2", "-m", "0"], "need at least one marginal"),
        (["revenue", "--mech", "feldman", "-n", "2", "-m", "64", "--price", "nan"],
         "posted price must be finite and >= 0"),
        (["revenue", "--mech", "feldman", "-n", "2", "-m", "64", "--price", "inf"],
         "posted price must be finite and >= 0"),
        (["revenue", "--mech", "feldman", "-n", "2", "-m", "64", "--price", "-5"],
         "posted price must be finite and >= 0"),
        (["revenue", "--mech", "three-tier", "-n", "1000000", "--medium-price", "1000",
          "--high-price", "nan"], "high price p must be finite"),
        (["revenue", "--mech", "three-tier", "-n", "1000000", "--medium-price", "1000",
          "--high-price", "inf"], "high price p must be finite"),
    ],
    ids=["xs-xb-ell1", "xs-xb-ell-above-n", "xs-xl-n0", "feldman-n0", "vcg-m0", "feldman-price-nan",
         "feldman-price-inf", "feldman-price-negative", "three-tier-high-nan",
         "three-tier-high-inf"],
)
def test_degenerate_sizes_exit_3(argv, message, capsys):
    # a dominance threshold or the feldman bundle size divides by these
    # sizes; VCG on no items, like SRev, has no product to sum over. A NaN,
    # infinite or negative posted price would report a NaN or negative
    # revenue, and a NaN high price passes the p >= 100 q test
    code = main(argv + ["--seed", "1", "--samples", "20000"])
    assert code == EXIT_PRECONDITION
    assert message in capsys.readouterr().err


FELDMAN = ["revenue", "--mech", "feldman", "--price", "60", "-n", "2", "-m", "64", "--samples", "20000",
           "--seed", "1"]


def test_feldman_reads_its_items_from_dist(capsys):
    # at price 60 some runs do not sell, so the truncation point shows: ER(10)
    # reads 115.185 and the default ER(1e4) 119.238 at seed 1
    rows = {}
    for spec in ("er:p=10", None):
        code, out = run_cli(FELDMAN + (["--dist", spec] if spec else []), capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["dist"] == (spec or "er:p=10000") and "trunc" not in doc["config"]
        rows[spec] = doc["results"][0]
    mean, stderr = rev_mod.feldman_posted_price(2, 64, 20_000, 1, p=10.0, price=60.0)
    assert (rows["er:p=10"]["mean"], rows["er:p=10"]["stderr"]) == (mean, stderr)
    assert rows[None]["mean"] == rev_mod.feldman_posted_price(2, 64, 20_000, 1, price=60.0)[0]
    assert rows["er:p=10"]["mean"] != rows[None]["mean"]


@pytest.mark.parametrize(
    "argv",
    [
        ["revenue", "--mech", "myerson", "--dist", "er:p=1e300", "-n", "3", "--seed", "1"],
        ["benchmark", "--dist", "er:p=1e300", "-n", "3", "--chain", "little", "--seed", "1"],
        ["revenue", "--mech", "feldman", "--dist", "er:p=1e300", "-n", "2", "-m", "64", "--seed", "1"],
    ],
    ids=["myerson", "benchmark", "feldman"],
)
def test_er_past_2_54_exits_3(argv, capsys):
    # there 1 - 1/p rounds to 1, so the atom left the quantile: Myerson read
    # [0, 0], and the chain's efftw and srev rows [0, 0] with every link held
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION and captured.out == ""
    assert "bad distribution spec 'er:p=1e300'" in captured.err


@pytest.mark.parametrize(
    "spec,reason",
    [
        ("er:p=1e300", "truncation point too large: 1 - 1/p rounds to 1 (need p < 2^54)"),
        ("uniform:1,0", "uniform needs hi > lo"),
        ("exp:-1", "exponential rate must be positive"),
    ],
)
def test_bad_spec_names_the_constructors_reason(spec, reason, capsys):
    code = main(["revenue", "--mech", "srev", "-n", "2", "--dist", spec, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION and captured.out == ""
    assert f"bad distribution spec {spec!r}: {reason}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec", ["exp:1", "uniform:0,1", "point:5"])
def test_feldman_on_other_items_exit_3(spec, capsys):
    assert main(FELDMAN + ["--dist", spec]) == EXIT_PRECONDITION
    assert "equal-revenue items" in capsys.readouterr().err


def test_feldman_takes_no_trunc_option():
    with pytest.raises(SystemExit) as exc:
        main(FELDMAN + ["--trunc", "10"])
    assert exc.value.code == 2


OVERFLOWING = {
    # 53 ln(2) / rate, the top of the exact integrals' grid, overflows (1/rate too)
    "exp:1e-310": ["myerson", "vcg", "virtual", "benchmark"],
    # hi - lo overflows
    "uniform:-1e308,1e308": ["myerson", "vcg"],
    # the virtual value 2v - hi overflows at v = hi
    "uniform:1e308,1.7e308": ["vcg", "virtual", "benchmark"],
    # the span of the values, and the hull slope 3e308, overflow
    "discrete:v=-1e308,1e308;p=0.5,0.5": ["virtual", "benchmark"],
}
COMMANDS = {
    "myerson": ["revenue", "--mech", "myerson", "-n", "2", "--dist"],
    "vcg": ["revenue", "--mech", "vcg", "-n", "2", "--dist"],
    "virtual": ["virtual", "--dist"],
    "benchmark": ["benchmark", "-n", "2", "--chain", "little", "--dist"],
}


@pytest.mark.parametrize(
    "spec,command",
    [(spec, command) for spec, commands in OVERFLOWING.items() for command in commands],
)
def test_overflowing_specs_exit_3(spec, command, capsys):
    # a finite spec whose scale overflows once was written as NaN or
    # Infinity, or failed a chain link (exit 1); it is bad input
    code = main(COMMANDS[command] + [spec, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert captured.out == ""
    assert captured.err.startswith("precondition violated:") and spec in captured.err


@pytest.mark.parametrize("out", ["json", "csv"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_artifact_never_carries_a_non_finite_number(value, out, monkeypatch, capsys):
    # strict JSON parsers reject NaN and Infinity, so neither format writes one
    monkeypatch.setattr(
        cli_mod.rev_mod, "srev", lambda pd, n: Bracket(value, value)
    )
    code = main(["revenue", "--mech", "srev", "-n", "2", "--seed", "1", "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert captured.out == ""
    assert "non-finite lo" in captured.err


def test_dominance_above_threshold_true(capsys):
    code, out = run_cli(
        ["dominance", "--pair", "xs-xb", "-n", "10", "-l", "3", "-c", "20",
         "--samples", "100000", "--seed", "7"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"][0]["dominates"] is True
    # probes where both CDFs are 0 (or 1) do not pin the margin at 0
    assert doc["results"][0]["max_violation"] < 0


def test_dominance_below_threshold_reports_without_failing(capsys):
    code, out = run_cli(
        ["dominance", "--pair", "xs-xb", "-n", "10", "-l", "3", "-c", "1",
         "--samples", "100000", "--seed", "7"],
        capsys,
    )
    assert code == EXIT_OK  # below threshold: no contradiction either way
    doc = json.loads(out)
    assert doc["results"][0]["dominates"] is False


DOMINANCE = ["dominance", "--pair", "xs-xb", "-n", "10", "-l", "3", "-c", "20", "--samples", "10000", "--seed", "7"]


@pytest.mark.parametrize("delta", ["0", "1", "nan", "-0.5"])
def test_dominance_delta_outside_0_1_exits_3(delta, capsys):
    code = main(DOMINANCE + ["--delta", delta])
    captured = capsys.readouterr()
    assert code == EXIT_PRECONDITION and captured.out == ""
    assert "delta must lie in (0, 1)" in captured.err and "Traceback" not in captured.err


def test_dominance_delta_sets_the_dkw_allowance(capsys):
    code, out = run_cli(DOMINANCE + ["--delta", "0.05"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["epsilon"] == exp_mod.dkw_epsilon(10_000, 0.05)


def test_reproduce_single_claim_deterministic(capsys):
    argv = ["reproduce", "--claim", "er-order-stat-4-12", "--seed", "5"]
    code1, out1 = run_cli(argv, capsys)
    code2, out2 = run_cli(argv, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["results"][0]["passed"] is True
    assert "runtime" not in doc["results"][0]


CLAIM_DETAILS = {
    "little-n-tightness": {"implied_min_c", "price", "stderr"},
    "appendix-b-revenue": {"k", "surplus_over_2n", "log_n_over_10"},
    "bign-tightness": {"benchmark_half", "vcg_half"},
    "two-item-sum-tail": set(),
}


@pytest.mark.parametrize("claim", list(CLAIM_DETAILS))
def test_reproduce_rows_carry_each_claims_details(claim, capsys):
    # the five keys of the verdict, then the claim's details, flattened:
    # little-n-tightness reports implied_min_c and its stderr, and
    # appendix-b-revenue its surplus over 2n; the sum tail has none
    result = repro_mod.run_claim(claim, 1)
    assert set(result.details) == CLAIM_DETAILS[claim]
    want = {"name": result.name, "computed": result.computed, "target": result.target,
            "tolerance": result.tolerance, "passed": result.passed, **result.details}
    code, out = run_cli(["reproduce", "--claim", claim, "--seed", "1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["results"] == [want]
    assert list(json.loads(out)["results"][0]) == sorted(want)  # sort_keys
    code, out = run_cli(["reproduce", "--claim", claim, "--seed", "1", "--out", "csv"], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == EXIT_OK and len(rows) == 1 and list(rows[0]) == list(want)
    assert {key: float(rows[0][key]) for key in result.details} == result.details


def test_reproduce_unknown_claim_exit_3(capsys):
    code, _ = run_cli(["reproduce", "--claim", "bogus", "--seed", "0"], capsys)
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize(
    "argv",
    [
        ["virtual", "--dist", "uniform:0,1"],
        ["reproduce", "--claim", "er-order-stat-4-12"],
    ],
    ids=["virtual", "reproduce"],
)
def test_samples_only_where_an_estimator_reads_it(argv, capsys):
    # virtual and reproduce take no sample budget: --samples is a usage error,
    # and their artifact config records none
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--samples", "10", "--seed", "0"])
    assert exc.value.code == 2
    code, out = run_cli(argv + ["--seed", "0"], capsys)
    assert code == EXIT_OK
    assert "samples" not in json.loads(out)["config"]


def test_reproduce_requires_claim_or_all():
    # exactly one of --claim/--all: neither or both is a usage error
    for argv in (["reproduce", "--seed", "0"],
                 ["reproduce", "--claim", "er-order-stat-4-12", "--all", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_output_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "artifact.json"
    code, out = run_cli(
        ["revenue", "--mech", "myerson", "--dist", "uniform:0,1", "-n", "2",
         "--seed", "9", "--output", str(path)],
        capsys,
    )
    assert code == EXIT_OK and out == ""
    doc = json.loads(path.read_text())
    assert doc["config"]["seed"] == 9


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_exits_3_without_traceback(where, tmp_path):
    # a path in a missing directory, or a directory itself, is bad input:
    # exit 3 with the path named, not an OSError's traceback and exit 1
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code = "import sys; from auctioncomp.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["virtual", "--dist", "uniform:0,1", "--seed", "1", "--output", str(path)]
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert out.returncode == EXIT_PRECONDITION, out.stderr
    assert "Traceback" not in out.stderr
    assert "precondition violated" in out.stderr and str(path) in out.stderr
