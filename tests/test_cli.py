import csv
import io
import json
import subprocess
import sys

import pytest

from auctioncomp.cli import (
    EXIT_CLAIM,
    EXIT_OK,
    EXIT_PRECONDITION,
    build_parser,
    main,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_import_does_not_load_scipy():
    # scipy.integrate alone takes several times the whole package's import
    code = "import sys, auctioncomp; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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


def test_revenue_vcg_single_bidder_zero(capsys):
    code, out = run_cli(
        ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "1",
         "--samples", "1000", "--seed", "1"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"][0]["mean"] == 0.0


def test_revenue_myerson_csv(capsys):
    code, out = run_cli(
        ["revenue", "--mech", "myerson", "--dist", "er:p=10000", "-n", "1",
         "--seed", "2", "--out", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["mean"]) == pytest.approx(1.0, rel=1e-6)


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
        ["benchmark", "--dist", "uniform:0,1", "-n", "2"],
        ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "2"],
        ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "2", "-m", "3"],
        ["revenue", "--mech", "feldman", "-n", "1", "-m", "8"],
        ["revenue", "--mech", "three-tier", "-n", "10000"],
        # one bidder: VCG revenue is 0 without sampling, but N is still checked
        ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "1"],
        ["revenue", "--mech", "vcg", "--dist", "uniform:0,1", "-n", "1", "-m", "3"],
    ],
    ids=["benchmark", "vcg", "vcg-m3", "feldman", "three-tier", "vcg-n1", "vcg-n1-m3"],
)
def test_benchmark_without_samples_exit_3(argv, capsys):
    code = main(argv + ["--samples", "0", "--seed", "3"])
    assert code == EXIT_PRECONDITION
    assert "need N >= 1 samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["dominance", "--pair", "xs-xb", "-n", "3", "-l", "1", "-c", "1"], "need 2 <= ell <= n"),
        (["dominance", "--pair", "xs-xl", "-n", "0", "-m", "2", "-c", "1"], "need n >= 1"),
        (["revenue", "--mech", "feldman", "-n", "0", "-m", "8"], "need n >= 1"),
    ],
    ids=["xs-xb-ell1", "xs-xl-n0", "feldman-n0"],
)
def test_degenerate_sizes_exit_3(argv, message, capsys):
    # a dominance threshold or the feldman bundle size divides by these sizes
    code = main(argv + ["--seed", "1", "--samples", "20000"])
    assert code == EXIT_PRECONDITION
    assert message in capsys.readouterr().err


def test_dominance_above_threshold_true(capsys):
    code, out = run_cli(
        ["dominance", "--pair", "xs-xb", "-n", "10", "-l", "3", "-c", "20",
         "--samples", "100000", "--seed", "7"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"][0]["dominates"] is True


def test_dominance_below_threshold_reports_without_failing(capsys):
    code, out = run_cli(
        ["dominance", "--pair", "xs-xb", "-n", "10", "-l", "3", "-c", "1",
         "--samples", "100000", "--seed", "7"],
        capsys,
    )
    assert code == EXIT_OK  # below threshold: no contradiction either way
    doc = json.loads(out)
    assert doc["results"][0]["dominates"] is False


def test_reproduce_single_claim_deterministic(capsys):
    argv = ["reproduce", "--claim", "er-order-stat-4-12", "--seed", "5"]
    code1, out1 = run_cli(argv, capsys)
    code2, out2 = run_cli(argv, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["results"][0]["passed"] is True
    assert "runtime" not in doc["results"][0]


def test_reproduce_unknown_claim_exit_3(capsys):
    code, _ = run_cli(["reproduce", "--claim", "bogus", "--seed", "0"], capsys)
    assert code == EXIT_PRECONDITION


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
