"""The benchmark's own tests: every workload at its smoke size, traced and
untraced, plus the checks that must stop a run whose outputs are wrong.

    python -m pytest -q perfbench
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
import slsid  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(name, trace=False):
    return run.run_workload(name, seed=0, seconds=0, trace=trace, size="smoke")


@functools.lru_cache(maxsize=None)
def smoke_once(name, trace=False):
    """A smoke run shared by the tests that only read its results."""
    return smoke(name, trace)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_reports_every_end_to_end_metric(name):
    result, detail, _ = smoke_once(name)
    assert result["correct"], detail["error"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(detail["quality"]) == {"fail_frac", "bfr_median", "markov_err_median"}
    assert detail["ops"] % detail["cycle"] == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_traced_reports_every_layer_metric(name):
    result, detail, tracer = smoke_once(name, trace=True)
    assert result["correct"], detail["error"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["bench.op.calls"]["value"] == result["attempted"]
    for layer in ("identify.identify", "realize.ho_kalman", "bench.op"):
        assert 0 < metrics[f"{layer}.self_s"]["value"] <= metrics[f"{layer}.busy_s"]["value"]
    # the tracer put every original function back
    assert not hasattr(slsid.identify, "__wrapped__")
    assert not hasattr(slsid.simulate, "__wrapped__")
    assert all(s["end"] is not None for s in tracer.spans)


def test_traced_cli_run_sees_csv_and_commands():
    result, detail, _ = smoke_once("cli-roundtrip", trace=True)
    metrics = result["metrics"]
    assert result["correct"], detail["error"]
    for name in ("simulate.csv_write", "simulate.csv_read", "cli.simulate",
                 "cli.identify", "cli.validate"):
        assert metrics[f"{name}.calls"]["value"] > 0
    assert metrics["simulate.csv_read.mb_per_s"]["value"] > 0


def test_traced_search_run_counts_candidates():
    result, detail, _ = smoke_once("search-1e5", trace=True)
    metrics = result["metrics"]
    assert result["correct"], detail["error"]
    assert metrics["realize.iter_full_rank_selections.yields"]["value"] >= 1
    assert metrics["identify.search_attempts"]["value"] >= 1
    assert metrics["covariance.empirical_covariances.words"]["value"] == 511


def _corrupt_bfr(monkeypatch, bump):
    """Make validate_model report a BFR shifted by bump(call number)."""
    real = slsid.validate_model
    calls = []

    def fake(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(1)
        rep.bfr += bump(len(calls))
        return rep

    monkeypatch.setattr(slsid, "validate_model", fake)


def test_nondeterministic_output_fails_the_run(monkeypatch):
    _corrupt_bfr(monkeypatch, lambda n: 1e-9 * n)
    result, detail, _ = smoke("search-1e5")
    assert not result["correct"]
    assert "differ" in detail["error"]


def test_out_of_range_bfr_fails_the_run(monkeypatch):
    _corrupt_bfr(monkeypatch, lambda n: 200.0)
    result, detail, _ = smoke("search-1e5")
    assert not result["correct"]
    assert "BFR" in detail["error"]


def test_validation_failure_is_not_an_identification_failure(monkeypatch):
    def fake(*args, **kwargs):
        raise slsid.NonConvergenceError("raised by validate_model")

    monkeypatch.setattr(slsid, "validate_model", fake)
    result, detail, _ = smoke("search-1e5")
    assert not result["correct"]
    assert "validate_model rejected" in detail["error"]


def test_every_identification_failing_fails_the_run(monkeypatch):
    def fake(*args, **kwargs):
        raise slsid.NonConvergenceError("raised by identify")

    monkeypatch.setattr(slsid, "identify", fake)
    result, detail, _ = smoke("search-1e5")
    assert not result["correct"]
    assert "identifications of a cycle failed" in detail["error"]


@pytest.mark.parametrize("code", ["EXIT_IO", "EXIT_MODEL", "EXIT_NUMERICAL"])
def test_failed_cli_validate_fails_the_run(monkeypatch, code):
    cli = sys.modules["slsid.cli"]
    monkeypatch.setattr(cli, "cmd_validate", lambda args: getattr(cli, code))
    result, detail, _ = smoke("cli-roundtrip")
    assert not result["correct"]
    assert "exit codes" in detail["error"]


@pytest.mark.parametrize("code, counted", [("EXIT_NUMERICAL", True), ("EXIT_MODEL", False)])
def test_cli_identify_failure_counts_only_when_numerical(monkeypatch, code, counted):
    """Op 1's identify command fails; only exit 5 is a counted failure."""
    cli = sys.modules["slsid.cli"]
    real, calls = cli.cmd_identify, []

    def fake(args):
        calls.append(1)
        return getattr(cli, code) if len(calls) == 2 else real(args)

    monkeypatch.setattr(cli, "cmd_identify", fake)
    result, detail, _ = smoke("cli-roundtrip")
    assert result["correct"] is counted, detail["error"]
    if counted:
        assert result["failed"] == 1 and detail["failed_ops"] == [1]


def test_missing_trace_target_fails_the_traced_run(monkeypatch):
    monkeypatch.delattr(sys.modules["slsid.algebra"], "build_hankel")
    result, detail, _ = smoke("search-1e5", trace=True)
    assert not result["correct"]
    assert "slsid.algebra.build_hankel" in detail["error"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10)["value"] is None
    t = run.tail([float(i) for i in range(20)])
    assert (t["value"], t["percentile"], t["samples"]) == (9.0, 50.0, 20)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "search-1e5",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
