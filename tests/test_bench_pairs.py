"""tools/bench_pairs.py with its benchmark runs replaced by canned results."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(root, workload, seed, seconds, trace):
    op = 0.010 if root.name == "parent" else 0.009
    metrics = {"setup_s": 0.1, "op_mean_ref": 10 * op, "peak_rss_mb": 90.0}
    return {"detail": {"machine": "test", "op_s": [op, op, 2 * op], "ref_s": [0.1, 0.1],
                       "retried_ops": [2], "failed_ops": [], "setup_wall_s": 0.5,
                       "seed": seed, "cycle": 2},
            "result": {"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_bench_pairs_creates_its_output_directory(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "run_once", canned_run)
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    out_dir = tmp_path / "not" / "there" / "yet"
    assert tool.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--pr", "7", "--out-dir", str(out_dir), "--workloads", "search-1e5",
                      "--seeds", "0-1", "--claim", "search-1e5:op_mean_ref:0.05"]) == 0
    doc = json.loads((out_dir / "BENCH_perf_7.json").read_text())
    entry = doc["workloads"]["search-1e5"]
    assert [pair["first"] for pair in entry["pairs"]] == ["parent", "change"]
    # the retried third op is left out of the mean op time
    assert entry["pairs"][0]["parent"]["mean_op_s"] == 0.010
    assert entry["summary"]["mean_op_s"]["change_lower_in"] == 2
    assert entry["claim_verdict"]["change_lower_in"] == 2


def test_a_pair_with_more_failed_ops_fails_the_claim(tmp_path, monkeypatch):
    tool = load_tool()

    def one_more_failure(root, workload, seed, seconds, trace):
        run = canned_run(root, workload, seed, seconds, trace)
        if root.name == "change" and seed == 5:
            # op 1 runs input 5 + 1 % 2
            run["detail"]["failed_ops"] = [1]
            run["result"]["failed"] = 1
        return run

    monkeypatch.setattr(tool, "run_once", one_more_failure)
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    assert tool.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--pr", "7", "--out-dir", str(tmp_path), "--workloads", "search-1e5",
                      "--seeds", "4-5", "--claim", "search-1e5:op_mean_ref:0.05"]) == 0
    entry = json.loads((tmp_path / "BENCH_perf_7.json").read_text())["workloads"]["search-1e5"]
    assert entry["pairs"][1]["change"]["failed_inputs"] == [6]
    # the change is faster in both pairs, but fails an input the parent passes
    assert entry["claim_verdict"]["change_lower_in"] == 2
    assert entry["claim_verdict"]["more_failures"] == [{
        "seed": 5, "parent": 0.0, "change": 1 / 3, "inputs_failing_only_in_change": [6]}]
    assert entry["claim_verdict"]["met"] is False
    assert entry["summary"]["failed_share"]["same_inputs_in_pairs"] == 1


@pytest.mark.parametrize("extra", [
    ["--claim", "search-1e5:op_mean_ref"],
    ["--claim", "search-1e5:op_mean_ref:five"],
    ["--claim", "search-1e5:mean_op_s:0.05"],
    ["--claim", "cli-roundtrip:op_mean_ref:0.05"],
    ["--second-set", "search-1e5"],
    ["--second-set", "search-1e5:20-x"],
    ["--second-set", "search-1e5:29-20"],
    ["--second-set", "search-1e6:20-29"],
    ["--traced", "search-1e5:0:1"],
    ["--traced", "search-1e5:first"],
    ["--traced", "cli_roundtrip:0"],
    ["--seeds", "0-x"],
    ["--seeds", "0-"],
    ["--workloads", "search-1e6"],
], ids=" ".join)
def test_a_bad_argument_exits_2_before_the_first_run(tmp_path, monkeypatch, capsys, extra):
    tool = load_tool()
    runs = []
    monkeypatch.setattr(tool, "run_once", lambda *a: runs.append(a) or canned_run(*a))
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                   "--pr", "7", "--out-dir", str(tmp_path), "--workloads", "search-1e5",
                   "--seeds", "0-1", *extra])
    assert exit_.value.code == 2
    assert runs == []
    assert extra[0] in capsys.readouterr().err
    assert not (tmp_path / "BENCH_perf_7.json").exists()


def test_second_set_and_traced_run_from_their_parsed_specs(tmp_path, monkeypatch):
    tool = load_tool()
    runs = []
    monkeypatch.setattr(tool, "run_once", lambda *a: runs.append(a[1:]) or canned_run(*a))
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    assert tool.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--pr", "7", "--out-dir", str(tmp_path), "--workloads", "search-1e5",
                      "--seeds", "0", "--second-set", "cli-roundtrip:20-21",
                      "--traced", "cli-roundtrip:3", "--seconds", "2",
                      "--claim", "search-1e5:op_mean_ref:0.05"]) == 0
    assert runs == 2 * [("search-1e5", 0, 2.0, False)] + 2 * [("cli-roundtrip", 20, 2.0, False)] + (
        2 * [("cli-roundtrip", 21, 2.0, False)] + 2 * [("cli-roundtrip", 3, 2.0, True)])
    doc = json.loads((tmp_path / "BENCH_perf_7.json").read_text())
    assert doc["cli-roundtrip_second_set"]["seeds"] == "20-21"
    assert [p["seed"] for p in doc["cli-roundtrip_second_set"]["pairs"]] == [20, 21]
    assert set(doc["traced_cli-roundtrip_seed3"]) >= {"parent", "change"}
