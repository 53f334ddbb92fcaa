"""tools/bench_pairs.py with its benchmark runs replaced by canned results."""
import importlib.util
import json
from pathlib import Path

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
