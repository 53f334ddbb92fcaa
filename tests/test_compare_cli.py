"""tools/compare_cli.py on short runs: records, and the comparison of equal and changed records."""
import copy
import warnings

from oracles import load_tool


def test_compare_cli_hashes_every_file_and_names_a_changed_one(capsys):
    tool = load_tool("compare_cli")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate words at N = 2e3
        records = tool.records(range(2), 2000)
        again = tool.records(range(2), 2000)
    assert sorted(records) == ["seed=0", "seed=1"]
    for runs in records.values():
        assert runs["simulate"]["exit"] == 0
        assert list(runs["simulate"]["files"]) == ["data.csv", "data_clean.csv", "manifest.json"]
        assert set(runs) <= {"simulate", "identify", "validate", "identify-plain",
                             "identify-valdata", "estimate", "realize", "realize-explicit",
                             "mimo-simulate", "mimo-validate"}
        # identify with and without a validation file: both read the simulated data
        assert {"identify-plain", "identify-valdata"} <= set(runs)
        assert runs["estimate"]["exit"] == 0
        assert list(runs["estimate"]["files"]) == ["covariances.json"]
        # the MIMO system's round: Gaussian input, two inputs and two outputs
        assert runs["mimo-simulate"]["exit"] == 0 and runs["mimo-validate"]["exit"] == 0
        assert list(runs["mimo-validate"]["files"]) == ["predictions.csv", "report.json"]

    # a rerun writes the same bytes
    assert tool.compare(again, records) == 0
    assert "files identical" in capsys.readouterr().out

    changed = copy.deepcopy(records)
    changed["seed=1"]["estimate"]["files"]["covariances.json"] = "0" * 64
    assert tool.compare(again, changed) == 1
    out = capsys.readouterr().out
    assert "seed=1 estimate: exit 0 -> 0; differing files: covariances.json" in out
