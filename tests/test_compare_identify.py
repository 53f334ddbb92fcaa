"""tools/compare_identify.py's comparison on hand-made records."""
import json

from oracles import load_tool


def _success(**diag):
    return {"model": "{}", "bfr": 90.0, "diagnostics": json.dumps(diag, sort_keys=True)}


def test_compare_identify_names_the_fields_a_record_differs_in(capsys):
    tool = load_tool("compare_identify")
    theirs = {"ok": _success(kq_iterations=5, rejected_attempts=["old"]),
              "fail": {"error": "NotFullRankError", "text": "old", "stage": "step 6"},
              "same": _success(kq_iterations=4)}
    mine = {"ok": _success(kq_iterations=5, rejected_attempts=["new"]),
            "fail": {"error": "NotFullRankError", "text": "new", "stage": "step 6"},
            "same": _success(kq_iterations=4)}
    assert tool.compare(theirs, theirs) == 0
    assert capsys.readouterr().out == "3 of 3 records identical\n"

    assert tool.compare(mine, theirs) == 1
    out = capsys.readouterr().out
    assert ("ok\n  against: success\n  this: success\n"
            "  differing fields: diagnostics.rejected_attempts\n"
            "  diagnostics.rejected_attempts: ['old'] -> ['new']\n") in out
    assert "  differing fields: text\n" in out
    assert "same" not in out and out.endswith("1 of 3 records identical\n")

    # a success against a failure, and a record the other file lacks
    assert tool.compare({"fail": _success(kq_iterations=5), "new": mine["fail"]}, theirs) == 1
    out = capsys.readouterr().out
    assert ("  differing fields: bfr error model stage text diagnostics.kq_iterations\n"
            "  diagnostics.kq_iterations: None -> 5\n") in out
    assert "new\n  against: None\n  this: {'error'" in out
    assert "  differing fields: error stage text\n" in out
