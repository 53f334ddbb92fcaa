import copy
import functools
import json
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import slsid.cli
from slsid import (
    Dataset,
    IdentConfig,
    NumericalError,
    SimConfig,
    find_isomorphism,
    identify,
    load_series_csv,
    model_from_dict,
    simulate,
    validate_model,
)
from slsid.cli import EXIT_DIMENSION, EXIT_IO, EXIT_MODEL, EXIT_NUMERICAL, EXIT_OK, main
from slsid.simulate import write_csv


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, two_mode):
    """One simulate run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    model_path = write_json(root / "true_model.json", two_mode.model.to_dict())
    cfg = write_json(root / "sim.json", {
        "model": "true_model.json",
        "sim": {"seed": 3, "length": 20000, "burn_in": 500},
    })
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "sim")]) == 0
    return root


def test_simulate_outputs_and_manifest(workspace):
    out = workspace / "sim"
    assert (out / "data.csv").exists()
    assert (out / "data_clean.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == 20000
    assert manifest["files"] == ["data.csv", "data_clean.csv"]
    assert len(manifest["model_sha256"]) == 64
    assert manifest["effective_config"]["sim"]["seed"] == 3
    data = Dataset.from_csv(out / "data.csv",
                            clean_path=out / "data_clean.csv")
    assert len(data) == 20000


def test_simulate_is_reproducible(workspace):
    rc = main(["simulate", "--config", str(workspace / "sim.json"),
               "--out", str(workspace / "sim_again")])
    assert rc == 0
    a = (workspace / "sim" / "data.csv").read_bytes()
    b = (workspace / "sim_again" / "data.csv").read_bytes()
    assert a == b


def test_simulate_builds_the_model_s_mean_square_operator_once(workspace, tmp_path,
                                                              ms_builds):
    # loading validates the model and simulate validates it again: the
    # second validation reads the first one's operator
    assert main(["simulate", "--config", str(workspace / "sim.json"),
                 "--out", str(tmp_path / "sim")]) == 0
    assert len(ms_builds) == 1


def test_simulate_seed_override_changes_data(workspace):
    rc = main(["simulate", "--config", str(workspace / "sim.json"),
               "--out", str(workspace / "sim_seeded"), "--seed", "4"])
    assert rc == 0
    a = (workspace / "sim" / "data.csv").read_bytes()
    b = (workspace / "sim_seeded" / "data.csv").read_bytes()
    assert a != b


def test_estimate_realize_compare_round_trip(workspace, two_mode):
    # explicit p: find_isomorphism requires the probability vectors to match
    est_cfg = write_json(workspace / "est.json", {
        "data": "sim/data.csv",
        "p": [0.5, 0.5],
        "words": {"max_len": 5},
    })
    assert main(["estimate", "--config", str(est_cfg),
                 "--out", str(workspace / "est")]) == 0
    cov_obj = json.loads((workspace / "est" / "covariances.json").read_text())
    assert set(cov_obj["effective_config"]) == {"data", "p", "words"}
    assert cov_obj["metadata"]["estimator"] == "direct"
    assert cov_obj["n_y"] == 1 and cov_obj["n_u"] == 1

    real_cfg = write_json(workspace / "real.json", {
        "covariances": "est/covariances.json",
        "n_x": 3,
        "selection": two_mode.sel.to_jsonable(),
        "selection_bar": two_mode.sel_bar.to_jsonable(),
    })
    assert main(["realize", "--config", str(real_cfg),
                 "--out", str(workspace / "real")]) == 0
    report = json.loads((workspace / "real" / "report.json").read_text())
    assert report["diagnostics"]["n_x"] == 3
    assert report["effective_config"]["selection"] == two_mode.sel.to_jsonable()

    model = model_from_dict(
        json.loads((workspace / "real" / "model.json").read_text()))
    model.validate()
    # identified from 6000 samples: close enough for a loose isomorphism
    find_isomorphism(model, two_mode.model, tol=1.0)


def test_realize_reads_selections_from_files(workspace, tmp_path, two_mode):
    # "file:PATH" selections, read relative to the config, realize the bytes
    # that the same selections given inline realize
    est_cfg = write_json(tmp_path / "est.json", {
        "data": str(workspace / "sim" / "data.csv"), "p": [0.5, 0.5],
        "words": {"max_len": 5}})
    assert main(["estimate", "--config", str(est_cfg), "--out", str(tmp_path / "est")]) == 0
    (tmp_path / "sel").mkdir()
    write_json(tmp_path / "sel" / "sel.json", two_mode.sel.to_jsonable())
    write_json(tmp_path / "sel" / "sel_bar.json", two_mode.sel_bar.to_jsonable())
    for name, sel, sel_bar in (
            ("inline", two_mode.sel.to_jsonable(), two_mode.sel_bar.to_jsonable()),
            ("files", "file:sel/sel.json", "file:sel/sel_bar.json")):
        cfg = write_json(tmp_path / f"{name}.json", {
            "covariances": "est/covariances.json", "n_x": 3,
            "selection": sel, "selection_bar": sel_bar})
        assert main(["realize", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "files" / "model.json").read_bytes()
            == (tmp_path / "inline" / "model.json").read_bytes())


def test_realize_searches_with_the_attempts_of_identify(workspace, tmp_path):
    # on this table the first vetted selections fail in step 6; realize must
    # retry like identify does and land on identify's model
    est_cfg = write_json(tmp_path / "est.json", {
        "data": str(workspace / "sim" / "data.csv"), "p": [0.5, 0.5],
        "words": {"max_len": 8}})
    assert main(["estimate", "--config", str(est_cfg), "--out", str(tmp_path / "est")]) == 0
    real_cfg = write_json(tmp_path / "real.json", {
        "covariances": "est/covariances.json", "n_x": 3,
        "selection": "search", "selection_bar": "search"})
    assert main(["realize", "--config", str(real_cfg), "--out", str(tmp_path / "real")]) == 0
    ident_cfg = write_json(tmp_path / "ident.json", {
        "data": str(workspace / "sim" / "data.csv"),
        "ident": {"n_x": 3, "p": [0.5, 0.5]}})
    assert main(["identify", "--config", str(ident_cfg), "--out", str(tmp_path / "ident")]) == 0
    realized = (tmp_path / "real" / "model.json").read_bytes()
    assert realized == (tmp_path / "ident" / "model.json").read_bytes()
    diag = json.loads((tmp_path / "real" / "report.json").read_text())["diagnostics"]
    assert diag["search_attempts"] == 2
    assert len(diag["rejected_attempts"]) == 1
    assert diag["rejected_attempts"][0].startswith(
        "NotFullRankError: step 6 (innovation conversion): ")


def test_identify_with_validation_split(workspace, two_mode):
    cfg = write_json(workspace / "ident.json", {
        "data": "sim/data.csv",
        "ident": {
            "n_x": 3,
            "selection": two_mode.sel.to_jsonable(),
            "selection_bar": two_mode.sel_bar.to_jsonable(),
        },
        "validation": {"split": 1000, "exclude": 6},
    })
    assert main(["identify", "--config", str(cfg),
                 "--out", str(workspace / "ident")]) == 0
    report = json.loads((workspace / "ident" / "report.json").read_text())
    assert 0.0 <= report["validation"]["bfr"] <= 100.0
    assert report["validation"]["n_excluded"] == 6
    assert "runtime_seconds" not in report["validation"]
    assert set(report["effective_config"]["ident"]) == {
        "n_x", "n_bar", "selection", "selection_bar", "p"}
    assert "estimator" not in report["diagnostics"]
    model_from_dict(
        json.loads((workspace / "ident" / "model.json").read_text())).validate()


def test_identify_rerun_is_byte_identical(workspace):
    first = (workspace / "ident" / "report.json").read_bytes()
    assert main(["identify", "--config", str(workspace / "ident.json"),
                 "--out", str(workspace / "ident2")]) == 0
    assert (workspace / "ident2" / "report.json").read_bytes() == first
    a = (workspace / "ident" / "model.json").read_bytes()
    assert (workspace / "ident2" / "model.json").read_bytes() == a


def test_validate_command(workspace):
    cfg = write_json(workspace / "val.json", {
        "model": "ident/model.json",
        "data": "sim/data.csv",
        "exclude": 6,
    })
    assert main(["validate", "--config", str(cfg),
                 "--out", str(workspace / "val")]) == 0
    report = json.loads((workspace / "val" / "report.json").read_text())
    assert 0.0 <= report["bfr"] <= 100.0
    lines = (workspace / "val" / "predictions.csv").read_text().splitlines()
    assert lines[0] == "t,yhat_1"
    assert len(lines) == 20001
    # the same bytes as a per-row repr writer
    model = model_from_dict(json.loads((workspace / "ident" / "model.json").read_text()))
    yhat = validate_model(model, Dataset.from_csv(workspace / "sim" / "data.csv"),
                          keep_predictions=True).predictions
    rows = ["t,yhat_1"] + [",".join([str(t)] + [repr(float(v)) for v in yhat[t]])
                           for t in range(yhat.shape[0])]
    want = ("\n".join(rows) + "\n").encode()
    assert (workspace / "val" / "predictions.csv").read_bytes() == want


def test_validate_predictions_carry_the_data_t(workspace, tmp_path):
    data = Dataset.from_csv(workspace / "sim" / "data.csv").slice(100, 300)
    data.to_csv(tmp_path / "data.csv")
    cfg = write_json(tmp_path / "val.json", {
        "model": str(workspace / "true_model.json"), "data": "data.csv"})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "val")]) == 0
    rows = np.loadtxt(tmp_path / "val" / "predictions.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.arange(100, 300))


def _validate_on(workspace, tmp_path, csv_text, **extra):
    (tmp_path / "data.csv").write_text(csv_text)
    cfg = write_json(tmp_path / "val.json", {
        "model": str(workspace / "true_model.json"), "data": "data.csv", **extra})
    return main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("edit, code", [
    ("blank", 0),          # whitespace-only lines are skipped
    ("header_only", 4),    # DimensionError: the dataset has no rows
    ("ragged", 3),         # ValueError: a row with a missing cell
    ("unparsable", 3),     # ValueError: a cell that is not a number
    ("fractional_q", 3),   # ValueError: q = 1.5 is not truncated
    ("gap_in_t", 4),       # DimensionError: t skips a value
    ("repeated_t", 4),     # DimensionError: t repeats a value
    ("swapped_columns", 4),  # DimensionError: the header is t,q,y_1,u_1
])
def test_validate_reads_csv_by_its_contract(workspace, tmp_path, capsys, edit, code):
    lines = (workspace / "sim" / "data.csv").read_text().splitlines()[:200]
    t, q, u, y = lines[51].split(",")
    lines[51] = {"blank": ",".join([t, q, u, y]) + "\n   \n\t",
                 "header_only": "",
                 "ragged": ",".join([t, q, u]),
                 "unparsable": ",".join([t, q, "0.5x", y]),
                 "fractional_q": ",".join([t, "1.5", u, y]),
                 "gap_in_t": ",".join([str(int(t) + 1), q, u, y]),
                 "repeated_t": ",".join([str(int(t) - 1), q, u, y])}.get(edit, lines[51])
    if edit == "header_only":
        lines = lines[:1]
    if edit == "swapped_columns":  # the u and y columns trade places, header and all
        lines = [",".join([c[0], c[1], c[3], c[2]]) for c in (line.split(",") for line in lines)]
    assert _validate_on(workspace, tmp_path, "\n".join(lines) + "\n") == code
    err = capsys.readouterr().err
    if edit == "header_only":
        assert "has no rows" in err
    elif edit == "swapped_columns":
        # read by position, u and y would trade places without an error
        assert "unexpected header t,q,y_1,u_1" in err and "row" not in err, err
    elif code in (3, 4):
        # lines[51] is data row 50, whatever the kind of error
        assert re.search(r"\bat row 50\b", err), err


def test_validate_rejects_non_finite_reference(workspace, tmp_path, capsys):
    lines = (workspace / "sim" / "data_clean.csv").read_text().splitlines()[:200]
    lines[11] = lines[11].split(",")[0] + ",nan"
    (tmp_path / "ref.csv").write_text("\n".join(lines) + "\n")
    data = (workspace / "sim" / "data.csv").read_text().splitlines()[:200]
    assert _validate_on(workspace, tmp_path, "\n".join(data) + "\n",
                        reference="ref.csv") == 4
    # the reference is read as the data's clean channel, which Dataset checks
    assert "y_clean holds a non-finite value at row 10 (t = 10)" in capsys.readouterr().err


def _validate_with_reference(workspace, tmp_path, t_ref):
    """validate on the first 200 rows, scored against their noisy y written from t_ref.

    The data's own clean file beside it starts at t = 500, so reading it fails.
    """
    data = Dataset.from_csv(workspace / "sim" / "data.csv",
                            clean_path=workspace / "sim" / "data_clean.csv").slice(0, 200)
    data.to_csv(tmp_path / "data.csv")
    Dataset(y=data.y, u=data.u, q=data.q, t0=500, y_clean=data.y_clean).clean_to_csv(
        tmp_path / "data_clean.csv")
    write_csv(tmp_path / "ref.csv", ["t", "y_1"], [data.y[:, 0]], t0=t_ref)
    cfg = write_json(tmp_path / "val.json", {
        "model": str(workspace / "true_model.json"), "data": "data.csv",
        "reference": "ref.csv", "exclude": 6})
    return data, main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_validate_scores_against_the_reference(workspace, tmp_path, two_mode):
    data, code = _validate_with_reference(workspace, tmp_path, 0)
    assert code == 0
    bfr = json.loads((tmp_path / "out" / "report.json").read_text())["bfr"]
    as_reference = Dataset(y=data.y, u=data.u, q=data.q, y_clean=data.y)
    assert bfr == validate_model(two_mode.model, as_reference, exclude=6).bfr
    assert bfr != validate_model(two_mode.model, data, exclude=6).bfr


def test_validate_rejects_a_shifted_reference(workspace, tmp_path, capsys):
    _, code = _validate_with_reference(workspace, tmp_path, 1000)
    assert code == 4
    assert "starts at t = 1000, the dataset at t = 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_exclude_exit_code(workspace, tmp_path, capsys, two_mode):
    data = str(workspace / "sim" / "data.csv")
    cfg = write_json(tmp_path / "val.json", {
        "model": str(workspace / "true_model.json"), "data": data, "exclude": -5})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "val")]) == 4
    assert "exclude must be >= 0, got -5" in capsys.readouterr().err
    cfg = write_json(tmp_path / "ident.json", {
        "data": data,
        "ident": {"n_x": 3, "selection": two_mode.sel.to_jsonable(),
                  "selection_bar": two_mode.sel_bar.to_jsonable()},
        "validation": {"split": 1000, "exclude": -5},
    })
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "ident")]) == 4
    assert "exclude must be >= 0, got -5" in capsys.readouterr().err


def test_transform_then_compare_isomorphic(workspace, capsys):
    write_json(workspace / "T.json", [[2.0, 0.0, 0.0],
                                      [1.0, 1.0, 0.0],
                                      [0.0, 0.0, -1.0]])
    assert main(["transform", str(workspace / "true_model.json"),
                 str(workspace / "T.json"),
                 "--out", str(workspace / "moved")]) == 0
    rc = main(["compare", str(workspace / "true_model.json"),
               str(workspace / "moved" / "model.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "isomorphic: yes" in out
    assert "worst residual" in out


def test_compare_rejects_different_models(workspace, two_mode, capsys):
    bumped = two_mode.model.to_dict()
    bumped["A"][0][0][0] += 0.05
    write_json(workspace / "bumped.json", bumped)
    rc = main(["compare", str(workspace / "true_model.json"),
               str(workspace / "bumped.json")])
    assert rc == 5
    assert "not isomorphic" in capsys.readouterr().err


def _deterministic(m):
    return {**m, "type": "deterministic"}


def _nan_c(m):
    return {**m, "C": [[float("nan"), *m["C"][0][1:]]]}


_NOT_STOCHASTIC = "the model's type is 'deterministic'; a stochastic"


@pytest.mark.parametrize("command, edit, code, text", [
    ("compare", lambda m: [1, 2], 2, "a model must be a JSON object, got list"),
    ("compare", lambda m: 5, 2, "a model must be a JSON object, got int"),
    ("compare", lambda m: {"A": 3}, 2, "model lacks the key 'B'"),
    ("compare", lambda m: {**m, "K": [[[1.0], [0.0], [0.0]], [[1.0], [0.0]]]}, 2,
     "K is not numeric, or its rows differ in length"),
    ("compare", lambda m: {**m, "A": [1.0, 2.0]}, 2, "A family must be a nonempty list"),
    ("compare", lambda m: {**m, "C": {"a": 1}}, 2, "C is not numeric"),
    ("transform", lambda T: {"a": 1}, 3, "T must be a matrix of numbers"),
    ("transform", lambda T: [[1.0, 0.0], [0.0, 1.0]], 4, "T must be 3x3"),
    ("realize", lambda cov: {**cov, "t_yy_sigma": {"1": cov["t_yy_sigma"]["1"]}}, 4,
     "t_yy_sigma must key exactly the modes ['1', '2'], got ['1']"),
    ("realize", lambda cov: {**cov, "t_yy_sigma": {**cov["t_yy_sigma"], "3": [[1.0]]}}, 4,
     "t_yy_sigma must key exactly the modes ['1', '2'], got ['1', '2', '3']"),
    ("realize", lambda cov: {**cov, "t_yy_sigma": 3}, 4,
     "t_yy_sigma must be a JSON object, got int"),
    ("realize", lambda cov: {**cov, "lambda_yu": [1]}, 4,
     "lambda_yu must be a JSON object, got list"),
    ("realize", lambda cov: {k: v for k, v in cov.items() if k != "p"}, 4,
     "covariance table lacks the key 'p'"),
    ("realize", lambda cov: {k: v for k, v in cov.items() if k != "n_y"}, 4,
     "covariance table lacks the key 'n_y'"),
    ("realize", lambda cov: {**cov, "metadata": 3}, 4, "metadata must be a JSON object, got int"),
    ("realize", lambda cov: {**cov, "lambda_yy": {**cov["lambda_yy"], "1": {"a": 1}}}, 4,
     "lambda_yy['1'] must hold finite numbers in rows of equal length"),
    ("realize", lambda cov: [cov], 4, "a covariance table must be a JSON object, got list"),
    ("realize", lambda cov: {**cov, "metadata": {"degenerate_words": 3}}, 4,
     "metadata's degenerate_words must be a list, got int"),
    # the model's tolerance on the sum of p, checked before step 1
    ("realize", lambda cov: {**cov, "p": [0.5, 0.500000005]}, 4,
     "invalid probability vector p = [0.5, 0.500000005]"),
    # a second moment is checked before step 1; a singular one is step 1's
    ("realize", lambda cov: {**cov, "q_u": [[-1.0 / 3.0]]}, 4,
     "q_u has negative eigenvalue -3.333e-01"),
    ("realize", lambda cov: {**cov, "q_u": [[0.0]]}, 5,
     "input covariance Q_u is numerically singular"),
    # every command that reads a model refuses a deterministic one and runs
    # the model's validate()
    ("compare", _deterministic, 2, _NOT_STOCHASTIC),
    ("simulate", _deterministic, 2, _NOT_STOCHASTIC),
    ("validate", _deterministic, 2, _NOT_STOCHASTIC),
    ("transform-model", _deterministic, 2, _NOT_STOCHASTIC),
    ("validate", _nan_c, 2, "C holds a non-finite entry"),
    ("transform-model", _nan_c, 2, "C holds a non-finite entry"),
    ("transform", lambda T: [[float("nan"), 0.0, 0.0], *T[1:]], 3,
     "T holds a non-finite entry"),
], ids=["list", "number", "missing-key", "ragged-family", "flat-family", "object-C",
        "object-T", "T-shape", "t_yy-missing-mode", "t_yy-extra-key", "t_yy-number",
        "lambda_yu-list", "missing-p", "missing-n_y", "metadata-number",
        "lambda_yy-entry-object", "table-list", "degenerate-words-number", "p-sum-off",
        "q_u-negative", "q_u-singular", "compare-deterministic", "simulate-deterministic",
        "validate-deterministic", "transform-deterministic", "validate-nan-C",
        "transform-nan-C", "nan-T"])
def test_a_malformed_input_file_exits_with_its_code(workspace, tmp_path, capsys, two_mode,
                                                    command, edit, code, text):
    # each edits a good input file: a model, a transformation T, or a
    # covariance table that estimate wrote
    model, out = workspace / "true_model.json", str(tmp_path / "out")
    if command == "transform":
        bad = write_json(tmp_path / "T.json", edit(np.eye(3).tolist()))
        argv = ["transform", str(model), str(bad), "--out", out]
    elif command == "realize":
        est = write_json(tmp_path / "est.json", {"data": str(workspace / "sim" / "data.csv"),
                                                 "p": [0.5, 0.5], "words": {"max_len": 2}})
        assert main(["estimate", "--config", str(est), "--out", str(tmp_path / "est")]) == 0
        cov = json.loads((tmp_path / "est" / "covariances.json").read_text())
        write_json(tmp_path / "cov.json", edit(cov))
        real = write_json(tmp_path / "real.json", {"covariances": "cov.json", "n_x": 3})
        argv = ["realize", "--config", str(real), "--out", out]
    else:
        bad = write_json(tmp_path / "bad.json", edit(two_mode.model.to_dict()))
        if command == "compare":
            argv = ["compare", str(bad), str(model)]
        elif command == "transform-model":
            T = write_json(tmp_path / "T.json", np.eye(3).tolist())
            argv = ["transform", str(bad), str(T), "--out", out]
        else:
            section = ({"sim": {"seed": 0, "length": 100}} if command == "simulate"
                       else {"data": str(workspace / "sim" / "data.csv")})
            cfg = write_json(tmp_path / "cfg.json", {"model": "bad.json", **section})
            argv = [command, "--config", str(cfg), "--out", out]
    assert main(argv) == code
    assert text in capsys.readouterr().err


def test_config_error_paths(workspace, tmp_path, capsys):
    # missing config file
    assert main(["estimate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 3
    # malformed JSON reports the position
    bad = tmp_path / "bad.json"
    bad.write_text("{\"data\": }")
    assert main(["estimate", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 3
    assert "line" in capsys.readouterr().err
    # missing required key (data path must exist; it is checked first)
    cfg = write_json(tmp_path / "incomplete.json",
                     {"data": str(workspace / "sim" / "data.csv")})
    assert main(["estimate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "words" in err


def test_insufficient_data_exit_code(workspace, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("t,q,u_1,y_1\n0,1,0.0,1.0\n1,1,0.0,2.0\n")
    cfg = write_json(tmp_path / "ident_short.json", {
        "data": "short.csv",
        "ident": {"n_x": 1},
    })
    assert main(["identify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 4


def test_identify_rejects_non_finite_data(workspace, tmp_path, capsys):
    rows = (workspace / "sim" / "data.csv").read_text().splitlines()[:200]
    t, q, u, _ = rows[51].split(",")
    rows[51] = ",".join([t, q, u, "nan"])
    (tmp_path / "nan.csv").write_text("\n".join(rows) + "\n")
    cfg = write_json(tmp_path / "ident_nan.json", {
        "data": "nan.csv",
        "ident": {"n_x": 1},
    })
    assert main(["identify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 4
    assert "y holds a non-finite value at row 50" in capsys.readouterr().err


def test_identify_checks_explicit_selections_before_estimating(workspace, tmp_path,
                                                              two_mode, capsys):
    # the bundled selections have n = 3, so n_x = 2 misfits them
    cfg = write_json(tmp_path / "ident_n2.json", {
        "data": str(workspace / "sim" / "data.csv"),
        "ident": {
            "n_x": 2,
            "selection": two_mode.sel.to_jsonable(),
            "selection_bar": two_mode.sel_bar.to_jsonable(),
        },
    })
    assert main(["identify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "selection has n = 3 but n_x = 2" in err
    assert "steps 3-4" not in err


def test_identify_reads_selections_over_the_alphabet_of_p(workspace, tmp_path, two_mode,
                                                          capsys):
    # the data never show mode 3, yet p has three entries: the selections
    # are three-mode ones, so they pass, and identify then names mode 3,
    # which no sample estimates, before it estimates any word
    cfg = write_json(tmp_path / "ident_p3.json", {
        "data": str(workspace / "sim" / "data.csv"),
        "ident": {"n_x": 3, "p": [0.49, 0.49, 0.02],
                  "selection": two_mode.sel.to_jsonable(),
                  "selection_bar": two_mode.sel_bar.to_jsonable()},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no word is estimated, so none is degenerate
        code = main(["identify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_DIMENSION
    assert "modes but p has" not in err
    assert "the data never show mode(s) [3] of p" in err


def test_identify_names_a_data_mode_outside_p(workspace, tmp_path, two_mode, capsys):
    # data that use mode 3 against a two-entry p: the selections are read
    # over p's two modes, and the estimator names the data's mode
    rows = (workspace / "sim" / "data.csv").read_text().splitlines()
    t, _, u, y = rows[100].split(",")
    rows[100] = ",".join([t, "3", u, y])
    (tmp_path / "mode3.csv").write_text("\n".join(rows) + "\n")
    cfg = write_json(tmp_path / "ident_mode3.json", {
        "data": "mode3.csv",
        "ident": {"n_x": 3, "p": [0.5, 0.5], "selection": two_mode.sel.to_jsonable(),
                  "selection_bar": two_mode.sel_bar.to_jsonable()},
    })
    assert main(["identify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_DIMENSION
    err = capsys.readouterr().err
    assert "data uses mode 3 but p has 2 entries" in err
    assert "selection has" not in err


def test_estimate_normalizes_p_like_identify(workspace, tmp_path):
    tables = []
    for name, p in (("half", [0.5, 0.5]), ("ones", [1, 1])):
        cfg = write_json(workspace / f"est_p_{name}.json", {
            "data": "sim/data.csv", "p": p, "words": {"max_len": 2}})
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
        tables.append((tmp_path / name / "covariances.json").read_bytes())
    assert tables[0] == tables[1]
    cfg = write_json(workspace / "est_p_bad.json", {
        "data": "sim/data.csv", "p": [1, 0], "words": {"max_len": 2}})
    assert main(["estimate", "--config", str(cfg),
                 "--out", str(tmp_path / "bad")]) == 2


def _simulate_with(workspace, tmp_path, sim_text, *flags):
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "sim.json"
    cfg.write_text('{"model": "%s", "sim": %s}' % (workspace / "true_model.json", sim_text))
    return main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags])


def test_simulate_takes_integral_floats_as_counts(workspace, tmp_path):
    # JSON 3e2 and 50.0 are floats; they count as the integers 300 and 50
    assert _simulate_with(workspace, tmp_path / "a", '{"seed": 2.0, "length": 3e2, "burn_in": 50.0}') == 0
    assert _simulate_with(workspace, tmp_path / "b", '{"seed": 2, "length": 300, "burn_in": 50}') == 0
    assert ((tmp_path / "a" / "out" / "data.csv").read_bytes()
            == (tmp_path / "b" / "out" / "data.csv").read_bytes())
    manifest = json.loads((tmp_path / "a" / "out" / "manifest.json").read_text())
    assert manifest["effective_config"]["sim"]["length"] == 300
    assert isinstance(manifest["effective_config"]["sim"]["length"], int)


@pytest.mark.parametrize("sim_text, flags, code, text", [
    ('{"seed": 1, "length": 2000.5}', [], 4, "length must be an integer, got 2000.5"),
    ('{"seed": 1, "length": "2000"}', [], 4, "length must be an integer, got '2000'"),
    ('{"seed": 1, "length": 300, "burn_in": 10.5}', [], 4,
     "burn_in must be an integer, got 10.5"),
    ('{"seed": -1, "length": 300}', [], 4, "seed must be >= 0, got -1"),
    ('{"seed": 1, "length": 300}', ["--seed", "-2"], 4, "seed must be >= 0, got -2"),
    ('{"seed": 1, "lenght": 300}', [], 3, "config section 'sim' has unknown key 'lenght'"),
    ('{"seed": 1}', [], 3, "config section 'sim' is missing required key 'length'"),
    # the noise is always Gaussian
    ('{"seed": 1, "length": 300, "noise_dist": "gaussian"}', [], 3,
     "config section 'sim' has unknown key 'noise_dist'"),
    # the model's Q_u fixes the input's bounds
    ('{"seed": 1, "length": 300, "input_low": -1.0}', [], 3,
     "config section 'sim' has unknown key 'input_low'"),
    ('{"seed": 1, "length": 300, "input_high": 1.0}', [], 3,
     "config section 'sim' has unknown key 'input_high'"),
])
def test_simulate_rejects_a_malformed_sim_section(workspace, tmp_path, capsys,
                                                  sim_text, flags, code, text):
    assert _simulate_with(workspace, tmp_path, sim_text, *flags) == code
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_model_exit_code(workspace, tmp_path, two_mode):
    unstable = two_mode.model.to_dict()
    unstable["A"] = [[[1.2, 0, 0], [0, 1.2, 0], [0, 0, 1.2]]] * 2
    write_json(tmp_path / "unstable.json", unstable)
    cfg = write_json(tmp_path / "sim_bad.json", {
        "model": "unstable.json",
        "sim": {"seed": 1, "length": 100},
    })
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("field, index", [
    ("C", (0, 0)), ("B", (0, 1, 0)), ("Q_v", (1, 0, 0)), ("A", (0, 2, 2)), ("p", (0,))],
    ids=["C", "B", "Q_v", "A", "p"])
def test_simulate_names_a_non_finite_model_entry(tmp_path, capsys, two_mode, field, index):
    # a NaN compares false everywhere, so it must be named before any check
    # or computation that it would slip past or break
    model = two_mode.model.to_dict()
    entries = model[field]
    for i in index[:-1]:
        entries = entries[i]
    entries[index[-1]] = float("nan")
    write_json(tmp_path / "nan.json", model)
    cfg = write_json(tmp_path / "sim.json", {"model": "nan.json",
                                             "sim": {"seed": 1, "length": 100}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"invalid model: {field} holds a non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("estimate", "--estimator"), ("identify", "--estimator"),
    ("identify", "--selection"), ("realize", "--selection"),
])
def test_commands_have_no_estimator_or_selection_flag(tmp_path, capsys, command, flag):
    # the config file is the one place these are set
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out"),
              flag, "search"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _ident_config(workspace, two_mode, ident=None, validation=None):
    cfg = {"data": str(workspace / "sim" / "data.csv"),
           "ident": {"n_x": 3, "selection": two_mode.sel.to_jsonable(),
                     "selection_bar": two_mode.sel_bar.to_jsonable(), **(ident or {})},
           "validation": {"split": 1000, "exclude": 6, **(validation or {})}}
    return cfg


@pytest.mark.parametrize("ident, validation, text", [
    ({"n_x": 3.7}, None, "config section 'ident' key 'n_x' must be an integer, got 3.7"),
    ({"n_bar": True}, None, "config section 'ident' key 'n_bar' must be an integer, got True"),
    ({"n_x": "3"}, None, "config section 'ident' key 'n_x' must be an integer, got '3'"),
    ({"n_bar": 2.5}, None, "config section 'ident' key 'n_bar' must be an integer, got 2.5"),
    ({"selction": "search"}, None, "config section 'ident' has unknown key 'selction'"),
    (None, {"split": 1000.5}, "config section 'validation' key 'split' must be an integer"),
    (None, {"exclude": 6.5}, "config section 'validation' key 'exclude' must be an integer"),
    (None, {"spilt": 1000}, "config section 'validation' has unknown key 'spilt'"),
    # the fixed numerical settings are not config keys, not even at their values
    ({"fp_tol": 1e-10}, None, "config section 'ident' has unknown key 'fp_tol'"),
    ({"fp_max_iter": 5000}, None, "config section 'ident' has unknown key 'fp_max_iter'"),
    ({"search_budget": 50000}, None, "config section 'ident' has unknown key 'search_budget'"),
    ({"rank_tol": 1e-8}, None, "config section 'ident' has unknown key 'rank_tol'"),
    # the covariances always come from the direct estimator
    ({"estimator": "direct"}, None, "config section 'ident' has unknown key 'estimator'"),
    # a malformed selection crashed with a traceback, or named no field
    ({"selection": {"alpha": [["e", 1]]}}, None,
     "selection needs 'beta', a list of [mode, word, column] entries"),
    ({"selection": {"alpha": 3, "beta": []}}, None,
     "selection needs 'alpha', a list of [word, row] entries"),
    ({"selection_bar": {"alpha": [["e", 1]], "beta": [[1, 5, 1]]}}, None,
     "selection_bar 'beta' entry 0 must be [mode, word, column] with the word a string"),
    ({"selection": {"alpha": [[1]], "beta": []}}, None,
     "selection 'alpha' entry 0 must be [word, row] with the word a string"),
    # a split below 1 left an empty validation set, and the run exited 4
    # with a message that named neither the key nor its value
    (None, {"split": -1}, "config section 'validation' key 'split' must be >= 1, got -1"),
    (None, {"split": 0}, "config section 'validation' key 'split' must be >= 1, got 0"),
])
def test_identify_rejects_a_malformed_count_or_key(workspace, tmp_path, capsys, two_mode,
                                                   ident, validation, text):
    cfg = write_json(tmp_path / "ident.json",
                     _ident_config(workspace, two_mode, ident, validation))
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_identify_takes_integral_floats_as_counts(workspace, tmp_path, two_mode):
    runs = {"int": ({"n_x": 3, "n_bar": 3}, {"split": 1000, "exclude": 6}),
            "float": ({"n_x": 3.0, "n_bar": 3e0}, {"split": 1e3, "exclude": 6.0})}
    for name, (ident, validation) in runs.items():
        cfg = write_json(tmp_path / f"{name}.json",
                         _ident_config(workspace, two_mode, ident, validation))
        assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    for out in ("model.json", "report.json"):
        assert (tmp_path / "int" / out).read_bytes() == (tmp_path / "float" / out).read_bytes()
    effective = json.loads((tmp_path / "float" / "report.json").read_text())["effective_config"]
    assert effective["validation"] == {"split": 1000, "exclude": 6}
    assert isinstance(effective["ident"]["n_x"], int)


@pytest.mark.parametrize("words, code, text", [
    ({"max_len": 2.9}, 3, "config section 'words' key 'max_len' must be an integer, got 2.9"),
    ({"max_len": 2, "min_len": 1}, 3, "config section 'words' has unknown key 'min_len'"),
    ({"max_len": 2.0}, 0, "estimate: 7 words"),
    (3, 3, "'words' must be a list of word strings or {\"max_len\": L}"),
    (["1x"], 4, "cannot parse word '1x'"),
])
def test_estimate_checks_the_word_cap(workspace, tmp_path, capsys, words, code, text):
    cfg = write_json(tmp_path / "est.json", {
        "data": str(workspace / "sim" / "data.csv"), "p": [0.5, 0.5], "words": words})
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert text in capsys.readouterr().err


def test_estimate_takes_a_list_of_words(workspace, tmp_path):
    # the same longest word as the cap, so both start at the same N_0
    listed = ["e", "2", "12", "211"]
    tables = {}
    for name, words in (("cap", {"max_len": 3}), ("list", listed)):
        cfg = write_json(tmp_path / f"{name}.json", {
            "data": str(workspace / "sim" / "data.csv"), "p": [0.5, 0.5], "words": words})
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        tables[name] = json.loads((tmp_path / name / "covariances.json").read_text())
    cap, by_list = tables["cap"], tables["list"]
    assert by_list["effective_config"]["words"] == sorted(listed)
    assert sorted(by_list["lambda_yu"]) == sorted(listed)
    assert sorted(by_list["lambda_yy"]) == sorted(listed[1:])
    for key in ("lambda_yu", "lambda_yy"):
        for w, m in by_list[key].items():
            assert m == cap[key][w], f"{key}[{w}]"
    for key in ("p", "q_u", "t_yy_sigma"):
        assert by_list[key] == cap[key]
    assert by_list["metadata"]["N_0"] == cap["metadata"]["N_0"] == 4


def test_estimate_refuses_data_with_a_mode_outside_p(workspace, tmp_path, capsys):
    # the data hold mode 2, which a one-entry p does not describe
    cfg = write_json(tmp_path / "est.json", {
        "data": str(workspace / "sim" / "data.csv"), "p": [1.0], "words": {"max_len": 2}})
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "data uses mode 2 but p has 1 entries" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, text", [
    ({"n_x": 3.5}, "config section 'realize' key 'n_x' must be an integer, got 3.5"),
    ({"n_bar": 2.5}, "config section 'realize' key 'n_bar' must be an integer, got 2.5"),
    ({"fp_tol": 1e-10}, "config section 'realize' has unknown key 'fp_tol'"),
    ({"fp_max_iter": 5000}, "config section 'realize' has unknown key 'fp_max_iter'"),
    ({"search_budget": 50000}, "config section 'realize' has unknown key 'search_budget'"),
    ({"rank_tol": 1e-8}, "config section 'realize' has unknown key 'rank_tol'"),
])
def test_realize_rejects_a_fractional_count(workspace, tmp_path, capsys, two_mode,
                                            setting, text):
    est = write_json(tmp_path / "est.json", {
        "data": str(workspace / "sim" / "data.csv"), "p": [0.5, 0.5],
        "words": {"max_len": 6}})
    assert main(["estimate", "--config", str(est), "--out", str(tmp_path / "est")]) == 0
    cfg = write_json(tmp_path / "real.json", {
        "covariances": "est/covariances.json", "n_x": 3,
        "selection": two_mode.sel.to_jsonable(),
        "selection_bar": two_mode.sel_bar.to_jsonable(), **setting})
    assert main(["realize", "--config", str(cfg), "--out", str(tmp_path / "real")]) == 3
    assert text in capsys.readouterr().err


def _runnable_config(workspace, two_mode, command):
    """A config on which the command runs (realize's needs est/covariances.json)."""
    data = str(workspace / "sim" / "data.csv")
    return {"simulate": {"model": str(workspace / "true_model.json"),
                         "sim": {"seed": 0, "length": 100}},
            "estimate": {"data": data, "p": [0.5, 0.5], "words": {"max_len": 2}},
            "realize": {"covariances": "est/covariances.json", "n_x": 3},
            "identify": _ident_config(workspace, two_mode),
            "validate": {"model": str(workspace / "true_model.json"), "data": data,
                         "exclude": 6}}[command]


@pytest.mark.parametrize("command, key", [
    ("estimate", "word"), ("estimate", "n_x"), ("estimate", "estimator"),
    ("validate", "exlcude"), ("validate", "split"),
    ("simulate", "seed"), ("identify", "validaton"),
])
def test_commands_reject_an_unknown_config_key(workspace, tmp_path, capsys, two_mode,
                                               command, key):
    # realize's keys are checked in test_realize_rejects_a_fractional_count
    good = _runnable_config(workspace, two_mode, command)
    # the config runs as it is, and exits 3 with one key more
    cfg = write_json(tmp_path / "run.json", good)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "good")]) == 0
    cfg = write_json(tmp_path / "run.json", {**good, key: 1})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert f"config section '{command}' has unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "simulate", 5),
    ("simulate", "sim", 5),
    ("simulate", "sim", [["seed", 0], ["length", 100]]),
    ("estimate", "estimate", []),
    ("realize", "realize", "real.json"),
    ("identify", "identify", 3),
    ("identify", "ident", 3),
    ("identify", "validation", 7),
    # a falsy section is not skipped
    ("identify", "validation", []),
    ("identify", "validation", 0),
    ("identify", "validation", ""),
    ("identify", "validation", None),
    ("validate", "validate", None),
])
def test_a_config_section_must_be_an_object(workspace, tmp_path, capsys, two_mode,
                                            command, section, value):
    # the section named after the command is the whole config
    good = _runnable_config(workspace, two_mode, command)
    cfg = write_json(tmp_path / "run.json",
                     value if section == command else {**good, section: value})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert (f"config section '{section}' must be a JSON object"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_an_empty_validation_section_is_not_skipped(workspace, tmp_path, capsys, two_mode):
    cfg = write_json(tmp_path / "run.json",
                     {**_runnable_config(workspace, two_mode, "identify"), "validation": {}})
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "'validation' needs 'data' or 'split'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_identify_checks_the_split_before_it_identifies(workspace, tmp_path, capsys,
                                                       two_mode):
    # a "data" file is scored in place of the split, as before
    runs = {}
    for name, validation in (("fits", {"split": 1000}), ("too_large", {"split": 20000}),
                             ("data", {"split": 20000, "data": "sim/data.csv"})):
        cfg = write_json(workspace / f"split_{name}.json",
                         _ident_config(workspace, two_mode, validation=validation))
        with mock.patch.object(slsid.cli, "identify", wraps=identify) as ident:
            code = main(["identify", "--config", str(cfg), "--out", str(tmp_path / name)])
        runs[name] = code, ident.call_count
    assert runs == {"fits": (EXIT_OK, 1), "too_large": (EXIT_DIMENSION, 0),
                    "data": (EXIT_OK, 1)}
    assert "validation split 20000 >= dataset length 20000" in capsys.readouterr().err


@pytest.mark.parametrize("case, text", [
    ("missing", "dataset not found"),
    ("malformed", "could not convert"),
    ("malformed_clean", "could not convert"),
])
def test_identify_reads_its_validation_file_before_it_identifies(
        workspace, tmp_path, capsys, two_mode, case, text):
    # a bad validation file, or its clean sibling, stops the command
    # before the identification runs
    (tmp_path / "val").mkdir()
    val = tmp_path / "val" / "data.csv"
    if case == "malformed":
        val.write_text("t,q,u_1,y_1\n0,1,abc,0.5\n")
    elif case == "malformed_clean":
        val.write_bytes((workspace / "sim" / "data.csv").read_bytes())
        (tmp_path / "val" / "data_clean.csv").write_text("t,y_1\n0,abc\n")
    cfg = write_json(tmp_path / "run.json",
                     _ident_config(workspace, two_mode, validation={"data": str(val)}))
    with mock.patch.object(slsid.cli, "identify", wraps=identify) as ident:
        code = main(["identify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert (code, ident.call_count) == (EXIT_IO, 0)
    assert text in capsys.readouterr().err


def test_main_builds_its_parser_once_and_looks_each_command_up_per_call(
        workspace, tmp_path, monkeypatch):
    cfg = str(workspace / "sim.json")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_IO
    parser = slsid.cli._build_parser()
    calls = []
    monkeypatch.setattr(slsid.cli, "cmd_validate", lambda args: calls.append(args) or 7)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 7
    assert [(a.command, a.config) for a in calls] == [("validate", cfg)]
    assert slsid.cli._build_parser() is parser


@pytest.mark.parametrize("command, config, code", [
    ("estimate", {"p": [0.5, 0.5], "words": {"max_len": 2}}, EXIT_OK),
    ("identify", {}, EXIT_OK),
    ("identify", {"validation": {"data": "val/data.csv"}}, EXIT_OK),
    ("identify", {"validation": {"split": 1000}}, EXIT_IO),
    ("validate", {"model": "model.json"}, EXIT_IO),
])
def test_only_a_command_that_scores_on_the_data_reads_its_clean_channel(
        workspace, tmp_path, capsys, two_mode, command, config, code):
    # the clean sibling is malformed: a command that never scores on the
    # data does not parse it, and one that does stops at the reader's error
    (tmp_path / "val").mkdir()
    for path in (tmp_path / "data.csv", tmp_path / "val" / "data.csv"):
        path.write_bytes((workspace / "sim" / "data.csv").read_bytes())
    (tmp_path / "data_clean.csv").write_text("t,y_1\n0,abc\n")
    with pytest.raises(ValueError) as reader:
        load_series_csv(tmp_path / "data_clean.csv")
    write_json(tmp_path / "model.json", two_mode.model.to_dict())
    if command == "identify":
        config = {"ident": {"n_x": 3, "selection": two_mode.sel.to_jsonable(),
                            "selection_bar": two_mode.sel_bar.to_jsonable()}, **config}
    cfg = write_json(tmp_path / "run.json", {"data": "data.csv", **config})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert (f"error: {reader.value}" in err) == (code != EXIT_OK)


def test_validate_records_its_reference(workspace, tmp_path):
    data = Dataset.from_csv(workspace / "sim" / "data.csv",
                            clean_path=workspace / "sim" / "data_clean.csv").slice(0, 200)
    data.to_csv(tmp_path / "data.csv")
    write_csv(tmp_path / "ref_a.csv", ["t", "y_1"], [data.y_clean[:, 0]], t0=0)
    write_csv(tmp_path / "ref_b.csv", ["t", "y_1"], [data.y[:, 0]], t0=0)
    effective = {}
    for name, extra in (("a", {"reference": "ref_a.csv"}), ("b", {"reference": "ref_b.csv"}),
                        ("none", {})):
        cfg = write_json(tmp_path / f"{name}.json", {
            "model": str(workspace / "true_model.json"), "data": "data.csv", **extra})
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        effective[name] = report["effective_config"]
    assert effective["a"]["reference"] == "ref_a.csv"
    assert effective["b"]["reference"] == "ref_b.csv"
    assert effective["a"] != effective["b"]
    assert "reference" not in effective["none"]


def test_validate_rejects_a_fractional_exclude(workspace, tmp_path, capsys):
    cfg = write_json(tmp_path / "val.json", {
        "model": str(workspace / "true_model.json"),
        "data": str(workspace / "sim" / "data.csv"), "exclude": 6.5})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "val")]) == 3
    assert "config section 'validate' key 'exclude' must be an integer, got 6.5" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("seed", range(4))
def test_cli_identify_agrees_with_the_library(tmp_path, two_mode, seed):
    # N = 2e4 spans several CSV blocks; the CLI's files must carry the
    # library's dataset into the library's outcome
    n = 20_000
    write_json(tmp_path / "model.json", two_mode.model.to_dict())
    sim = write_json(tmp_path / "sim.json",
                     {"model": "model.json", "sim": {"seed": seed, "length": n}})
    assert main(["simulate", "--config", str(sim), "--out", str(tmp_path / "sim")]) == 0
    ident = write_json(tmp_path / "ident.json", {
        "data": "sim/data.csv",
        "ident": {"n_x": 3, "selection": two_mode.sel.to_jsonable(),
                  "selection_bar": two_mode.sel_bar.to_jsonable(), "p": [0.5, 0.5]},
        "validation": {"split": n // 5}})
    code = main(["identify", "--config", str(ident), "--out", str(tmp_path / "ident")])

    data = simulate(two_mode.model, SimConfig(seed=seed, length=n))
    try:
        model, _ = identify(data, IdentConfig(n_x=3, selection=two_mode.sel,
                                              selection_bar=two_mode.sel_bar, p=[0.5, 0.5]))
    except NumericalError:
        assert code == EXIT_NUMERICAL
        return
    assert code == 0
    assert (json.loads((tmp_path / "ident" / "model.json").read_text())
            == json.loads(json.dumps(model.to_dict())))
    report = json.loads((tmp_path / "ident" / "report.json").read_text())
    assert report["validation"]["bfr"] == validate_model(model, data.slice(n - n // 5, n)).bfr



@pytest.mark.parametrize("command, setting, message", [
    ("identify", {"n_x": 4}, "selection has n = 3 but n_x = 4"),
    ("identify", {"n_bar": 5}, "selection_bar has n = 3 but n_bar = 5"),
    ("realize", {"n_x": 2}, "selection has n = 3 but n_x = 2"),
], ids=["identify-n_x", "identify-n_bar", "realize-n_x"])
def test_explicit_selections_are_checked_against_n_x(workspace, tmp_path, capsys, two_mode,
                                                      command, setting, message):
    # the bundled selections have n = 3; they used to realize a 3-state
    # model whatever n_x and n_bar the config asked for
    cfg = _ident_config(workspace, two_mode, setting)
    if command == "realize":
        est = write_json(tmp_path / "est.json",
                         {"data": cfg["data"], "p": [0.5, 0.5], "words": {"max_len": 6}})
        assert main(["estimate", "--config", str(est), "--out", str(tmp_path / "est")]) == 0
        cfg = {"covariances": "est/covariances.json", **cfg["ident"]}
    path = write_json(tmp_path / "run.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    assert f"error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("p", [[{"a": 1}, 0.5], {"a": 1}])
def test_identify_names_a_p_that_is_not_numbers(workspace, tmp_path, capsys, two_mode, p):
    # both crashed with a TypeError traceback
    cfg = write_json(tmp_path / "ident.json", _ident_config(workspace, two_mode, {"p": p}))
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"p must be 'empirical' or a vector of numbers, got {p!r}" in capsys.readouterr().err


@pytest.mark.parametrize("p", [3, 0.5, True])
def test_identify_names_a_p_that_is_not_a_vector(workspace, tmp_path, capsys, two_mode, p):
    # a bare number or bool was taken as a one-entry vector, and the run
    # exited 4 because the data has two modes
    cfg = write_json(tmp_path / "ident.json", _ident_config(workspace, two_mode, {"p": p}))
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (f"invalid probabilities: p must be 'empirical' or a vector of numbers, got {p!r}\n"
            in capsys.readouterr().err)


def test_a_bad_p_is_reported_as_probabilities_not_as_a_model(workspace, tmp_path, capsys):
    cfg = write_json(tmp_path / "est.json", {
        "data": str(workspace / "sim" / "data.csv"), "p": [1, 0], "words": {"max_len": 2}})
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid probabilities: probabilities must be positive" in err
    assert "invalid model" not in err


_DELETE = object()
_DOCUMENTED = (EXIT_OK, EXIT_MODEL, EXIT_IO, EXIT_DIMENSION, EXIT_NUMERICAL)


def _mutants(base, paths):
    """(path, value, copy of base with the entry at path deleted or set to
    value) for each path and each of delete, null, 3, -1, "x", [1],
    {"a": 1} and NaN."""
    for *parents, last in paths:
        for value in (_DELETE, None, 3, -1, "x", [1], {"a": 1}, float("nan")):
            obj = copy.deepcopy(base)
            target = functools.reduce(operator.getitem, parents, obj)
            if value is _DELETE:
                del target[last]
            else:
                target[last] = value
            yield (*parents, last), value, obj


def _exit_of(argv):
    """main's exit code, or the text of the exception it raised."""
    try:
        return main([str(a) for a in argv])
    except Exception as exc:  # the traceback the scans look for
        return f"{type(exc).__name__}: {exc}"


def test_a_mutated_identify_config_exits_with_a_documented_code(tmp_path, capsys, two_mode):
    """Every key of "ident" and "validation", both lists of each selection
    and their first entries, and p's first entry, each deleted or set to
    null, 3, -1, "x", [1], {"a": 1} or NaN: 128 runs, none may raise."""
    write_json(tmp_path / "model.json", two_mode.model.to_dict())
    write_json(tmp_path / "sim.json", {"model": "model.json", "sim": {"seed": 0, "length": 5000}})
    assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "sim")]) == 0
    base = {"data": "sim/data.csv",
            "ident": {"n_x": 3, "n_bar": 3, "selection": two_mode.sel.to_jsonable(),
                      "selection_bar": two_mode.sel_bar.to_jsonable(), "p": [0.5, 0.5]},
            "validation": {"split": 1000, "exclude": 6}}
    paths = [(section, key) for section in ("ident", "validation") for key in base[section]]
    paths += [("ident", sel, field) + entry for sel in ("selection", "selection_bar")
              for field in ("alpha", "beta") for entry in ((), (0,))] + [("ident", "p", 0)]

    def run(cfg):
        path = write_json(tmp_path / "ident.json", cfg)
        return _exit_of(["identify", "--config", path, "--out", tmp_path / "out"])

    # validation is read last, so the base run must get through it (N = 5e3
    # at seed 0 does with the bundled selections; N = 2e4 at seed 0 exits 5)
    assert run(base) == EXIT_OK
    wrong = [(path, value, code) for path, value, cfg in _mutants(base, paths)
             if (code := run(cfg)) not in _DOCUMENTED]
    capsys.readouterr()
    assert len(paths) == 16 and wrong == []


def test_a_mutated_written_file_exits_with_a_documented_code(tmp_path, capsys, two_mode):
    """The files real runs write, mutated as the identify config is above:
    a covariances.json from `slsid estimate` under `realize`, and the model
    file `realize` writes under `simulate`, `validate` and `compare`.  Every
    top-level field and the first entry of each table and list: 112 realize
    and 456 model runs, none may raise."""
    model_path = write_json(tmp_path / "true.json", two_mode.model.to_dict())
    write_json(tmp_path / "sim.json", {"model": model_path.name,
                                       "sim": {"seed": 0, "length": 10000}})
    write_json(tmp_path / "est.json", {"data": "sim/data.csv", "p": [0.5, 0.5],
                                       "words": {"max_len": 5}})
    for command, config in (("simulate", "sim"), ("estimate", "est")):
        assert main([command, "--config", str(tmp_path / f"{config}.json"),
                     "--out", str(tmp_path / config)]) == 0
    cov = json.loads((tmp_path / "est" / "covariances.json").read_text())
    real = {"covariances": "cov.json", "n_x": 3, "selection": two_mode.sel.to_jsonable(),
            "selection_bar": two_mode.sel_bar.to_jsonable()}
    write_json(tmp_path / "real.json", real)

    def realize(cov_obj):
        write_json(tmp_path / "cov.json", cov_obj)
        return _exit_of(["realize", "--config", tmp_path / "real.json",
                         "--out", tmp_path / "real"])

    # the bundled selections realize this table (at N = 3000 they exit 5)
    assert realize(cov) == EXIT_OK
    model = json.loads((tmp_path / "real" / "model.json").read_text())
    write_json(tmp_path / "realized.json", model)
    cov_paths = [(key,) for key in cov] + [("lambda_yu", "e"), ("lambda_yy", "1"),
                                           ("t_yy_sigma", "1"), ("p", 0), ("q_u", 0)]
    wrong = [(path, value, code) for path, value, obj in _mutants(cov, cov_paths)
             if (code := realize(obj)) not in _DOCUMENTED]

    write_json(tmp_path / "simulate.json", {"model": "model.json",
                                            "sim": {"seed": 0, "length": 300}})
    write_json(tmp_path / "validate.json", {"model": "model.json", "data": "short/data.csv",
                                            "exclude": 6})
    write_json(tmp_path / "model.json", model)
    assert main(["simulate", "--config", str(tmp_path / "simulate.json"),
                 "--out", str(tmp_path / "short")]) == 0
    model_runs = [["simulate", "--config", tmp_path / "simulate.json", "--out", tmp_path / "o"],
                  ["validate", "--config", tmp_path / "validate.json", "--out", tmp_path / "o"],
                  ["compare", tmp_path / "model.json", tmp_path / "realized.json"]]
    assert [_exit_of(argv) for argv in model_runs] == [EXIT_OK] * 3
    model_paths = [(key,) for key in model] + [(key, 0) for key in model if key != "type"]
    for path, value, obj in _mutants(model, model_paths):
        write_json(tmp_path / "model.json", obj)
        wrong += [(argv[0], path, value, code) for argv in model_runs
                  if (code := _exit_of(argv)) not in _DOCUMENTED]
    capsys.readouterr()
    assert (len(cov_paths), len(model_paths)) == (14, 19) and wrong == []


def test_every_command_reads_the_files_the_commands_before_it_write(tmp_path, capsys,
                                                                     two_mode):
    """The command graph on the reference system (N = 1e4, seed 0) with
    default configs and the bundled selections: simulate -> estimate ->
    realize, and identify; then each written model through simulate,
    validate, and transform -> compare.  All 12 commands exit 0."""
    sels = {"selection": two_mode.sel.to_jsonable(),
            "selection_bar": two_mode.sel_bar.to_jsonable()}
    sim = {"seed": 0, "length": 10000}
    write_json(tmp_path / "true.json", two_mode.model.to_dict())
    write_json(tmp_path / "T.json", [[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])

    def run(command, config, out):
        write_json(tmp_path / f"{out}.json", config)
        return main([command, "--config", str(tmp_path / f"{out}.json"),
                     "--out", str(tmp_path / out)])

    codes = {
        "simulate": run("simulate", {"model": "true.json", "sim": sim}, "sim"),
        "estimate": run("estimate", {"data": "sim/data.csv", "words": {"max_len": 5}}, "est"),
        "realize": run("realize", {"covariances": "est/covariances.json", "n_x": 3, **sels},
                       "real"),
        "identify": run("identify", {"data": "sim/data.csv", "ident": {"n_x": 3, **sels}},
                        "ident"),
    }
    for name, out in (("realize", "real"), ("identify", "ident")):
        model = tmp_path / out / "model.json"
        moved = tmp_path / f"{name}-moved"
        codes |= {
            f"{name}: simulate": run("simulate", {"model": str(model), "sim": sim},
                                     f"{name}-sim"),
            f"{name}: validate": run("validate", {"model": str(model), "data": "sim/data.csv"},
                                     f"{name}-val"),
            f"{name}: transform": main(["transform", str(model), str(tmp_path / "T.json"),
                                        "--out", str(moved)]),
            f"{name}: compare": main(["compare", str(model), str(moved / "model.json")]),
        }
    capsys.readouterr()
    assert codes == dict.fromkeys(codes, EXIT_OK)


# runs each argv of the JSON list in sys.argv[1] through slsid.cli.main
_RUN_COMMANDS = """
import json, sys
from slsid.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(1)
"""


def test_identify_and_validate_write_the_same_bytes_on_one_and_two_blas_threads(
        tmp_path, two_mode):
    # At this seed and length a BLAS product over the samples (of y(t) u(t)^T,
    # u(t) u(t)^T or the whiteness terms) gives other low bits on two threads
    # than on one, and they reach the model, both reports and the predictions.
    write_json(tmp_path / "model.json", two_mode.model.to_dict())
    write_json(tmp_path / "sim.json", {"model": "model.json",
                                       "sim": {"seed": 0, "length": 50000}})
    assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "sim")]) == 0
    ident = {"n_x": 3, "selection": two_mode.sel.to_jsonable(),
             "selection_bar": two_mode.sel_bar.to_jsonable(), "p": [0.5, 0.5]}
    src = str(Path(slsid.cli.__file__).resolve().parents[1])
    written = {}
    for threads in ("1", "2"):
        run = tmp_path / f"threads-{threads}"
        run.mkdir()
        write_json(run / "ident.json", {"data": "../sim/data.csv", "ident": ident,
                                        "validation": {"split": 10000, "exclude": 6}})
        write_json(run / "val.json", {"model": "identify/model.json",
                                      "data": "../sim/data.csv", "exclude": 6})
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        commands = [[command, "--config", str(run / config), "--out", str(run / command)]
                    for command, config in (("identify", "ident.json"), ("validate", "val.json"))]
        subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
                       env=env, check=True)
        written[threads] = {name: (run / name).read_bytes() for name in (
            "identify/model.json", "identify/report.json",
            "validate/report.json", "validate/predictions.csv")}
    for name, text in written["1"].items():
        assert written["2"][name] == text, name
