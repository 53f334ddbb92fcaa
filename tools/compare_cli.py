"""Run the CLI round trips over a seed grid and hash every file they write.

    PYTHONPATH=DIR_A/src python3 tools/compare_cli.py a.json
    PYTHONPATH=DIR_B/src python3 tools/compare_cli.py b.json --against a.json

For each input seed 0-9 the two-mode reference system
(`perfbench.workloads.reference_system`) is simulated (N = 5e4 samples,
`slsid simulate`), then identified with its bundled selections,
p = (0.5, 0.5) and a validation split of N/5 samples (`slsid identify`),
and the identified model is scored on the whole simulated dataset
(`slsid validate`); the first 6 samples are excluded from both scores.
These are the configs of the benchmark's cli-roundtrip workload.  The
same identification also runs without a "validation" section (the record
"identify-plain"), and with the simulated file as its "validation.data"
("identify-valdata"): the one reads no clean channel, the other only the
validation file's.  Each seed also runs `slsid estimate` over all words
up to length 8 and `slsid realize` on that 511-word table twice: with
"search" selections, and with the bundled ones (the record
"realize-explicit"), which read only some of its words.  Then a fixed
three-mode innovation model with four states, two inputs and two outputs
(`mimo_system`) is simulated with Gaussian input at the same seed and
length, and scored on its own data (`slsid validate`); these records are
named "mimo-simulate" and "mimo-validate".

Every command runs in-process through `slsid.cli.main`.  Its exit code,
its stderr when it fails, and the sha256 of every file it writes are
recorded; a command whose input command failed is not run.  With
--against, each command whose record differs from the other file's is
printed with the differing files and, when its stderr differs, both
stderr texts; the exit code is 1 if any differ.
No sum over samples is a BLAS product, so the records do not depend on
the BLAS thread count.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from slsid import InnovationModel, stability_margin
from slsid.cli import main as slsid_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import reference_system  # noqa: E402  (needs the repo root)

SEEDS = range(10)
LENGTH = 50_000
EXCLUDE = 6


def mimo_system() -> InnovationModel:
    """A fixed innovation model with D = 3 modes, n_x = 4, n_u = n_y = 2 and
    Q_u = I: its predictor A_s - K_s C has mean-square radius 0.6, and A_s
    has 0.49."""
    rng = np.random.default_rng(0)
    p = np.array([0.5, 0.3, 0.2])
    C = rng.normal(size=(2, 4))
    K = 0.3 * rng.normal(size=(3, 4, 2))
    closed = rng.normal(size=(3, 4, 4))
    closed *= np.sqrt(0.6 / stability_margin(closed, p))
    B = rng.normal(size=(3, 4, 2))
    G = rng.normal(size=(3, 2, 2))
    Q_v = p[:, None, None] * (G @ G.transpose(0, 2, 1) + 0.1 * np.eye(2))
    return InnovationModel.from_parts(closed + K @ C, B, K, C, rng.normal(size=(2, 2)),
                                      p, np.eye(2), Q_v)


def _mimo_configs(length: int) -> dict:
    return {
        "model.json": mimo_system().to_dict(),
        "simulate.json": {"model": "model.json",
                          "sim": {"seed": 0, "length": length, "input_dist": "gaussian"}},
        "validate.json": {"model": "model.json", "data": "simulate/data.csv",
                          "exclude": EXCLUDE},
    }


def _configs(length: int) -> dict:
    """The model file and each command's config, named after the command."""
    model, sel, sel_bar = reference_system()
    ident = {"n_x": 3, "selection": sel.to_jsonable(), "selection_bar": sel_bar.to_jsonable(),
             "p": [0.5, 0.5]}
    return {
        "model.json": model.to_dict(),
        "simulate.json": {"model": "model.json", "sim": {"seed": 0, "length": length}},
        "identify.json": {
            "data": "simulate/data.csv", "ident": ident,
            "validation": {"split": length // 5, "exclude": EXCLUDE}},
        "identify-plain.json": {"data": "simulate/data.csv", "ident": ident},
        "identify-valdata.json": {
            "data": "simulate/data.csv", "ident": ident,
            "validation": {"data": "simulate/data.csv", "exclude": EXCLUDE}},
        "validate.json": {"model": "identify/model.json", "data": "simulate/data.csv",
                          "exclude": EXCLUDE},
        "estimate.json": {"data": "simulate/data.csv", "p": [0.5, 0.5], "words": {"max_len": 8}},
        "realize.json": {"covariances": "estimate/covariances.json", "n_x": 3,
                         "selection": "search", "selection_bar": "search"},
        "realize-explicit.json": {"covariances": "estimate/covariances.json", "n_x": 3,
                                  "selection": sel.to_jsonable(),
                                  "selection_bar": sel_bar.to_jsonable()},
    }


def _run(workdir: Path, name: str, *flags) -> dict:
    """One record: its exit code, stderr on failure, and file hashes.  The
    record "command" or "command-variant" runs the command with the config
    and output directory of its name."""
    out = workdir / name
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = slsid_main([name.partition("-")[0], "--config", str(workdir / f"{name}.json"),
                           "--out", str(out), *map(str, flags)])
    record = {"exit": code, "files": {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()}}
    if code:
        record["stderr"] = err.getvalue()
    return record


def _round(workdir: Path, configs: dict, chains, seed: int) -> dict:
    """Write the configs into workdir, simulate at seed, then run each chain
    of commands on the data until one fails; a command an earlier chain ran
    is not run again.  The records by command."""
    workdir.mkdir()
    for name, obj in configs.items():
        (workdir / name).write_text(json.dumps(obj, indent=2))
    runs = {"simulate": _run(workdir, "simulate", "--seed", seed)}
    for chain in chains:
        failed = runs["simulate"]["exit"]
        for command in chain:
            if failed:
                break
            if command not in runs:
                runs[command] = _run(workdir, command)
            failed = runs[command]["exit"]
    return runs


def records(seeds, length: int) -> dict:
    """Each seed's command records, keyed "seed=S" and then by command."""
    configs, mimo, out = _configs(length), _mimo_configs(length), {}
    with tempfile.TemporaryDirectory(prefix="compare-cli-") as tmp:
        for seed in seeds:
            workdir = Path(tmp) / f"seed-{seed}"
            runs = _round(workdir, configs, (("identify", "validate"), ("identify-plain",),
                                             ("identify-valdata",), ("estimate", "realize"),
                                             ("estimate", "realize-explicit")), seed)
            runs.update((f"mimo-{command}", record) for command, record
                        in _round(workdir / "mimo", mimo, (("validate",),), seed).items())
            out[f"seed={seed}"] = runs
    return out


def compare(mine: dict, theirs: dict) -> int:
    """Print each command whose record differs, with its differing files
    and any change of stderr; 1 if any differ, else 0."""
    n_files = n_same = 0
    for seed in sorted(set(mine) | set(theirs)):
        runs, other_runs = mine.get(seed, {}), theirs.get(seed, {})
        for command in sorted(set(runs) | set(other_runs)):
            rec = runs.get(command, {"files": {}})
            other = other_runs.get(command, {"files": {}})
            files, other_files = rec["files"], other["files"]
            n_files += len(files)
            n_same += sum(other_files.get(name) == h for name, h in files.items())
            if rec != other:
                differ = sorted(name for name in set(files) | set(other_files)
                                if files.get(name) != other_files.get(name))
                stderr_differs = rec.get("stderr") != other.get("stderr")
                print(f"{seed} {command}: exit {other.get('exit')} -> {rec.get('exit')}; "
                      f"differing files: {' '.join(differ) or 'none'}"
                      + ("; stderr differs" if stderr_differs else ""))
                if stderr_differs:
                    print(f"  against: {other.get('stderr')!r}\n  this:    {rec.get('stderr')!r}")
    print(f"{n_same} of {n_files} files identical")
    return 0 if mine == theirs else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file the records are written to")
    parser.add_argument("--against", help="records of another checkout to compare with")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate words in the estimate table
        mine = records(SEEDS, LENGTH)
    with open(args.out, "w") as fh:
        json.dump(mine, fh, indent=1, sort_keys=True)
    if not args.against:
        return 0
    with open(args.against) as fh:
        return compare(mine, json.load(fh))


if __name__ == "__main__":
    sys.exit(main())
