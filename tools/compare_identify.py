"""Identify the reference system over a seed grid and record every result.

    PYTHONPATH=DIR_A/src python3 tools/compare_identify.py a.json
    PYTHONPATH=DIR_B/src python3 tools/compare_identify.py b.json --against a.json

Runs `identify` (n_x = 3) on the two-mode reference system
(`perfbench.workloads.reference_system`) for seeds 0-29, N in
{1e3, 1e4, 1e5}, p in {(0.5, 0.5), "empirical"} and the selections
"search" or the system's bundled explicit ones: 360 runs, about 15 s.
Each success is recorded as the JSON of `model.to_dict()` and of the
diagnostics (sorted keys), and as the BFR `validate_model` gives the model
on a noise-free validation set (seed + 7000, 2000 samples, first 6
excluded); each failure as its error class, its text and its stage.  Two
more records hold the JSON of `exact_covariances`, so the exact path is
compared too: "exact max_len=8", the reference model's over all words up
to length 8, and "exact mimo max_len=6", `tools/compare_cli.py`'s
`mimo_system()`'s up to length 6 (D = 3, n_x = 4, 2 x 2 channels, unequal
p): 362 records.  With --against, the records that differ from
the other file's are printed, and the exit code is 1 if there are any.  No sum over samples
is a BLAS product, so the records do not depend on the BLAS thread count.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from slsid import (
    Dataset,
    IdentConfig,
    SimConfig,
    exact_covariances,
    identify,
    simulate,
    validate_model,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import reference_system  # noqa: E402  (needs the repo root)
from tools.compare_cli import mimo_system  # noqa: E402


def records() -> dict:
    model, sel, sel_bar = reference_system()
    selections = {"search": ("search", "search"), "explicit": (sel, sel_bar)}
    out = {}
    for N in (1000, 10000, 100000):
        for seed in range(30):
            data = simulate(model, SimConfig(seed=seed, length=N))
            fresh = simulate(model, SimConfig(seed=seed + 7000, length=2000))
            noise_free = Dataset(y=fresh.y_clean, u=fresh.u, q=fresh.q)
            for p in ((0.5, 0.5), "empirical"):
                for name, (s, s_bar) in selections.items():
                    key = f"N={N} seed={seed} p={p} selection={name}"
                    cfg = IdentConfig(n_x=3, selection=s, selection_bar=s_bar, p=p)
                    try:
                        m, diag = identify(data, cfg)
                    except Exception as exc:  # every failure is part of the record
                        out[key] = {"error": type(exc).__name__, "text": str(exc),
                                    "stage": getattr(exc, "stage", None)}
                        continue
                    out[key] = {"model": json.dumps(m.to_dict(), sort_keys=True),
                                "diagnostics": json.dumps(diag, sort_keys=True),
                                "bfr": validate_model(m, noise_free, exclude=6).bfr}
    exact = exact_covariances(model, 8).to_jsonable()
    out["exact max_len=8"] = {"table": json.dumps(exact, sort_keys=True)}
    exact = exact_covariances(mimo_system(), 6).to_jsonable()
    out["exact mimo max_len=6"] = {"table": json.dumps(exact, sort_keys=True)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file the records are written to")
    parser.add_argument("--against", help="records of another checkout to compare with")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate words at N = 1e3
        mine = records()
    with open(args.out, "w") as fh:
        json.dump(mine, fh, indent=1, sort_keys=True)
    if not args.against:
        return 0
    with open(args.against) as fh:
        theirs = json.load(fh)
    differ = [k for k in mine if mine[k] != theirs.get(k)]
    for key in differ:
        print(key)
        for side, rec in (("against", theirs.get(key)), ("this", mine[key])):
            print(f"  {side}: {rec if rec is None or 'error' in rec else 'success'}")
    print(f"{len(mine) - len(differ)} of {len(mine)} records identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
