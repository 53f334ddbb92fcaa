"""Identification error against data length on the reference system.

    python3 tools/bench_quality.py out.json

Identifies the two-mode reference system
(`perfbench.workloads.reference_system`) with its bundled selections and
p = (0.5, 0.5) on fresh trajectories at N in {1e3, 1e4, 1e5}, seeds 0-5,
and writes every run and the median error per N as JSON (0.6 s on a
2-vCPU VM).  The error is `perfbench.workloads.MarkovError`: the largest
max-norm deviation of the identified model's input-block Markov
parameters from the generator's, over the words up to length 2.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from slsid import IdentConfig, ModelInvalidError, NumericalError, SimConfig, identify, simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import MarkovError, reference_system  # noqa: E402  (needs the repo root)


@dataclass
class ConsistencyResult:
    rows: List[dict]
    medians: Dict[int, float]


def consistency_experiment(model, Ns: Sequence[int], seeds: Sequence[int],
                           cfg: IdentConfig) -> ConsistencyResult:
    """Identification error versus data length over a seed ensemble.

    For each (N, seed) pair a fresh trajectory is simulated and identified,
    and the error is MarkovError's.  Markov parameters are invariant under
    state isomorphism, so no basis alignment is needed.  The noise block is
    left out: it inherits the sampling noise of raw output covariances
    (per-entry standard error of order E[y^2]/sqrt(N)), so the input block
    is the sharper consistency probe at moderate N.

    A run whose realization fails numerically (noise can make the estimated
    Hankel realize an unusable model at small N) is recorded with infinite
    error, failed=True and a "reason" naming the error class and its message
    (which leads with the failing stage); medians take those at face value.
    """
    error = MarkovError(model)
    rows: List[dict] = []
    for N in Ns:
        for seed in seeds:
            try:
                data = simulate(model, SimConfig(seed=seed, length=int(N)))
                err = error(identify(data, cfg)[0])
            except (NumericalError, ModelInvalidError) as exc:
                rows.append({"N": int(N), "seed": int(seed), "error": float("inf"),
                             "failed": True, "reason": f"{type(exc).__name__}: {exc}"})
                continue
            rows.append({"N": int(N), "seed": int(seed), "error": err, "failed": False})
    medians = {int(N): float(np.median([r["error"] for r in rows if r["N"] == int(N)]))
               for N in Ns}
    return ConsistencyResult(rows=rows, medians=medians)


if __name__ == "__main__":
    model, sel, sel_bar = reference_system()
    cfg = IdentConfig(n_x=3, selection=sel, selection_bar=sel_bar, p=(0.5, 0.5))
    result = consistency_experiment(model, [1000, 10000, 100000], range(6), cfg)
    Path(sys.argv[1]).write_text(json.dumps(asdict(result), indent=2, sort_keys=True) + "\n")
    for N, median in result.medians.items():
        print(f"N = {N}: median input-block Markov error {median:.4g}")
