"""Alternating parent/change pairs of the benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent DIR_A --change DIR_B --pr N \\
        --what "one line on the change" --claim search-1e5:setup_s:0.25

DIR_A and DIR_B are two checkouts (for example two ``git worktree``s, or two
``git archive`` exports) whose ``perfbench/`` is identical; each run is
``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0``
started inside one of them, so each side imports its own ``src/``.  The
pair at an even seed runs the parent first, the pair at an odd seed the
change first.

The file ``BENCH_perf_<pr>.json`` (in the form of the committed
``BENCH_perf_*.json`` files) gets, per workload, every pair's end-to-end
metrics, and beside them the raw figures those metrics divide: the median set-up wall time ``setup_wall_s``
(``setup_s`` divides it by ``loop_reference``), the mean time of the ops that
succeeded at the first try and the mean reference time (``op_mean_ref`` is
their quotient), and the inputs whose ops failed (input seed + k % cycle for
op k).  Each summary gives both sides' medians and quartiles, the number of
pairs the change wins, the per-pair change/parent ratios of the raw times and
the pairs in which the change failed a larger share of its ops, with the
inputs that failed only there; any such pair fails the claim.
``--second-set`` repeats the protocol on other seeds, and ``--traced`` adds
one traced run per side with its per-layer metrics.  Every argument is
checked before the first run: a malformed spec, a workload outside
``perfbench.workloads.NAMES`` (for ``--claim``, outside ``--workloads``) or a
claimed metric that is not bounded exits 2.  The file is rewritten after
every run, so a stopped run keeps what it ran.

Standard library only; the benchmark's own process loads numpy.
"""
from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
BOUNDED = ("setup_s", "op_mean_ref", "peak_rss_mb")
RAW = ("setup_wall_s", "mean_op_s", "mean_ref_s")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def seed_range(text: str) -> list:
    """"0-9" -> [0, ..., 9]; "3" -> [3]; "3-" raises ValueError."""
    lo, dash, hi = text.partition("-")
    return list(range(int(lo), int(hi if dash else lo) + 1))


def workload_names() -> tuple:
    """``perfbench.workloads.NAMES``, read from its source: the module imports numpy."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["NAMES"]:
            return ast.literal_eval(node.value)
    raise RuntimeError(f"no NAMES in {WORKLOADS}")


def parse_spec(parser, flag: str, text: str, form: str, workloads=()) -> list:
    """``text``'s ":"-separated fields, one per field of ``form`` (e.g.
    "WORKLOAD:SEEDS"), converted; ``parser.error`` (exit 2) for another
    form, an unparsable field, an empty seed range or a workload not in
    ``workloads``."""
    kinds, fields = form.split(":"), text.split(":")
    convert = {"WORKLOAD": str, "METRIC": str, "SEEDS": seed_range, "SEED": int, "DROP": float}
    try:
        if len(fields) != len(kinds):
            raise ValueError
        out = [convert[kind](field) for kind, field in zip(kinds, fields)]
    except ValueError:
        parser.error(f"{flag} {text!r}: want {form}")
    if [] in out:
        parser.error(f"{flag} {text!r}: no seeds in that range")
    if kinds[0] == "WORKLOAD" and out[0] not in workloads:
        parser.error(f"{flag} {text!r}: workload {out[0]!r} is not one of {', '.join(workloads)}")
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run inside ``root``: its last two stdout lines, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result}


def side_record(run: dict) -> dict:
    """The bounded metrics of one untraced run and the raw times behind them."""
    detail, result = run["detail"], run["result"]
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out.update({k: v["value"] for k, v in result["metrics"].items()})
    # op k runs input seed + k % cycle: the inputs that failed, not the ops
    out["failed_inputs"] = sorted({detail["seed"] + k % detail["cycle"]
                                   for k in detail.get("failed_ops", [])})
    skip = set(detail.get("failed_ops", [])) | set(detail.get("retried_ops", []))
    first = [t for k, t in enumerate(detail.get("op_s", [])) if k not in skip]
    refs = detail.get("ref_s", [])
    out["setup_wall_s"] = detail.get("setup_wall_s")
    out["mean_op_s"] = statistics.fmean(first) if first else None
    out["mean_ref_s"] = statistics.fmean(refs) if refs else None
    return out


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list) -> dict:
    """Per metric: both sides' spreads, pairs the change wins, median change."""
    done = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
    if len(done) < 2:
        return {}
    out = {}
    for key in BOUNDED + RAW:
        a = [p["parent"][key] for p in done]
        b = [p["change"][key] for p in done]
        if None in a or None in b:
            continue
        out[key] = {"parent": spread(a), "change": spread(b),
                    "change_lower_in": sum(y < x for x, y in zip(a, b)),
                    "median_change_frac": statistics.median(b) / statistics.median(a) - 1.0}
        if key in RAW:
            out[key]["change_over_parent"] = [y / x for x, y in zip(a, b)]
    share = {side: [p[side]["failed"] / p[side]["attempted"] for p in done] for side in SIDES}
    more = [{"seed": p["seed"], "parent": x, "change": y,
             "inputs_failing_only_in_change": sorted(set(p["change"]["failed_inputs"])
                                                     - set(p["parent"]["failed_inputs"]))}
            for p, x, y in zip(done, share["parent"], share["change"]) if y > x]
    out["failed_share"] = {"per_pair_parent": share["parent"],
                           "per_pair_change": share["change"],
                           "equal_in_pairs": sum(x == y for x, y in zip(*share.values())),
                           "same_inputs_in_pairs": sum(p["parent"]["failed_inputs"]
                                                       == p["change"]["failed_inputs"]
                                                       for p in done),
                           "change_above_parent": more}
    return out


def verdict(summary: dict, metric: str, drop: float) -> dict:
    """The claim rule: lower in >= 9/10 of pairs, median lower by >= ``drop``
    and by more than the parent's quartile spread, and in no pair a larger
    share of failed ops than the parent's."""
    s = summary.get(metric)
    if not s:
        return {}
    failed = summary["failed_share"]
    pairs = len(failed["per_pair_parent"])
    gap = s["parent"]["median"] - s["change"]["median"]
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    return {"change_lower_in": s["change_lower_in"], "pairs": pairs,
            "median_change_frac": s["median_change_frac"],
            "median_gap": gap, "parent_quartile_spread": iqr,
            "more_failures": failed["change_above_parent"],
            "met": (10 * s["change_lower_in"] >= 9 * pairs
                    and -s["median_change_frac"] >= drop and gap > iqr
                    and not failed["change_above_parent"])}


def traced_record(run: dict) -> dict:
    """Per-layer metrics of a traced run; busy and self times per op, in ms."""
    metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
    ops = metrics.get("bench.op.calls") or 1
    out = {}
    for key, value in metrics.items():
        stem, _, last = key.rpartition(".")
        if last in ("busy_s", "self_s"):
            out[f"{stem}.{last[:-2]}_ms_per_op"] = 1e3 * value / ops
        else:
            out[key] = value
    return {"correct": run["result"]["correct"], "ops": ops, "metrics": out}


def main(argv=None) -> int:
    names = workload_names()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="names the file BENCH_perf_<pr>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--parent-commit", default="", help="recorded as parent_commit")
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=["search-1e5", "cli-roundtrip"])
    parser.add_argument("--seeds", default="0-9", help="seed range of the pairs, e.g. 0-9")
    parser.add_argument("--second-set", default="",
                        help="WORKLOAD:SEEDS, the claim again on seeds not used while "
                             "the change was written, e.g. search-1e5:20-29")
    parser.add_argument("--traced", default="", help="WORKLOAD:SEED, one traced run per side")
    parser.add_argument("--claim", default="",
                        help="WORKLOAD:METRIC:DROP, e.g. search-1e5:setup_s:0.25")
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    # every spec is checked here, so a typo ends the run before its first pair
    [seeds] = parse_spec(parser, "--seeds", args.seeds, "SEEDS")
    claim = second = trace_at = None
    if args.claim:
        claim = parse_spec(parser, "--claim", args.claim, "WORKLOAD:METRIC:DROP", args.workloads)
        if claim[1] not in BOUNDED:
            parser.error(f"--claim {args.claim!r}: metric {claim[1]!r} is not one of "
                         f"{', '.join(BOUNDED)}")
    if args.second_set:
        second = parse_spec(parser, "--second-set", args.second_set, "WORKLOAD:SEEDS", names)
    if args.traced:
        trace_at = parse_spec(parser, "--traced", args.traced, "WORKLOAD:SEED", names)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_perf_{args.pr}.json"
    doc = {"what": args.what,
           "command": f"python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {args.seconds:g} --trace 0",
           "protocol": "parent first at even seeds, change first at odd seeds; each side "
                       "runs from its own checkout; perfbench/ is the same on both sides.",
           "parent_commit": args.parent_commit}
    if claim:
        doc["claim"] = {"workload": claim[0], "metric": claim[1],
                        "rule": f"lower in >= 9 of 10 pairs, median lower by >= "
                                f"{claim[2]:.0%} and by more than the parent's "
                                f"quartile spread"}

    def save():
        path.write_text(json.dumps(doc, indent=2) + "\n")

    def run_pairs(workload, seeds, entry):
        pairs = entry.setdefault("pairs", [])
        for seed in seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.perf_counter()
                run = run_once(roots[side], workload, seed, args.seconds, False)
                pair[side] = side_record(run)
                doc["machine"] = run["detail"]["machine"]
                print(f"{workload} seed {seed} {side}: {time.perf_counter() - t0:.0f} s "
                      + json.dumps({k: pair[side].get(k) for k in BOUNDED}), file=sys.stderr)
            pairs.append(pair)
            entry["summary"] = summarise(pairs)
            if claim and claim[0] == workload:
                entry["claim_verdict"] = verdict(entry["summary"], claim[1], claim[2])
            save()

    doc["workloads"] = {workload: {} for workload in args.workloads}
    for workload in args.workloads:
        run_pairs(workload, seeds, doc["workloads"][workload])
    if second:
        workload, second_seeds = second
        doc[f"{workload}_second_set"] = {"seeds": args.second_set.partition(":")[2]}
        run_pairs(workload, second_seeds, doc[f"{workload}_second_set"])
    if trace_at:
        workload, seed = trace_at
        traced = doc.setdefault(f"traced_{workload}_seed{seed}", {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                       f"--seconds {args.seconds:g} --trace 1",
            "note": "busy/self times are per op, in ms; counts are totals over the run. "
                    "The parent ran first, the change right after it."})
        for side in SIDES:
            traced[side] = traced_record(run_once(roots[side], workload, seed,
                                                  args.seconds, True))
            save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
