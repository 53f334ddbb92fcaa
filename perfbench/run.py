"""slsid benchmark: one closed-loop caller, in-process, single-threaded BLAS.

    python3 perfbench/run.py --workload search-1e5 --seed 0 --seconds 15 --trace 0

An untraced run alternates set-up and timed ops three times.  Each time it
sets the workload up afresh (again and again until half a second has passed),
then times whole cycles of ops for a third of ``--seconds``.  Every op's
output is checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: ``--trace 0``
reports the end-to-end metrics listed in BENCHMARK.json; ``--trace 1`` sets
up once, runs whole cycles of ops for ``--seconds``, repeats them under the
span tracer and reports the per-layer metrics.  The line before it holds
the details (per-op times, tail percentile, quality figures, machine
facts); the same details and, when traced, the spans are written under
``perfbench/results/``.

Exit codes: 0 on success, 1 when an output check failed, 2 when the slsid
sources are not next to this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

# an untraced run alternates set-up and timed ops this many times
BURSTS = {"full": 3, "smoke": 1}
# before each burst, set up again until this many seconds have passed, so a
# set-up that takes a fraction of a second still gets a median of many
SETUP_MIN_S = {"full": 0.5, "smoke": 0.0}

# reference work around each op or set-up, as a share of its time: one
# reference run varies by up to 2x with the host's load, so a run needs many
REF_SHARE = 0.15

# setup_s is reported in seconds of a host on which loop_reference() takes
# this long: about its time on the build host (2-vCPU Xeon VM at 2.0 GHz)
# when nothing else loads it.  Its raw median is in the detail line.
LOOP_REFERENCE_S = 0.1

E2E_UNITS = {"setup_s": "s", "op_mean_ref": "ref", "peak_rss_mb": "MB"}


def bootstrap() -> None:
    """Import slsid from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "slsid" / "__init__.py").is_file():
        print(f"error: no slsid sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import slsid

    if Path(slsid.__file__).resolve().parent != (src / "slsid").resolve():
        print(f"error: slsid imported from {slsid.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                llc = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": THREADS,
        "llc": llc,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def run_ops(wl, indices, tracer=None, refs=None, last_op_s=0.0):
    """Run ops ``indices`` in order; time each op, then check it untimed.

    With a ``refs`` list, the workload's reference work runs before each op,
    again and again for REF_SHARE of the previous op's time (``last_op_s``
    for the first), and the time of each run is appended there.
    """
    from tracing import ROOT_SPAN

    times, records = [], []
    for k in indices:
        if refs is not None:
            spent = [timed(wl.reference)]
            while sum(spent) < REF_SHARE * (times[-1] if times else last_op_s):
                spent.append(timed(wl.reference))
            refs += spent
        if tracer is not None:
            tracer.op = k
            root = tracer.open(ROOT_SPAN)
        t0 = time.perf_counter()
        raw = wl.op(k)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.op = None
        times.append(dt)
        records.append(wl.check(k, raw))
    return times, records


def run_cycles(wl, start: int, seconds: float, refs: list):
    """Whole cycles of ops from op ``start`` on, until ``seconds`` have passed.

    Stopping only at a cycle boundary keeps every input's share of the timed
    ops fixed, whatever the speed of the host or of the code under test.
    """
    times, records = [], []
    t0 = time.perf_counter()
    while True:
        k = start + len(times)
        t, r = run_ops(wl, range(k, k + wl.cycle), refs=refs,
                       last_op_s=times[-1] if times else 0.0)
        times += t
        records += r
        if time.perf_counter() - t0 >= seconds:
            return times, records


def set_up(wl, tracer=None) -> float:
    """Set the workload up afresh; returns the wall time it took."""
    wl.close()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    try:
        wl.setup()
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    wl.warmup()
    return time.perf_counter() - t0


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def set_up_repeatedly(wl, min_s: float):
    """Set up again until ``min_s`` have passed.

    Returns each set-up's wall time, and its time in reference units: over
    the mean time of ``loop_reference``, run right before and right after
    it for REF_SHARE of its time on each side (once at least).
    Set-up simulates or writes files in per-sample Python loops, which slow
    with the host as that reference does.
    """
    from workloads import loop_reference

    def sample(span_s):
        refs = [timed(loop_reference)]
        while sum(refs) < REF_SHARE * span_s:
            refs.append(timed(loop_reference))
        return refs

    walls, units = [], []
    before = sample(0.0)
    while not walls or sum(walls) < min_s:
        walls.append(set_up(wl))
        after = sample(walls[-1])
        units.append(walls[-1] / statistics.fmean(before + after))
        before = after
    return walls, units


def check_determinism(wl, records) -> None:
    """Equal inputs must give byte-identical outputs within a run."""
    from workloads import CheckError

    first = {}
    for r in records:
        if first.setdefault(r.key, r.digest) != r.digest:
            raise CheckError(f"op key {r.key}: output differs from its first run")
    if len(records) == len(first):  # nothing repeated: replay op 0
        again = wl.check(0, wl.op(0))
        if again.digest != records[0].digest:
            raise CheckError("replay of op 0 gave a different output")


def layer_metrics(tracer, records, cycle: int, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from spans and op records."""
    from workloads import quality

    s = tracer.summary()

    def get(name):
        return s.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0,
                            "failed_busy_s": 0.0, "counters": {}})

    def rate(name, counter, scale=1.0):
        agg = get(name)
        return agg["counters"].get(counter, 0.0) / scale / agg["busy_s"] if agg["busy_s"] else 0.0

    wall = get("bench.op")["busy_s"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("simulate.simulate", "covariance.empirical_covariances",
                 "identify.identify", "identify.resolve_selections", "identify.predict",
                 "identify.validate_model", "realize.covariance_realization",
                 "realize.associated_slss", "realize.ho_kalman", "realize.lambda_ydyd",
                 "realize.input_state_second_moment", "algebra.build_hankel", "bench.op"):
        agg = get(name)
        put(f"{name}.calls", agg["calls"], "count")
        put(f"{name}.busy_s", agg["busy_s"], "s")
        put(f"{name}.self_s", agg["self_s"], "s")
    # layers that only one of the two workloads reaches: shares of traced op
    # time, so the other workload reads 0 without posing as a measured time
    for name in ("simulate.csv_write", "simulate.csv_read", "realize.iter_full_rank_selections",
                 "cli.simulate", "cli.identify", "cli.validate"):
        agg = get(name)
        put(f"{name}.calls", agg["calls"], "count")
        put(f"{name}.busy_frac", agg["busy_s"] / wall if wall else 0.0, "frac")
    put("simulate.simulate.steps_per_s", rate("simulate.simulate", "steps"), "1/s")
    put("simulate.csv_write.mb_per_s", rate("simulate.csv_write", "bytes", 1e6), "MB/s")
    put("simulate.csv_read.mb_per_s", rate("simulate.csv_read", "bytes", 1e6), "MB/s")
    emp = get("covariance.empirical_covariances")
    put("covariance.empirical_covariances.words",
        emp["counters"].get("words", 0.0) / emp["calls"] if emp["calls"] else 0.0, "count")
    put("covariance.empirical_covariances.word_samples_per_s",
        rate("covariance.empirical_covariances", "word_samples"), "1/s")
    put("identify.predict.samples_per_s", rate("identify.predict", "samples"), "1/s")
    attempts = sum(r.search_attempts for r in records)
    searched = sum(1 for r in records if r.search_attempts)
    put("identify.search_attempts", attempts / searched if searched else 0.0, "count")
    put("identify.search_useful_frac", searched / attempts if attempts else 0.0, "frac")
    for name in ("realize.covariance_realization", "realize.associated_slss"):
        put(f"{name}.failed", get(name)["failed"], "count")
    slss = get("realize.associated_slss")
    put("realize.associated_slss.wasted_frac",
        slss["failed_busy_s"] / slss["busy_s"] if slss["busy_s"] else 0.0, "frac")
    put("realize.gain_iterations", sum(r.kq_iterations for r in records), "count")
    put("realize.iter_full_rank_selections.yields",
        get("realize.iter_full_rank_selections")["counters"].get("yields", 0.0), "count")
    put("bench.trace_overhead_frac", overhead, "frac")
    units = {"fail_frac": "frac", "bfr_median": "%", "markov_err_median": "abs"}
    for key, value in quality(records[:cycle]).items():
        put(f"identify.{key}", value, units[key])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full"):
    """Run one workload; returns (last-line object, details, tracer or None)."""
    import workloads
    from tracing import Tracer

    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    wl = workloads.make(name, seed, size, workdir)
    tracer = Tracer() if trace else None
    setup_times, setup_units, times, records, refs = [], [], [], [], []
    correct, error, overhead = True, None, None
    try:
        try:
            if trace:
                # one set-up with the tracer on, so set-up's share of the
                # layers shows; the ops run untraced here and traced below
                setup_times.append(set_up(wl, tracer))
                if tracer.missing:
                    raise workloads.CheckError(
                        f"trace targets not found: {', '.join(tracer.missing)}")
                times, records = run_cycles(wl, 0, seconds, refs)
            else:
                # set-up and timed ops alternate, each burst getting an equal
                # share of the run, so the timed ops are spread over the
                # whole run rather than one stretch of the host's load
                bursts = BURSTS[size]
                for _ in range(bursts):
                    walls, units = set_up_repeatedly(wl, SETUP_MIN_S[size])
                    setup_times += walls
                    setup_units += units
                    t, r = run_cycles(wl, len(times), seconds / bursts, refs)
                    times += t
                    records += r
            check_determinism(wl, records)
            quality = workloads.quality(records[:wl.cycle])
            if not any(r.first_try for r in records):
                raise workloads.CheckError("no op succeeded at its first search attempt")
            if tracer is not None:
                tracer.install()
                try:
                    traced_times, traced = run_ops(wl, range(len(times)), tracer=tracer)
                finally:
                    tracer.uninstall()
                if [r.digest for r in traced] != [r.digest for r in records]:
                    raise workloads.CheckError("traced ops gave different outputs")
                overhead = sum(traced_times) / sum(times) - 1.0
        except workloads.CheckError as exc:
            correct, error = False, str(exc)
    finally:
        wl.close()

    ok_times = [t for t, r in zip(times, records) if not r.failed]
    detail = {"workload": name, "seed": seed, "size": size, "seconds": seconds,
              "trace": trace, "machine": machine_facts(), "error": error,
              "setup_s_reps": setup_times, "ops": len(times), "cycle": wl.cycle,
              "op_s": times, "ref_s": refs,
              "failed_ops": [k for k, r in enumerate(records) if r.failed],
              "retried_ops": [k for k, r in enumerate(records) if r.search_attempts > 1]}
    result = {"correct": correct, "attempted": max(len(times), 1),
              "failed": len(times) - len(ok_times), "metrics": {}}
    if not correct:
        return result, detail, tracer
    # Timings of typical ops cover those that succeeded at the first attempt:
    # which inputs fail or need a second search is a property of the seed,
    # and mixing them in would measure the seed rather than the code.
    first_times = [t for t, r in zip(times, records) if r.first_try]
    detail.update({"op_p50_s": statistics.median(first_times),
                   "op_tail_s": tail(first_times),
                   "ops_per_s": len(ok_times) / sum(ok_times),
                   "quality": quality})
    if trace:
        result["metrics"] = layer_metrics(tracer, records, wl.cycle, overhead)
        detail["ops_self_s"] = sorted(
            ((n, a["self_s"]) for n, a in tracer.summary(ops_only=True).items()),
            key=lambda kv: -kv[1])
    else:
        detail["setup_wall_s"] = statistics.median(setup_times)
        values = {"setup_s": statistics.median(setup_units) * LOOP_REFERENCE_S,
                  # mean over mean: a phase of the host that covers part
                  # of the run weighs on both sides alike
                  "op_mean_ref": statistics.fmean(first_times) / statistics.fmean(refs),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return result, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every trajectory seed (0 = the documented seeds)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    bootstrap()
    sys.path.insert(0, str(HERE))

    result, detail, tracer = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), args.size)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.jsonl")
    (results / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
