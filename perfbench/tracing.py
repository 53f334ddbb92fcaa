"""Span tracer that wraps slsid's public functions from outside the package.

Each wrapped function is replaced, in every ``slsid*`` module namespace that
binds it, by a wrapper that records one span per call: name, start, end,
parent span, op id, whether the call raised, and a few work counters read
from the arguments or the result.  Nothing under ``src/`` is edited; the
originals are put back by ``uninstall``.

Spans are recorded only while ``op`` is set, so the benchmark's own output
checks (which call library helpers such as ``associated_dlss``) never show
up in the per-layer numbers.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (module, attribute, span name, counter hook).  "Class.method" attributes
# are patched on the class, which every namespace shares.
TARGETS = [
    ("slsid.simulate", "simulate", "simulate.simulate", "steps"),
    ("slsid.simulate", "Dataset.to_csv", "simulate.csv_write", "bytes_out"),
    ("slsid.simulate", "Dataset.clean_to_csv", "simulate.csv_write", "bytes_out"),
    ("slsid.simulate", "Dataset.from_csv", "simulate.csv_read", "bytes_in"),
    ("slsid.simulate", "load_series_csv", "simulate.csv_read", "bytes_in"),
    ("slsid.covariance", "empirical_covariances", "covariance.empirical_covariances", "words"),
    ("slsid.identify", "identify", "identify.identify", None),
    ("slsid.identify", "resolve_selections", "identify.resolve_selections", None),
    ("slsid.identify", "predict", "identify.predict", "samples"),
    ("slsid.identify", "validate_model", "identify.validate_model", None),
    ("slsid.realize", "covariance_realization", "realize.covariance_realization", None),
    ("slsid.realize", "associated_slss", "realize.associated_slss", None),
    ("slsid.realize", "ho_kalman", "realize.ho_kalman", None),
    ("slsid.realize", "lambda_ydyd", "realize.lambda_ydyd", None),
    ("slsid.realize", "input_state_second_moment", "realize.input_state_second_moment", None),
    ("slsid.realize", "iter_full_rank_selections", "realize.iter_full_rank_selections", "gen"),
    ("slsid.algebra", "build_hankel", "algebra.build_hankel", None),
    ("slsid.cli", "cmd_simulate", "cli.simulate", None),
    ("slsid.cli", "cmd_identify", "cli.identify", None),
    ("slsid.cli", "cmd_validate", "cli.validate", None),
]

ROOT_SPAN = "bench.op"


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _counters(hook: Optional[str], args, kwargs, result) -> Dict[str, float]:
    """Work done by one call, read from its arguments or result."""
    if hook == "steps":
        cfg = _arg(args, kwargs, 1, "cfg")
        return {"steps": cfg.burn_in + cfg.length}
    if hook == "bytes_out":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    if hook == "bytes_in":
        # from_csv is a classmethod: the wrapper sees (cls, path, ...)
        pos = 1 if args and isinstance(args[0], type) else 0
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}
    if hook == "words":
        return {"words": len(result.lambda_yu),
                "word_samples": len(result.lambda_yu) * result.metadata["n_eff"]}
    if hook == "samples":
        return {"samples": len(_arg(args, kwargs, 1, "data"))}
    return {}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.op = None
        self._stack: List[int] = []
        self._patches: list = []
        self.missing: List[str] = []

    # ------------------------------------------------------------ recording
    def open(self, name: str, counters: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[i]["name"] == name for i in self._stack)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op, "failed": False,
                           "nested": nested, "counters": dict(counters or {})})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, failed: bool = False,
              counters: Optional[dict] = None) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["failed"] = failed
        span["counters"].update(counters or {})
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _wrap(self, fn: Callable, name: str, hook: Optional[str]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx, counters=_counters(hook, args, kwargs, result))
            return result

        def traced_gen(*args, **kwargs):
            # One span per resume, so work the consumer does between two
            # yields is not charged to the generator.
            it = fn(*args, **kwargs)
            if tracer.op is None:
                yield from it
                return
            first = True
            try:
                while True:
                    idx = tracer.open(name, {"calls": 1 if first else 0})
                    first = False
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException:
                        tracer.close(idx, failed=True)
                        raise
                    tracer.close(idx, counters={"yields": 1})
                    yield item
            finally:
                it.close()

        wrapper = traced_gen if hook == "gen" else traced
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        import slsid  # noqa: F401  (loads every submodule)
        import slsid.cli  # noqa: F401

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "slsid" or n.startswith("slsid.")]
        self.missing = []
        for mod_name, attr, name, hook in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or leaf not in vars(owner):
                # renamed or removed by a later version; the caller must not
                # report the layer as 0 seconds
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if owner_name:
                cls, meth = owner, leaf
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    new = self._wrap(raw, name, hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # ------------------------------------------------------------ summaries
    def summary(self, ops_only: bool = False) -> Dict[str, dict]:
        """Per span name: calls, busy_s, self_s, failed, failed_busy_s, counters.

        busy_s sums only the outermost span of a name, so a name nested in
        itself (from_csv reading its clean channel) is not counted twice.
        self_s is a span's duration minus the time its child spans cover.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if ops_only and s["op"] == "setup":
                continue
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                             "failed": 0, "failed_busy_s": 0.0,
                                             "counters": defaultdict(float)})
            agg["calls"] += s["counters"].get("calls", 1)
            agg["self_s"] += dur - child_time[i]
            if not s["nested"]:
                agg["busy_s"] += dur
                if s["failed"]:
                    agg["failed"] += 1
                    agg["failed_busy_s"] += dur
            for k, v in s["counters"].items():
                if k != "calls":
                    agg["counters"][k] += v
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s["name"], "op": s["op"],
                                     "parent": s["parent"],
                                     "start": s["start"] - t0, "end": s["end"] - t0,
                                     "failed": s["failed"],
                                     "counters": s["counters"]}) + "\n")
