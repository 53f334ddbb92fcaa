"""The benchmark workloads and their output checks.

Every workload runs the two-mode reference system of the test suite
(n_x = 3, one input, one output, p = (0.5, 0.5)) through slsid's public API
or its CLI.  A workload has a ``setup`` that builds its inputs from the seed
offset, an ``op`` that is the timed unit of work, and a ``check`` that
verifies one op's output outside the timed region.  Op i uses input
i % cycle, so a run of whole cycles times the same inputs in the same
proportions however fast the host or the code is.  Library calls go through
module attributes (``slsid.identify(...)``), so a tracer that patches those
attributes sees them.

See README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

import slsid
import slsid.cli  # noqa: F401  (the CLI workload calls its main)
from slsid.errors import ModelInvalidError, NumericalError, SlsidError

VAL_SEED_OFFSET = 7000
EXCLUDE = 6


class CheckError(Exception):
    """An op's output violated a benchmark check; the run is aborted."""


def reference_system():
    """The two-mode reference model and its bundled selections."""
    A1 = np.array([[0.1039, 0.0255, 0.5598],
                   [0.4338, 0.0067, 0.0078],
                   [0.3435, 0.0412, 0.0776]])
    A2 = np.array([[0.1834, 0.2456, 0.0511],
                   [0.0572, 0.2445, 0.0642],
                   [0.1395, 0.6413, 0.5598]])
    B1 = np.array([[1.6143], [5.9383], [7.3671]])
    B2 = np.array([[6.0624], [4.9800], [3.1372]])
    K1 = np.array([[0.4942], [0.2827], [0.8098]])
    K2 = np.array([[0.6215], [0.1561], [0.7780]])
    C = np.array([[0.1144, 0.7623, 0.0020]])
    model = slsid.InnovationModel.from_parts(
        (A1, A2), (B1, B2), (K1, K2), C, np.array([[1.0]]), np.array([0.5, 0.5]),
        np.array([[1.0 / 3.0]]), (np.array([[1.125]]), np.array([[1.125]])))
    W = slsid.Word.parse
    alpha = ((W("11"), 1), (W("1"), 1), (slsid.EMPTY_WORD, 1))
    beta = ((2, slsid.EMPTY_WORD, 1), (1, W("2"), 1), (1, W("1"), 1))
    sel = slsid.Selection(alpha, beta, n_modes=2, n_y=1, n_cols=2)
    sel_bar = slsid.Selection(alpha, beta, n_modes=2, n_y=1, n_cols=1)
    return model, sel, sel_bar


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class MarkovError:
    """Max-norm input-block Markov-parameter error against the generator.

    Markov parameters are invariant under a change of state basis, so the
    identified model needs no alignment.  Words up to length 2.
    """

    def __init__(self, model):
        self.n_u = model.n_u
        self.words = list(slsid.enumerate_words(model.n_modes, 2))
        ref = slsid.associated_dlss(model)
        self.ref = {w: slsid.markov_parameter(ref, w)[:, :self.n_u] for w in self.words}

    def __call__(self, m_hat) -> float:
        d_hat = slsid.associated_dlss(m_hat)
        return max(float(np.max(np.abs(
            slsid.markov_parameter(d_hat, w)[:, :self.n_u] - self.ref[w])))
            for w in self.words)


@dataclass
class OpRecord:
    """What the checks kept of one op."""

    key: int            # ops with equal keys have equal inputs
    digest: str
    failed: bool        # identification stopped at a typed numerical error
    bfr: float          # 0 for a failed op
    markov_err: Optional[float] = None
    kq_iterations: int = 0
    search_attempts: int = 0

    @property
    def first_try(self) -> bool:
        """Succeeded without a repeated selection search."""
        return not self.failed and self.search_attempts <= 1


def _check_model(m, bfr: float) -> None:
    try:
        m.validate()
    except ModelInvalidError as exc:
        raise CheckError(f"identified model fails validate(): {exc}") from exc
    if m.n_x != 3:
        raise CheckError(f"identified n_x = {m.n_x}, expected 3")
    if not (math.isfinite(bfr) and 0.0 <= bfr <= 100.0):
        raise CheckError(f"BFR {bfr!r} outside [0, 100]")


@dataclass
class LibraryOp:
    """Raw output of one identify + validate_model op."""

    model: object = None
    diag: dict = field(default_factory=dict)
    bfr: float = 0.0
    whiteness: dict = field(default_factory=dict)
    error: Optional[str] = None


def identify_and_validate(data, val, cfg) -> LibraryOp:
    """identify, then validate_model(exclude=6) on the identified model.

    A typed failure of identify is the op's result.  Validation of a model
    that identify returned must succeed: its failure is a defect in that
    model and stops the run.
    """
    try:
        m, diag = slsid.identify(data, cfg)
    except (NumericalError, ModelInvalidError) as exc:
        return LibraryOp(error=f"{type(exc).__name__}: {exc}")
    try:
        rep = slsid.validate_model(m, val, exclude=EXCLUDE)
    except SlsidError as exc:
        raise CheckError(f"validate_model rejected an identified model: "
                         f"{type(exc).__name__}: {exc}") from exc
    return LibraryOp(model=m, diag=diag, bfr=rep.bfr, whiteness=rep.whiteness)


# Reference work: fixed code of the benchmark's own, timed before every op.
# The host is a shared VM whose speed drifts by up to 1.5x in phases of
# seconds to minutes; an op's time over the mean reference time of the same
# run cancels most of that drift.  Each kind of reference slows with the
# host as the layers it imitates do, so each workload uses the kind that
# matches the layer that dominates its ops.
_REF_A = (np.array([[0.5, 0.1, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, 0.4]]), 0.3 * np.eye(3))


def loop_reference(steps: int = 40_000) -> float:
    """A per-sample Python loop of 3x3 products and float text round trips,
    like the simulator, the predictor and the CSV code."""
    x = np.zeros(3)
    rows = []
    for t in range(steps):
        x = _REF_A[t & 1] @ x + 1.0
        rows.append(repr(float(x[0])))
    return sum(float(r) for r in rows)


def array_reference(n: int = 200_000, lags: int = 16) -> float:
    """Whole-array products and sums over lagged copies, like the
    covariance estimator."""
    a = np.random.default_rng(0).standard_normal((n, 3))
    return sum(float((a[k:] * a[:n - k]).sum()) for k in range(lags))


def noise_free(ds):
    """Validation dataset driven by and scored on the noise-free output."""
    return slsid.Dataset(y=ds.y_clean, u=ds.u, q=ds.q)


class Workload:
    name = ""
    cycle = 1           # distinct inputs; op i uses input i % cycle
    reference = staticmethod(loop_reference)

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.model, self.sel, self.sel_bar = reference_system()
        self.markov = MarkovError(self.model)

    def setup(self) -> None:
        """Build the inputs; timed as set-up."""

    def warmup(self) -> None:
        """Untraced part of set-up that lets lazy initialisation finish."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> OpRecord:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup created."""


class SearchWorkload(Workload):
    """identify with selection search over all 511 words up to length 8.

    Set-up simulates estimation trajectory k at seed + k for k < cycle, and
    a noise-free validation trajectory at seed + 7000.
    """

    name = "search-1e5"
    cycle = 6
    reference = staticmethod(array_reference)
    lengths = {"full": 100_000, "smoke": 30_000}
    val_length = 2000

    def setup(self):
        n = self.lengths[self.size]
        self.est = [slsid.simulate(self.model, slsid.SimConfig(seed=self.seed + k, length=n))
                    for k in range(self.cycle)]
        val = slsid.simulate(self.model, slsid.SimConfig(
            seed=self.seed + VAL_SEED_OFFSET, length=self.val_length))
        self.val = noise_free(val)
        self.cfg = slsid.IdentConfig(n_x=3, selection="search", selection_bar="search",
                                     p=(0.5, 0.5))

    def op(self, i):
        return identify_and_validate(self.est[i % self.cycle], self.val, self.cfg)

    def check(self, i, raw):
        key = i % self.cycle
        if raw.error is not None:
            return OpRecord(key=key, digest=raw.error, failed=True, bfr=0.0)
        _check_model(raw.model, raw.bfr)
        attempts = int(raw.diag.get("search_attempts", 0))
        if attempts < 1:
            raise CheckError("search-mode identify reported no search attempt")
        return OpRecord(
            key=key, failed=False, bfr=raw.bfr,
            digest=digest([raw.model.to_dict(), repr(raw.bfr),
                           {str(k): repr(v) for k, v in raw.whiteness.items()}]),
            markov_err=self.markov(raw.model),
            kq_iterations=int(raw.diag.get("kq_iterations", 0)),
            search_attempts=attempts)


@dataclass
class CliOp:
    """Exit codes of the op's CLI commands and the identify step's stderr."""

    codes: List[int]
    stderr: str = ""


class CliWorkload(Workload):
    """slsid.cli.main in-process: simulate -> identify -> validate, N = 5e4."""

    name = "cli-roundtrip"
    cycle = 4

    def __init__(self, seed, size, workdir: Path):
        super().__init__(seed, size)
        self.workdir = Path(workdir)
        self.dir = None
        self.n = 50_000 if size == "full" else 10_000

    def setup(self):
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))

        def write(name, obj):
            (self.dir / name).write_text(json.dumps(obj, indent=2))

        write("model.json", self.model.to_dict())
        write("sim.json", {"model": "model.json", "sim": {"seed": 0, "length": self.n}})
        write("identify.json", {
            "data": "op/sim/data.csv",
            "ident": {"n_x": 3, "selection": self.sel.to_jsonable(),
                      "selection_bar": self.sel_bar.to_jsonable(), "p": [0.5, 0.5]},
            "validation": {"split": self.n // 5, "exclude": EXCLUDE}})
        write("validate.json", {"model": "op/ident/model.json",
                                "data": "op/sim/data.csv", "exclude": EXCLUDE})
        write("warmup_sim.json", {"model": "model.json", "sim": {"seed": 0, "length": 2000}})
        write("warmup_validate.json", {"model": "model.json", "data": "warmup/sim/data.csv",
                                       "exclude": EXCLUDE})

    def warmup(self):
        # simulate and score the generator through the CLI: the same parsing,
        # CSV and predictor paths as an op, on a size that never fails
        d = self.dir
        codes = [self._main("simulate", "--config", d / "warmup_sim.json",
                            "--out", d / "warmup" / "sim", "--seed", self.seed)[0],
                 self._main("validate", "--config", d / "warmup_validate.json",
                            "--out", d / "warmup" / "val")[0]]
        if codes != [0, 0]:
            raise CheckError(f"cli warm-up exit codes {codes}")

    def _main(self, *argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = slsid.cli.main([str(a) for a in argv])
        return code, err.getvalue()

    def op(self, i):
        d = self.dir
        out = d / "op"
        shutil.rmtree(out, ignore_errors=True)
        code, _ = self._main("simulate", "--config", d / "sim.json", "--out", out / "sim",
                             "--seed", self.seed + i % self.cycle)
        if code != 0:
            return CliOp([code])
        code, err = self._main("identify", "--config", d / "identify.json",
                               "--out", out / "ident")
        if code != 0:
            return CliOp([0, code], err)
        code, _ = self._main("validate", "--config", d / "validate.json", "--out", out / "val")
        return CliOp([0, 0, code])

    def check(self, i, raw):
        key = i % self.cycle
        # Only the identify command may stop at a typed failure, and only at
        # a numerical one (exit 5): its validation split can also exit 2, for
        # a defect in the model identify produced, and that must not pass as
        # a known identification failure.
        if raw.codes == [0, slsid.cli.EXIT_NUMERICAL]:
            return OpRecord(key=key, digest=f"identify: {raw.stderr.strip()}",
                            failed=True, bfr=0.0)
        if raw.codes != [0, 0, 0]:
            raise CheckError(f"cli exit codes {raw.codes}")
        out = self.dir / "op"
        files = [out / "ident" / "model.json", out / "ident" / "report.json",
                 out / "val" / "report.json"]
        blobs = [f.read_bytes() for f in files]
        model_dict = json.loads(blobs[0])
        ident_report = json.loads(blobs[1])
        val_report = json.loads(blobs[2])
        if ident_report["model_sha256"] != hashlib.sha256(json.dumps(
                model_dict, sort_keys=True, separators=(",", ":")).encode()).hexdigest():
            raise CheckError("report.json model_sha256 does not match model.json")
        m = slsid.model_from_dict(model_dict)
        _check_model(m, float(val_report["bfr"]))
        diag = ident_report["diagnostics"]
        return OpRecord(key=key, failed=False, bfr=float(val_report["bfr"]),
                        digest="/".join(hashlib.sha256(b).hexdigest() for b in blobs),
                        markov_err=self.markov(m),
                        kq_iterations=int(diag.get("kq_iterations", 0)))

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


NAMES = ("search-1e5", "cli-roundtrip")


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    if name == "search-1e5":
        return SearchWorkload(seed, size)
    if name == "cli-roundtrip":
        return CliWorkload(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def quality(records: List[OpRecord]) -> dict:
    """Deterministic quality figures over one cycle of ops.

    A cycle in which no op succeeded has no model to score; that stops the
    run rather than report a placeholder that could read as a gain.
    """
    errs = [r.markov_err for r in records if not r.failed]
    if not errs:
        raise CheckError(f"all {len(records)} identifications of a cycle failed")
    return {
        "fail_frac": sum(r.failed for r in records) / len(records),
        "bfr_median": float(np.median([r.bfr for r in records])),
        "markov_err_median": float(np.median(errs)),
    }
