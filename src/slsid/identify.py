"""End-to-end identification from a single trajectory, the innovation
predictor, the BFR fit metric, and the consistency-experiment harness.

Identification estimates the covariance table over the words demanded by the
chosen selections (or over all words up to a cap when selections are
searched) and hands it to the covariance realization pipeline; the result is
exactly a function of the covariance table.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    EMPTY_WORD,
    Selection,
    Word,
    WordIndexedMatrixTable,
    _as_word,
    enumerate_words,
    required_words,
)
from .covariance import (
    CovarianceTable,
    empirical_covariances,
    exact_covariances,
    least_squares_covariances,
)
from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
    NonConvergenceError,
    NumericalError,
    SingularHankelError,
    UndefinedBfrError,
)
from .model import (
    DeterministicModel,
    InnovationModel,
    SwitchedModel,
    markov_parameter,
    stability_margin,
)
from .realize import (
    _innovation_form,
    _joint_table,
    _JointRealization,
    _stage,
    associated_dlss,
    covariance_realization,
    ho_kalman,
    iter_full_rank_selections,
    lambda_ydyd,
    psi_uy,
)
from .simulate import Dataset, SimConfig, affine_scan, as_series, simulate

__all__ = [
    "IdentConfig",
    "ValidationReport",
    "identify",
    "predict",
    "bfr",
    "validate_model",
    "consistency_experiment",
    "ConsistencyResult",
    "resolve_selections",
    "resolve_p",
]

# full-rank candidates a selection search examines (beyond the skipped hits)
# before it gives up on finding a mean-square stable realization
SEARCH_RETRIES = 200


@dataclass
class IdentConfig:
    """Modelling choices of the identification pipeline.

    n_x is the model order and n_bar the order of the input part (default
    n_x).  selection / selection_bar may be explicit Selection objects or
    the string "search" (deterministic enumeration of full-rank candidates).
    estimator is "direct" or "ls".  p is the known mode-probability vector
    or "empirical" to use observed mode frequencies.

    The numerics are fixed, not settings: the rank threshold RANK_TOL
    (model.py), the gain solve's stopping rule FP_TOL / FP_MAX_ITER
    (realize.py) and the search's budget of 50000 candidates per table.
    """

    n_x: int
    n_bar: Optional[int] = None
    selection: Union[Selection, str] = "search"
    selection_bar: Union[Selection, str] = "search"
    estimator: str = "direct"
    p: Union[Sequence[float], str] = "empirical"

    def __post_init__(self):
        if self.n_x < 1:
            raise DimensionError(f"n_x must be >= 1, got {self.n_x}")
        if self.n_bar is not None and self.n_bar < 1:
            raise DimensionError(f"n_bar must be >= 1, got {self.n_bar}")
        if self.estimator not in ("direct", "ls"):
            raise DimensionError(f"unknown estimator {self.estimator!r}")


@dataclass
class ValidationReport:
    """Prediction-quality summary of a model on one dataset."""

    bfr: float
    whiteness: Dict[int, float]
    n_excluded: int
    n_compared: int
    runtime_seconds: float
    predictions: Optional[np.ndarray] = None

    def to_jsonable(self, include_runtime: bool = False) -> dict:
        out = {
            "bfr": self.bfr,
            "whiteness": {str(s): v for s, v in sorted(self.whiteness.items())},
            "n_excluded": self.n_excluded,
            "n_compared": self.n_compared,
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def resolve_p(spec: Union[Sequence[float], str], data: Dataset) -> np.ndarray:
    """Mode probabilities from a spec: a vector, or "empirical".

    A vector must be finite and positive and is normalized to sum 1;
    "empirical" uses the observed mode frequencies of the data.
    """
    if isinstance(spec, str):
        if spec != "empirical":
            raise InvalidProbabilityError(f"unknown p mode {spec!r}")
        D = int(data.q.max())
        counts = np.bincount(data.q, minlength=D + 1)[1:]
        if np.any(counts == 0):
            missing = [s + 1 for s in range(D) if counts[s] == 0]
            raise InvalidProbabilityError(
                f"modes {missing} never occur; cannot use empirical probabilities"
            )
        p = counts.astype(float)
        return p / p.sum()
    p = np.atleast_1d(np.asarray(spec, dtype=float))
    if p.ndim != 1 or not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise InvalidProbabilityError(f"probabilities must be positive, got {p}")
    return p / p.sum()


@functools.lru_cache(maxsize=8)
def _words_up_to(n_modes: int, max_len: int) -> Tuple[Word, ...]:
    """Every word of length <= max_len, the table a selection search needs."""
    return tuple(enumerate_words(n_modes, max_len))


def _estimate(data: Dataset, p: np.ndarray, words, cfg: IdentConfig) -> CovarianceTable:
    modes = list(range(1, p.shape[0] + 1))
    if cfg.estimator == "direct":
        return empirical_covariances(data, p, words, modes)
    ordered = sorted(sorted({*map(_as_word, words), EMPTY_WORD}), key=len)
    return least_squares_covariances(data, p, ordered, modes=modes)


def _search_vetted(table: WordIndexedMatrixTable, M_eps: np.ndarray, n: int, n_y: int,
                   n_cols: int, D: int, skip: int) -> Tuple[Selection, DeterministicModel]:
    """(skip+1)-th full-rank selection whose realization is mean-square stable,
    with that realization (feedthrough M_eps).

    Table entries absorb sqrt(p), so the realized A_s are the deterministic
    ones and the relevant operator is sum_s A_s kron A_s.  Under estimation
    noise a full-rank selection can still realize an unstable family, which
    every later stage rejects; vetting here keeps the search moving.
    """
    examined = 0
    accepted = 0
    for cand in iter_full_rank_selections(table, n, n_y, n_cols, D):
        try:
            m = ho_kalman(cand, table, M_eps)
        except SingularHankelError:
            m = None
        if m is not None and stability_margin(m.A, np.ones(D)) < 1.0:
            if accepted == skip:
                return cand, m
            accepted += 1
        examined += 1
        if examined >= SEARCH_RETRIES + skip:
            break
    raise NonConvergenceError(
        f"{examined} full-rank selection(s) examined, none usable; "
        "more data or an explicit selection is needed"
    )


class _Resolved(tuple):
    """resolve_selections' (sel, sel_bar, diag).  After a search, `joint`
    also holds steps 1-5 of the realization at those selections, which the
    search made on its way."""

    joint: Optional[_JointRealization] = None


def resolve_selections(
    cov: CovarianceTable,
    n_x: int,
    n_bar: int,
    sel: Union[Selection, str],
    sel_bar: Union[Selection, str],
    skip: int = 0,
) -> Tuple[Selection, Selection, dict]:
    """Turn "search" placeholders into concrete selections on a table.

    Explicit selections pass through untouched.  Searches run over whatever
    words the table holds; candidates needing absent words are skipped, as
    are full-rank candidates realizing mean-square unstable models (up to
    SEARCH_RETRIES of them).  skip > 0 bypasses that many accepted hits,
    yielding the next distinct selection.

    The sel_bar search runs on Psi over every word of the table; the sel
    search on the joint table of Psi beside the noise part
    Lambda^{y,y} - Lambda^{yd,yd}, built from the input part realized at
    sel_bar.  Each accepted selection's vetting realization is kept, so
    the realization steps 1-5 at the returned selections are done once.
    """
    diag: dict = {}
    if isinstance(sel, Selection) and isinstance(sel_bar, Selection):
        return _Resolved((sel, sel_bar, diag))
    D = cov.p.shape[0]
    modes = list(range(1, D + 1))
    words = list(cov.lambda_yu.index)
    psi = psi_uy(cov, words)
    psi_eps = psi[EMPTY_WORD]
    if sel_bar == "search":
        sel_bar, m_psi = _search_vetted(psi, psi_eps, n_bar, cov.n_y, cov.n_u, D, skip)
        diag["selection_bar_found"] = sel_bar.to_jsonable()
    else:
        with _stage("step 2 (input-part realization)"):
            m_psi = ho_kalman(sel_bar, psi, psi_eps)
    in_yy = cov.lambda_yy.index
    nonempty = [w for w in words if w and w in in_yy]
    with _stage("steps 3-4 (noise-part covariances)"):
        lam_dd, t_dd = lambda_ydyd(m_psi, cov.q_u, cov.p, nonempty, modes)
        M = _joint_table(cov, psi, lam_dd, nonempty)
    M_eps = np.hstack([psi_eps, np.eye(cov.n_y)])
    if sel == "search":
        sel, m_full = _search_vetted(M, M_eps, n_x, cov.n_y, cov.n_u + cov.n_y, D, skip)
        diag["selection_found"] = sel.to_jsonable()
    else:
        with _stage("step 5 (joint realization)"):
            m_full = ho_kalman(sel, M, M_eps)
    resolved = _Resolved((sel, sel_bar, diag))
    resolved.joint = _JointRealization(sel, sel_bar, m_psi, t_dd, m_full)
    return resolved


def _resolve_and_realize(cov: CovarianceTable, n_x: int, n_bar: int,
                         sel: Union[Selection, str], sel_bar: Union[Selection, str],
                         skip: int = 0) -> Tuple[InnovationModel, dict]:
    """resolve_selections, then the realization at the selections it returns.

    After a search only step 6 is left, since the search made steps 1-5 on
    its way; explicit selections run the whole covariance_realization.
    Returns (model, diagnostics), the search's entries included.
    """
    resolved = resolve_selections(cov, n_x, n_bar, sel, sel_bar, skip=skip)
    sel, sel_bar, search_diag = resolved
    if resolved.joint is None:
        model, diag = covariance_realization(cov, sel, sel_bar)
    else:
        cov.validate()
        model, diag = _innovation_form(cov, resolved.joint)
    return model, {**search_diag, **diag}


def identify(data: Dataset, cfg: IdentConfig) -> Tuple[InnovationModel, dict]:
    """Estimate covariances from one trajectory and realize an innovation model.

    Returns (model, diagnostics).  Explicit selections are checked against
    p and the data first (mode count, n_y and column count; DimensionError
    names the selection), and only the words they require are estimated;
    with "search" the table covers all words up to 2*max(n_x, n_bar) + 2
    and selections are found on the estimated Markov values before
    realization.  A search retries with the next vetted
    selections when realization fails; when a later attempt succeeds,
    diagnostics["rejected_attempts"] lists each failed attempt as
    "<ErrorClass>: <message>", the message leading with its stage.
    """
    if len(data) < 3:
        raise InsufficientDataError(f"dataset of length {len(data)} is too short")
    p = resolve_p(cfg.p, data)
    D = p.shape[0]
    if int(data.q.max()) > D:
        raise DimensionError(
            f"data uses mode {int(data.q.max())} but p has {D} entries"
        )
    # explicit selections must fit p and the data before anything is estimated
    n_u_y = data.n_u + data.n_y
    for name, sel, n_cols, cols in (("selection", cfg.selection, n_u_y, "n_u + n_y"),
                                    ("selection_bar", cfg.selection_bar, data.n_u, "n_u")):
        if not isinstance(sel, Selection):
            continue
        if sel.n_modes != D:
            raise DimensionError(f"{name} has {sel.n_modes} modes but p has {D} entries")
        if sel.n_y != data.n_y:
            raise DimensionError(f"{name} has n_y = {sel.n_y} but the data has n_y = {data.n_y}")
        if sel.n_cols != n_cols:
            raise DimensionError(
                f"{name} has {sel.n_cols} columns but needs {cols} = {n_cols}")
    n_bar = cfg.n_bar if cfg.n_bar is not None else cfg.n_x
    diagnostics: dict = {"p": p.tolist(), "estimator": cfg.estimator}

    searching = cfg.selection == "search" or cfg.selection_bar == "search"
    if searching:
        words = _words_up_to(D, 2 * max(cfg.n_x, n_bar) + 2)
    else:
        words = (set(required_words(cfg.selection))
                 | set(required_words(cfg.selection_bar)) | {EMPTY_WORD})
    cov = _estimate(data, p, words, cfg)

    # a vetted selection can still trip the innovation-gain solve
    # (indefinite per-mode moments); bump the skip and re-resolve a few times,
    # keeping why each rejected attempt failed
    attempts = 5 if searching else 1
    rejected: List[str] = []
    for attempt in range(attempts):
        try:
            model, real_diag = _resolve_and_realize(cov, cfg.n_x, n_bar, cfg.selection,
                                                    cfg.selection_bar, skip=attempt)
        except (NumericalError, ModelInvalidError) as exc:
            if attempt == attempts - 1:
                raise
            rejected.append(f"{type(exc).__name__}: {exc}")
            continue
        break
    diagnostics.update(real_diag)
    if searching:
        diagnostics["search_attempts"] = attempt + 1
    if rejected:
        diagnostics["rejected_attempts"] = rejected
    diagnostics["N"] = len(data)
    diagnostics["N_0"] = cov.metadata.get("N_0")
    return model, diagnostics


def predict(m: SwitchedModel, data: Dataset) -> np.ndarray:
    """One-step-ahead predictions of an innovation-form model on a dataset.

    Runs x(t+1) = (A_q - K_q C) x(t) + (B_q - K_q D) u(t) + K_q y(t) from
    x(0) = 0, as a chunked scan (`simulate.affine_scan`), and returns
    yhat(t) = C x(t) + D u(t) aligned with the data.
    """
    if m.n_n != m.n_y or np.max(np.abs(m.F - np.eye(m.n_y))) != 0.0:
        raise ModelInvalidError("predictor needs an innovation-form model (F = I)")
    if data.n_u != m.n_u or data.n_y != m.n_y:
        raise DimensionError(
            f"data dimensions (n_u={data.n_u}, n_y={data.n_y}) do not match "
            f"model (n_u={m.n_u}, n_y={m.n_y})"
        )
    if int(data.q.max()) > m.n_modes:
        raise DimensionError(
            f"data uses mode {int(data.q.max())} but the model has {m.n_modes}"
        )
    A, B, K = np.stack(m.A), np.stack(m.B), np.stack(m.K)
    return affine_scan(data.q, A - K @ m.C, m.C,
                       [(data.u, B - K @ m.Dmat, m.Dmat), (data.y, K, None)])


def bfr(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Best fit rate: max(1 - ||y - yhat|| / ||y - mean(y)||, 0) * 100."""
    y_true, y_pred = as_series(y_true), as_series(y_pred)
    if y_true.shape != y_pred.shape:
        raise DimensionError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if y_true.shape[0] < 2:
        raise DimensionError("need at least two samples")
    centered = y_true - y_true.mean(axis=0)
    denom = float(np.sum(centered ** 2))
    if denom == 0.0:
        raise UndefinedBfrError("reference output is constant; BFR undefined")
    ratio = np.sqrt(float(np.sum((y_true - y_pred) ** 2)) / denom)
    return max(1.0 - ratio, 0.0) * 100.0


def _whiteness_scores(m: SwitchedModel, data: Dataset, residuals: np.ndarray) -> Dict[int, float]:
    from .covariance import _z_block

    scores = {}
    n0 = 2
    if len(data) <= n0:
        return scores
    for s in range(1, m.n_modes + 1):
        z = _z_block(data.y, data.q, m.p, Word((s,)), n0)
        scores[s] = float(np.linalg.norm(residuals[n0:].T @ z / (len(data) - n0)))
    return scores


def validate_model(m: SwitchedModel, data: Dataset,
                   y_ref: Optional[np.ndarray] = None,
                   exclude: int = 0,
                   keep_predictions: bool = False) -> ValidationReport:
    """Predict on a dataset and score the fit.

    y_ref defaults to the dataset's noise-free channel when present, else its
    y.  The first `exclude` samples are dropped from the BFR to suppress the
    predictor's zero-state transient (callers typically pass the longest word
    length used in identification).
    """
    start = time.perf_counter()
    if y_ref is None:
        y_ref = data.y_clean if data.y_clean is not None else data.y
    y_ref = as_series(y_ref)
    if not np.isfinite(y_ref).all():
        row = int(np.flatnonzero(~np.isfinite(y_ref).all(axis=1))[0])
        raise InsufficientDataError(f"y_ref holds a non-finite value at row {row}")
    if exclude < 0:
        raise DimensionError(f"exclude must be >= 0, got {exclude}")
    if exclude >= len(data) - 1:
        raise InsufficientDataError(
            f"excluding {exclude} samples leaves too little validation data"
        )
    yhat = predict(m, data)
    score = bfr(y_ref[exclude:], yhat[exclude:])
    whiteness = _whiteness_scores(m, data, data.y - yhat)
    return ValidationReport(
        bfr=score,
        whiteness=whiteness,
        n_excluded=exclude,
        n_compared=len(data) - exclude,
        runtime_seconds=time.perf_counter() - start,
        predictions=yhat if keep_predictions else None,
    )


@dataclass
class ConsistencyResult:
    rows: List[dict]
    medians: Dict[int, float]


def consistency_experiment(
    model: SwitchedModel,
    Ns: Sequence[int],
    seeds: Sequence[int],
    cfg: IdentConfig,
    use_oracle: bool = False,
    word_len: int = 3,
    sim_template: Optional[SimConfig] = None,
    markov_block: str = "full",
) -> ConsistencyResult:
    """Identification error versus data length over a seed ensemble.

    For each (N, seed) pair a fresh trajectory is simulated and identified;
    the error is the largest max-norm deviation of the identified model's
    Markov parameters (associated deterministic realization) from the
    generator's, over all words up to word_len.  Markov parameters are
    invariant under state isomorphism, so no basis alignment is needed.

    markov_block chooses the compared columns: "full" covers the joint
    input/noise parameters, "input" restricts to the input-to-output block.
    The noise block inherits the sampling noise of raw output covariances
    (per-entry standard error of order E[y^2]/sqrt(N)), so the input block
    is the sharper consistency probe at moderate N.

    A run whose realization fails numerically (noise can make the estimated
    Hankel realize an unusable model at small N) is recorded with infinite
    error, failed=True and a "reason" naming the error class and its message
    (which leads with the failing stage); medians take those at face value.

    With use_oracle=True the exact covariance table replaces estimation
    (errors then sit at solver tolerance).
    """
    if markov_block not in ("full", "input"):
        raise DimensionError(f"unknown markov_block {markov_block!r}")
    ref = associated_dlss(model)
    words = list(enumerate_words(model.n_modes, word_len))
    n_u = model.n_u

    def block(mat: np.ndarray) -> np.ndarray:
        return mat[:, :n_u] if markov_block == "input" else mat

    ref_values = {w: block(markov_parameter(ref, w)) for w in words}
    rows: List[dict] = []
    for N in Ns:
        for seed in seeds:
            try:
                if use_oracle:
                    n_bar = cfg.n_bar if cfg.n_bar is not None else cfg.n_x
                    cov = exact_covariances(model, 2 * max(cfg.n_x, n_bar) + 2)
                    sel, sel_bar = cfg.selection, cfg.selection_bar
                    if sel == "search" or sel_bar == "search":
                        raise DimensionError(
                            "oracle mode needs explicit selections in the config"
                        )
                    m_hat, _ = covariance_realization(cov, sel, sel_bar)
                else:
                    if sim_template is None:
                        sim_cfg = SimConfig(seed=seed, length=int(N))
                    else:
                        sim_cfg = SimConfig(seed=seed, length=int(N),
                                            burn_in=sim_template.burn_in,
                                            input_dist=sim_template.input_dist,
                                            input_low=sim_template.input_low,
                                            input_high=sim_template.input_high)
                    data = simulate(model, sim_cfg)
                    m_hat, _ = identify(data, cfg)
                d_hat = associated_dlss(m_hat)
                err = max(float(np.max(np.abs(block(markov_parameter(d_hat, w))
                                              - ref_values[w])))
                          for w in words)
            except (NumericalError, ModelInvalidError) as exc:
                rows.append({"N": int(N), "seed": int(seed), "error": float("inf"),
                             "failed": True, "reason": f"{type(exc).__name__}: {exc}"})
                continue
            rows.append({"N": int(N), "seed": int(seed), "error": err,
                         "failed": False})
    medians = {}
    for N in Ns:
        errs = sorted(r["error"] for r in rows if r["N"] == int(N))
        medians[int(N)] = float(np.median(errs))
    return ConsistencyResult(rows=rows, medians=medians)
