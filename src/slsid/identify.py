"""End-to-end identification from a single trajectory, the innovation
predictor and the BFR fit metric.

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

from .algebra import EMPTY_WORD, Selection, Word, enumerate_words, required_words
from .covariance import CovarianceTable, _mode_sums, empirical_covariances
from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
    UndefinedBfrError,
)
from .model import InnovationModel, SwitchedModel
from .realize import _check_selections, _step_1, _steps_2_to_5, covariance_realization
from .simulate import Dataset, affine_scan, as_count, as_series

__all__ = [
    "IdentConfig",
    "ValidationReport",
    "identify",
    "predict",
    "bfr",
    "validate_model",
    "resolve_selections",
    "resolve_p",
]


@dataclass
class IdentConfig:
    """Modelling choices of the identification pipeline.

    n_x is the model order and n_bar the order of the input part (default
    n_x); both are integers >= 1 (an integral float such as 3.0 is taken
    as one), and any other value raises DimensionError naming the field.
    selection / selection_bar may be explicit Selection objects or the
    string "search" (deterministic enumeration of full-rank candidates).
    p is the known mode-probability vector or "empirical" to use observed
    mode frequencies.

    The rest is fixed, not settings: the covariances come from the direct
    estimator empirical_covariances, and the numerics are the rank threshold
    RANK_TOL (model.py), the gain solve's stopping rule FP_TOL / FP_MAX_ITER
    (realize.py) and the search's budget of 50000 candidates per table.
    """

    n_x: int
    n_bar: Optional[int] = None
    selection: Union[Selection, str] = "search"
    selection_bar: Union[Selection, str] = "search"
    p: Union[Sequence[float], str] = "empirical"

    def __post_init__(self):
        self.n_x = as_count(self.n_x, "n_x", 1)
        if self.n_bar is not None:
            self.n_bar = as_count(self.n_bar, "n_bar", 1)


@dataclass
class ValidationReport:
    """Prediction-quality summary of a model on one dataset."""

    bfr: float
    whiteness: Dict[int, float]
    n_excluded: int
    n_compared: int
    runtime_seconds: float
    predictions: Optional[np.ndarray] = None

    def to_jsonable(self) -> dict:
        """The report's scores; the runtime is left out, so reports of equal
        runs are byte-identical."""
        return {
            "bfr": self.bfr,
            "whiteness": {str(s): v for s, v in sorted(self.whiteness.items())},
            "n_excluded": self.n_excluded,
            "n_compared": self.n_compared,
        }


def _mode_counts(data: Dataset, D: int) -> Tuple[np.ndarray, List[int]]:
    """The samples of each mode 1..D, one comparison per mode on the narrow
    mode series (np.bincount would widen it to intp), and the modes of none."""
    counts = np.array([np.count_nonzero(data.q == s) for s in range(1, D + 1)])
    return counts, [s for s, n in enumerate(counts, start=1) if n == 0]


def resolve_p(spec: Union[Sequence[float], str], data: Dataset) -> np.ndarray:
    """Mode probabilities from a spec: a vector, or "empirical".

    A vector must be finite and positive and is normalized to sum 1;
    "empirical" uses the observed mode frequencies of the data.  Any other
    spec raises InvalidProbabilityError naming p.
    """
    if isinstance(spec, str):
        if spec != "empirical":
            raise InvalidProbabilityError(f"unknown p mode {spec!r}")
        counts, missing = _mode_counts(data, int(data.q.max()))
        if missing:
            raise InvalidProbabilityError(
                f"modes {missing} never occur; cannot use empirical probabilities"
            )
        p = counts.astype(float)
        return p / p.sum()
    try:
        p = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        p = None
    if p is None or p.ndim != 1:
        raise InvalidProbabilityError(
            f"p must be 'empirical' or a vector of numbers, got {spec!r}")
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise InvalidProbabilityError(f"probabilities must be positive, got {p}")
    return p / p.sum()


@functools.lru_cache(maxsize=8)
def _words_up_to(n_modes: int, max_len: int) -> Tuple[Word, ...]:
    """Every word of length <= max_len, the table a selection search needs."""
    return tuple(enumerate_words(n_modes, max_len))


def resolve_selections(
    cov: CovarianceTable,
    n_x: int,
    n_bar: int,
    sel: Union[Selection, str],
    sel_bar: Union[Selection, str],
    skip: int = 0,
) -> Tuple[Selection, Selection, dict]:
    """The selections the covariance realization uses in attempt `skip`.

    Explicit selections pass through; "search" placeholders become the
    vetted selections of that attempt, found by the realization's own step
    1 and steps 2-5 at index `skip` (see realize._steps_2_to_5), and the
    returned dict holds them under "selection_bar_found" and
    "selection_found".  Raises what stops steps 1-5 of that attempt.
    """
    first = _step_1(cov, n_x, n_bar, sel, sel_bar)
    joint, bar, found, _, _ = _steps_2_to_5(cov, first, n_x, n_bar, sel, sel_bar, skip)
    return joint, bar, found


def identify(data: Dataset, cfg: IdentConfig) -> Tuple[InnovationModel, dict]:
    """Estimate covariances from one trajectory and realize an innovation model.

    Returns (model, diagnostics).  Explicit selections are checked against
    p, the data, n_x and n_bar first (realize._check_selections;
    DimensionError names the selection), and only the words they require
    are estimated; with "search" the table covers all words up to
    2*max(n_x, n_bar) + 2 and selections are found on the estimated Markov
    values before realization.  The realization is covariance_realization,
    which makes up to five attempts when a selection is searched; its
    diagnostics ("search_attempts", "rejected_attempts") are passed on.
    A mode of an explicit p that no sample shows raises InsufficientDataError
    first; a data mode outside 1..len(p), the estimator's DimensionError.
    """
    if len(data) < 3:
        raise InsufficientDataError(f"dataset of length {len(data)} is too short")
    p = resolve_p(cfg.p, data)
    D = p.shape[0]
    n_bar = cfg.n_bar if cfg.n_bar is not None else cfg.n_x
    # explicit selections must fit before anything is estimated
    _check_selections(cfg.selection, cfg.selection_bar, cfg.n_x, n_bar, D, data.n_y, data.n_u)
    # "empirical" counted the modes; the estimator names a data mode outside p
    absent = [] if isinstance(cfg.p, str) or data.q.max() > D else _mode_counts(data, D)[1]
    if absent:
        raise InsufficientDataError(f"the data never show mode(s) {absent} of p; "
                                    "their covariances cannot be estimated")
    diagnostics: dict = {"p": p.tolist()}

    if "search" in (cfg.selection, cfg.selection_bar):
        words = _words_up_to(D, 2 * max(cfg.n_x, n_bar) + 2)
    else:
        words = (set(required_words(cfg.selection))
                 | set(required_words(cfg.selection_bar)) | {EMPTY_WORD})
    cov = empirical_covariances(data, p, words)
    model, real_diag = covariance_realization(cov, cfg.n_x, n_bar, cfg.selection,
                                              cfg.selection_bar)
    diagnostics.update(real_diag)
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
    return affine_scan(data.q, m.A - m.K @ m.C, m.C,
                       [(data.u, m.B - m.K @ m.Dmat, m.Dmat), (data.y, m.K, None)])


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
    """Per mode s, the Frobenius norm of the empirical E[e(t) z^y_s(t)^T].

    Sums e(t) y(t-1)^T per mode(t-1) in time order (_mode_sums) over
    t = 2 .. T-1 and scales them by 1/((T - 2) sqrt(p_s)).
    """
    n0 = 2
    if len(data) <= n0:
        return {}
    sums = _mode_sums(residuals[n0:], data.y[n0 - 1:-1], data.q[n0 - 1:-1], m.n_modes)
    scale = (len(data) - n0) * np.sqrt(m.p)[:, None, None]
    norms = np.linalg.norm(sums / scale, axis=(1, 2))
    return {s: float(v) for s, v in enumerate(norms, start=1)}


def validate_model(m: SwitchedModel, data: Dataset, exclude: int = 0,
                   keep_predictions: bool = False) -> ValidationReport:
    """Predict on a dataset and score the fit.

    The BFR scores the predictions against the dataset's noise-free channel
    when it has one, else against its y.  The first `exclude` samples are
    dropped from the BFR to suppress the predictor's zero-state transient
    (callers typically pass the longest word length used in identification).
    """
    start = time.perf_counter()
    if exclude < 0:
        raise DimensionError(f"exclude must be >= 0, got {exclude}")
    if exclude >= len(data) - 1:
        raise InsufficientDataError(
            f"excluding {exclude} samples leaves too little validation data"
        )
    y_ref = data.y_clean if data.y_clean is not None else data.y
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

