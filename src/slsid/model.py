"""Model types and structural tests: stability, Markov parameters, ranks,
state-space isomorphism.

Two families of models appear here.  A DeterministicModel (dLSS) is the
noise-free switched system carrying a Markov function M(w).  A SwitchedModel
(sLSS) is the stochastic model
    x(t+1) = A_{q(t)} x(t) + B_{q(t)} u(t) + K_{q(t)} v(t)
    y(t)   = C x(t) + D u(t) + F v(t)
with i.i.d. switching q, white input u with E[u u^T] = Q_u, and per-mode
noise second moments stored as Q_v[s] = p_s * E[v v^T | q = s].  An
InnovationModel is a SwitchedModel with F = I whose noise is the one-step
prediction error.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

from .algebra import PROB_TOL, Word, enumerate_words, markov_table
from .errors import (
    DimensionError,
    ModelInvalidError,
    NotIsomorphicError,
)

__all__ = [
    "DeterministicModel",
    "SwitchedModel",
    "InnovationModel",
    "numerical_rank",
    "mean_square_operator",
    "stability_margin",
    "markov_parameter",
    "find_isomorphism",
    "transform_model",
    "model_from_dict",
]

RANK_TOL = 1e-8  # singular values above RANK_TOL * s_max count toward rank


def numerical_rank(mat: np.ndarray) -> Tuple[int, float]:
    """Rank by singular-value thresholding.

    Returns (rank, threshold) where threshold = RANK_TOL * largest singular
    value; a zero matrix has rank 0 and threshold 0.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0, 0.0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, 0.0
    thr = RANK_TOL * float(s[0])
    return int(np.sum(s > thr)), thr


def _freeze(a, name: str) -> np.ndarray:
    """A read-only float copy of a; ModelInvalidError names a non-numeric field."""
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError):
        raise ModelInvalidError(f"{name} is not numeric, or its rows differ in length") from None
    out.flags.writeable = False
    return out


def _as_matrix_family(mats, name: str) -> np.ndarray:
    """The family as one read-only (D, rows, cols) float array.

    The one layout of values indexed by mode: a list, tuple or array of D
    equal-shaped matrices.  A ragged, empty or non-numeric family raises
    ModelInvalidError naming it.
    """
    fam = _freeze(mats, name)
    if fam.ndim != 3 or not len(fam):
        raise ModelInvalidError(
            f"{name} family must be a nonempty list of equal-shaped matrices, "
            f"got an array of shape {fam.shape}")
    return fam


class _Model:
    """What both kinds of model share: the dimensions, read from A, B and
    C, the mean-square operator of the family A, and the JSON form."""

    @property
    def n_modes(self) -> int:
        return len(self.A)

    @property
    def n_x(self) -> int:
        return self.A.shape[1]

    @property
    def n_u(self) -> int:
        return self.B.shape[2]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @functools.cached_property
    def mean_square(self) -> Tuple[np.ndarray, float]:
        """(sum_s w_s A_s kron A_s, its spectral radius), built on first read:
        w = p for a SwitchedModel, 1 for a DeterministicModel (its A_s absorb
        sqrt(p_s)).  A frozen model's A and p are read-only, so the cached,
        read-only value never goes stale; to_dict and equality ignore it."""
        w = self.p if isinstance(self, SwitchedModel) else np.ones(self.n_modes)
        op, rho = mean_square_operator(self.A, w)
        op.flags.writeable = False
        return op, rho

    def to_dict(self) -> dict:
        """The "type" and every field as nested lists, Dmat under the key "D"."""
        out = {"type": self._TYPE}
        for f in fields(self):
            out["D" if f.name == "Dmat" else f.name] = getattr(self, f.name).tolist()
        return out


@dataclass(frozen=True)
class DeterministicModel(_Model):
    """Noise-free switched model ({A_s}, {B_s}, C, Dmat); carrier of M(w)."""

    _TYPE = "deterministic"  # to_dict's "type"; not a field

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Dmat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix_family(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix_family(self.B, "B"))
        object.__setattr__(self, "C", np.atleast_2d(_freeze(self.C, "C")))
        object.__setattr__(self, "Dmat", np.atleast_2d(_freeze(self.Dmat, "Dmat")))
        D, n_x = self.A.shape[:2]
        if self.A.shape != (D, n_x, n_x):
            raise ModelInvalidError(f"A matrices must be {n_x}x{n_x}, got {self.A.shape[1:]}")
        if self.B.shape[:2] != (D, n_x):
            raise ModelInvalidError(
                f"B must list {D} matrices of {n_x} rows, got shape {self.B.shape}")
        if self.C.shape[1] != n_x:
            raise ModelInvalidError(f"C must have {n_x} columns, got {self.C.shape}")
        if self.Dmat.shape != (self.C.shape[0], self.n_u):
            raise ModelInvalidError(
                f"Dmat must be {self.C.shape[0]}x{self.n_u}, got {self.Dmat.shape}"
            )


def _check_spd(mat: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
        raise ModelInvalidError(f"{name} is not symmetric")
    eigmin = float(np.linalg.eigvalsh(mat).min())
    if eigmin <= 0.0:
        raise ModelInvalidError(f"{name} is not positive definite (min eig {eigmin:.3e})")


@dataclass(frozen=True)
class SwitchedModel(_Model):
    """Stochastic switched model with i.i.d. switching; see module docstring.

    Q_v[s] stores p_s * E[v(t) v(t)^T | q(t) = s], the quantity the
    realization recursions consume directly; divide by p_s for the
    per-mode conditional covariance.
    """

    _TYPE = "switched"  # to_dict's "type"; not a field

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    C: np.ndarray
    Dmat: np.ndarray
    F: np.ndarray
    p: np.ndarray
    Q_u: np.ndarray
    Q_v: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "K", "Q_v"):
            object.__setattr__(self, name, _as_matrix_family(getattr(self, name), name))
        for name in ("C", "Dmat", "F", "Q_u"):
            object.__setattr__(self, name, np.atleast_2d(_freeze(getattr(self, name), name)))
        object.__setattr__(self, "p", np.atleast_1d(_freeze(self.p, "p")))

    @property
    def n_n(self) -> int:
        return self.K.shape[2]

    def validate(self) -> "SwitchedModel":
        """Raise ModelInvalidError on any violated invariant; return self."""
        D, n_x, n_u, n_y, n_n = self.n_modes, self.n_x, self.n_u, self.n_y, self.n_n
        families = {"A": (self.A, (n_x, n_x)), "B": (self.B, (n_x, n_u)),
                    "K": (self.K, (n_x, n_n)), "Q_v": (self.Q_v, (n_n, n_n))}
        for name, (fam, shape) in families.items():
            if fam.shape != (D,) + shape:
                raise ModelInvalidError(
                    f"{name} must list {D} matrices of shape {shape}, got shape {fam.shape}")
        if self.C.shape != (n_y, n_x):
            raise ModelInvalidError(f"C must be {(n_y, n_x)}, got {self.C.shape}")
        if self.Dmat.shape != (n_y, n_u):
            raise ModelInvalidError(f"D must be {(n_y, n_u)}, got {self.Dmat.shape}")
        if self.F.shape != (n_y, n_n):
            raise ModelInvalidError(f"F must be {(n_y, n_n)}, got {self.F.shape}")
        if self.p.shape != (D,):
            raise ModelInvalidError(f"p must have {D} entries, got {self.p.shape}")
        # a NaN slips past every comparison below, so it is named here
        for name, value in (("A", self.A), ("B", self.B), ("K", self.K), ("C", self.C),
                            ("D", self.Dmat), ("F", self.F), ("p", self.p),
                            ("Q_u", self.Q_u), ("Q_v", self.Q_v)):
            if not np.isfinite(value).all():
                raise ModelInvalidError(f"{name} holds a non-finite entry")
        if np.any(self.p <= 0.0):
            raise ModelInvalidError("mode probabilities must be positive")
        if abs(float(self.p.sum()) - 1.0) > PROB_TOL:
            raise ModelInvalidError(f"mode probabilities sum to {float(self.p.sum())!r}, not 1")
        _check_spd(self.Q_u, "Q_u")
        for s, q in enumerate(self.Q_v, start=1):
            _check_spd(q, f"Q_v[{s}]")
        margin = self.mean_square[1]
        if margin >= 1.0:
            raise ModelInvalidError(
                f"not stationary: spectral radius of sum p_s (A_s kron A_s) = {margin:.6f} >= 1"
            )
        return self


class InnovationModel(SwitchedModel):
    """SwitchedModel whose noise is the one-step prediction error: F = I."""

    _TYPE = "innovation"

    def validate(self) -> "InnovationModel":
        super().validate()
        if self.n_n != self.n_y:
            raise ModelInvalidError(
                f"innovation form needs n_n = n_y, got {self.n_n} != {self.n_y}"
            )
        if np.max(np.abs(self.F - np.eye(self.n_y))) != 0.0:
            raise ModelInvalidError("innovation form requires F = I exactly")
        return self

    @classmethod
    def from_parts(cls, A, B, K, C, Dmat, p, Q_u, Q_v) -> "InnovationModel":
        C = np.atleast_2d(C)
        return cls(A=A, B=B, K=K, C=C, Dmat=Dmat, F=np.eye(C.shape[0]), p=p, Q_u=Q_u, Q_v=Q_v)


def model_from_dict(d: dict):
    """Inverse of the models' to_dict().

    Raises ModelInvalidError when d is not a dict, lacks a key of its
    model type, or holds a field that is not numeric or a family that is
    not equal-shaped matrices.
    """
    if not isinstance(d, dict):
        raise ModelInvalidError(f"a model must be a JSON object, got {type(d).__name__}")
    kind = d.get("type", "switched")
    keys = ("A", "B", "C", "D") if kind == "deterministic" else (
        "A", "B", "K", "C", "D", "F", "p", "Q_u", "Q_v")
    missing = [key for key in keys if key not in d]
    if missing:
        raise ModelInvalidError(f"model lacks the key {missing[0]!r}")
    if kind == "deterministic":
        return DeterministicModel(A=d["A"], B=d["B"], C=d["C"], Dmat=d["D"])
    cls = InnovationModel if kind == "innovation" else SwitchedModel
    return cls(A=d["A"], B=d["B"], K=d["K"], C=d["C"], Dmat=d["D"], F=d["F"], p=d["p"],
               Q_u=d["Q_u"], Q_v=d["Q_v"])


def mean_square_operator(A: Sequence[np.ndarray],
                         w: Sequence[float]) -> Tuple[np.ndarray, float]:
    """sum_s w_s (A_s kron A_s) and its spectral radius.

    The operator maps vec(X) to vec(sum_s w_s A_s X A_s^T) (row-major vec).
    """
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    if A.shape[0] != w.shape[0]:
        raise DimensionError(f"{A.shape[0]} matrices but {w.shape[0]} weights")
    D, n = A.shape[0], A.shape[1]
    # A_s kron A_s for every mode as one broadcast outer product: entry
    # (i k, j l) is A_s[i, j] * A_s[k, l], the one product np.kron takes
    kron = (A[:, :, None, :, None] * A[:, None, :, None, :]).reshape(D, n * n, n * n)
    # sum() adds the modes in order from 0, as a loop over np.kron terms does
    op = sum(w[:, None, None] * kron)
    return op, float(np.max(np.abs(np.linalg.eigvals(op))))


def stability_margin(A: Sequence[np.ndarray], p: Sequence[float]) -> float:
    """Spectral radius of sum_s p_s (A_s kron A_s).

    The switched model is wide-sense stationary iff this is < 1.
    """
    return mean_square_operator(A, p)[1]


def markov_parameter(m: DeterministicModel, w: Word) -> np.ndarray:
    """M(e) = Dmat; M(w) = C A_rest B_{s0} with s0 the first letter of w."""
    return markov_table(m.A, m.B, m.C, m.Dmat, (w,)).array[0]


def _reach_matrix(m: DeterministicModel) -> np.ndarray:
    """[A_w B_s] over the words w with |w| < n_x, each w's modes s in order:
    the Markov table with C = I over the words s w."""
    words = [Word((s,)) + w for w in enumerate_words(m.n_modes, m.n_x - 1)
             for s in range(1, m.n_modes + 1)]
    reach = markov_table(m.A, m.B, np.eye(m.n_x), np.zeros((m.n_x, m.n_u)), words)
    return np.hstack(reach.array)


def transform_model(m: SwitchedModel, T: np.ndarray) -> SwitchedModel:
    """Apply the state isomorphism x -> T x: (TAT^-1, TB, TK, CT^-1, D, F)."""
    T = np.asarray(T, dtype=float)
    if T.shape != (m.n_x, m.n_x):
        raise DimensionError(f"T must be {m.n_x}x{m.n_x}, got {T.shape}")
    Tinv = np.linalg.inv(T)
    return type(m)(A=T @ m.A @ Tinv, B=T @ m.B, K=T @ m.K, C=m.C @ Tinv, Dmat=m.Dmat,
                   F=m.F, p=m.p, Q_u=m.Q_u, Q_v=m.Q_v)


def find_isomorphism(m1: SwitchedModel, m2: SwitchedModel, tol: float = 1e-6) -> np.ndarray:
    """Recover the state isomorphism T with m2 = transform_model(m1, T).

    Both models must be minimal and in innovation form (caller's
    responsibility).  T is computed by matching the reachability spans of the
    two associated deterministic models column for column, then verified on
    all five defining relations (A, B, K, C, D) in max-norm.  Raises
    NotIsomorphicError carrying per-relation residuals when verification
    fails.
    """
    from .realize import associated_dlss  # local import: realize depends on model

    for name in ("n_modes", "n_x", "n_u", "n_y", "n_n"):
        if getattr(m1, name) != getattr(m2, name):
            raise DimensionError(
                f"{name} mismatch: {getattr(m1, name)} vs {getattr(m2, name)}"
            )
    if np.max(np.abs(m1.p - m2.p)) > 1e-9:
        raise NotIsomorphicError(
            "mode probability vectors differ; no isomorphism relates the models",
            residuals={"p": float(np.max(np.abs(m1.p - m2.p)))},
        )
    d1, d2 = associated_dlss(m1), associated_dlss(m2)
    R1, R2 = _reach_matrix(d1), _reach_matrix(d2)
    rank1, _ = numerical_rank(R1)
    if rank1 < m1.n_x:
        raise NotIsomorphicError(
            f"first model's reachability span has rank {rank1} < {m1.n_x}; "
            "isomorphism matching needs minimal models"
        )
    T = R2 @ np.linalg.pinv(R1)
    rank_T, _ = numerical_rank(T)
    residuals: Dict[str, float] = {}
    if rank_T < m1.n_x:
        raise NotIsomorphicError("candidate transformation is singular", residuals)
    Tinv = np.linalg.inv(T)
    for s in range(m1.n_modes):
        residuals[f"A_{s + 1}"] = float(np.max(np.abs(T @ m1.A[s] @ Tinv - m2.A[s])))
        residuals[f"B_{s + 1}"] = float(np.max(np.abs(T @ m1.B[s] - m2.B[s])))
        residuals[f"K_{s + 1}"] = float(np.max(np.abs(T @ m1.K[s] - m2.K[s])))
    residuals["C"] = float(np.max(np.abs(m1.C @ Tinv - m2.C)))
    residuals["D"] = float(np.max(np.abs(m1.Dmat - m2.Dmat)))
    worst = max(residuals.values())
    if worst > tol:
        raise NotIsomorphicError(
            f"best candidate leaves residual {worst:.3e} > tol {tol:.1e}", residuals
        )
    return T
