"""Sample-path generation for switched models.

Trajectories follow
    x(t+1) = A_{q(t)} x(t) + B_{q(t)} u(t) + K_{q(t)} v(t)
    y(t)   = C x(t) + D u(t) + F v(t)
from x(0) = 0 with i.i.d. switching, then discard a burn-in prefix so the
retained segment approximates the stationary regime (stability makes the
initial condition forgotten geometrically).  The noise-free channel
y - F v(t) is kept alongside y; it is the validation target for predictors.

Randomness comes from a counter-based 64-bit generator (Philox) seeded
explicitly; Gaussian shaping uses Cholesky factors, so identical configs
give bit-identical datasets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
)
from .model import SwitchedModel

__all__ = ["Dataset", "SimConfig", "sample_switching", "simulate"]


@dataclass(frozen=True)
class Dataset:
    """Aligned series y (T x n_y), u (T x n_u), q (T,) with modes in {1..D}.

    y_clean, when present, is the noise-free output channel y - F v.
    """

    y: np.ndarray
    u: np.ndarray
    q: np.ndarray
    t0: int = 0
    y_clean: Optional[np.ndarray] = None

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        if y.shape[0] == 1 and y.shape[1] > 1 and np.asarray(self.y).ndim == 1:
            y = y.T
        if u.shape[0] == 1 and u.shape[1] > 1 and np.asarray(self.u).ndim == 1:
            u = u.T
        q = np.asarray(self.q, dtype=int)
        if not (y.shape[0] == u.shape[0] == q.shape[0]):
            raise DimensionError(
                f"series lengths differ: y {y.shape[0]}, u {u.shape[0]}, q {q.shape[0]}"
            )
        if q.size and q.min() < 1:
            raise DimensionError("mode series must be 1-based")
        clean = self.y_clean
        if clean is not None:
            clean = np.atleast_2d(np.asarray(clean, dtype=float))
            if clean.shape != y.shape:
                raise DimensionError(
                    f"y_clean shape {clean.shape} does not match y {y.shape}"
                )
            clean.flags.writeable = False
        for name, arr in (("y", y), ("u", u), ("y_clean", clean)):
            if arr is not None and not np.isfinite(arr).all():
                row = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
                raise InsufficientDataError(
                    f"{name} holds a non-finite value at row {row} (t = {self.t0 + row})"
                )
        for arr in (y, u, q):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "y_clean", clean)

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def n_y(self) -> int:
        return self.y.shape[1]

    @property
    def n_u(self) -> int:
        return self.u.shape[1]

    def slice(self, start: int, stop: int) -> "Dataset":
        clean = None if self.y_clean is None else self.y_clean[start:stop]
        return Dataset(self.y[start:stop], self.u[start:stop], self.q[start:stop],
                       t0=self.t0 + start, y_clean=clean)

    def to_csv(self, path) -> None:
        """Write t, q, u_1.., y_1.. with a mandatory header row."""
        header = ["t", "q"]
        header += [f"u_{i + 1}" for i in range(self.n_u)]
        header += [f"y_{i + 1}" for i in range(self.n_y)]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for t in range(len(self)):
                row = [str(self.t0 + t), str(int(self.q[t]))]
                row += [repr(float(v)) for v in self.u[t]]
                row += [repr(float(v)) for v in self.y[t]]
                fh.write(",".join(row) + "\n")

    def clean_to_csv(self, path) -> None:
        """Write the noise-free channel as t, y_1.. ."""
        if self.y_clean is None:
            raise DimensionError("dataset has no noise-free channel")
        header = ["t"] + [f"y_{i + 1}" for i in range(self.n_y)]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for t in range(len(self)):
                row = [str(self.t0 + t)] + [repr(float(v)) for v in self.y_clean[t]]
                fh.write(",".join(row) + "\n")

    @classmethod
    def from_csv(cls, path, clean_path=None) -> "Dataset":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[:2] != ["t", "q"]:
                raise DimensionError(f"unexpected dataset header {header[:2]}")
            n_u = sum(1 for name in header if name.startswith("u_"))
            n_y = sum(1 for name in header if name.startswith("y_"))
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise DimensionError(f"dataset {path} has no rows")
        t0 = int(rows[0][0])
        q = np.array([int(r[1]) for r in rows], dtype=int)
        u = np.array([[float(v) for v in r[2:2 + n_u]] for r in rows])
        y = np.array([[float(v) for v in r[2 + n_u:2 + n_u + n_y]] for r in rows])
        u = u.reshape(len(rows), n_u)
        y = y.reshape(len(rows), n_y)
        clean = None
        if clean_path is not None:
            clean = load_series_csv(clean_path)
            if clean.shape != y.shape:
                raise DimensionError(
                    f"clean channel shape {clean.shape} does not match y {y.shape}"
                )
        return cls(y=y, u=u, q=q, t0=t0, y_clean=clean)


def load_series_csv(path) -> np.ndarray:
    """Read a t, y_1.. CSV (the noise-free channel format); returns the y block."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n_y = sum(1 for name in header if name.startswith("y_"))
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return np.array([[float(v) for v in r[1:1 + n_y]] for r in rows]).reshape(len(rows), n_y)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    input_dist "uniform" draws each input channel independently from
    U(input_low, input_high); "gaussian" draws u ~ N(0, Q_u) with the model's
    Q_u.  For uniform input, the model's Q_u must equal the implied diagonal
    (high - low)^2 / 12 * I; the default U(-1, 1) gives Q_u = I/3.
    """

    seed: int
    length: int
    burn_in: int = 1000
    input_dist: str = "uniform"
    input_low: float = -1.0
    input_high: float = 1.0
    noise_dist: str = "gaussian"

    def __post_init__(self):
        if self.length < 1:
            raise DimensionError(f"length must be >= 1, got {self.length}")
        if self.burn_in < 0:
            raise DimensionError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.input_dist not in ("uniform", "gaussian"):
            raise DimensionError(f"unknown input_dist {self.input_dist!r}")
        if self.noise_dist != "gaussian":
            raise DimensionError(f"unknown noise_dist {self.noise_dist!r}")
        if self.input_dist == "uniform" and not self.input_high > self.input_low:
            raise DimensionError("uniform input needs input_high > input_low")

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "length": self.length,
            "burn_in": self.burn_in,
            "input_dist": self.input_dist,
            "input_low": self.input_low,
            "input_high": self.input_high,
            "noise_dist": self.noise_dist,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SimConfig":
        return cls(**{k: obj[k] for k in obj})


def sample_switching(p, T: int, rng: np.random.Generator) -> np.ndarray:
    """T i.i.d. modes with P(q = s) = p_s; 1-based values."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or abs(float(p.sum()) - 1.0) > 1e-8:
        raise InvalidProbabilityError(f"invalid mode probabilities {p}")
    edges = np.cumsum(p)
    edges[-1] = 1.0  # guard against rounding in the final bin
    return np.searchsorted(edges, rng.random(int(T)), side="right").astype(int) + 1


def _draw_input(model: SwitchedModel, cfg: SimConfig, total: int,
                rng: np.random.Generator) -> np.ndarray:
    if cfg.input_dist == "uniform":
        var = (cfg.input_high - cfg.input_low) ** 2 / 12.0
        implied = var * np.eye(model.n_u)
        if np.max(np.abs(implied - model.Q_u)) > 1e-9 * max(1.0, var):
            raise ModelInvalidError(
                f"uniform({cfg.input_low}, {cfg.input_high}) input implies "
                f"Q_u = {var:.6g} I, which differs from the model's Q_u"
            )
        width = cfg.input_high - cfg.input_low
        return cfg.input_low + width * rng.random((total, model.n_u))
    L = np.linalg.cholesky(model.Q_u)
    return rng.standard_normal((total, model.n_u)) @ L.T


def simulate(model: SwitchedModel, cfg: SimConfig) -> Dataset:
    """Generate one stationary-regime trajectory of the model.

    Validates the model first (an unstable model is refused), runs the state
    recursion from x = 0 over burn_in + length steps, and returns the final
    `length` samples together with the noise-free channel y - F v.
    """
    model.validate()
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    total = cfg.burn_in + cfg.length
    q = sample_switching(model.p, total, rng)
    u = _draw_input(model, cfg, total, rng)

    # v(t) | q(t)=s ~ N(0, Q_v[s] / p_s); shape per mode with Cholesky factors
    chol = [np.linalg.cholesky(model.Q_v[s] / model.p[s]) for s in range(model.n_modes)]
    g = rng.standard_normal((total, model.n_n))
    v = np.empty_like(g)
    for s in range(model.n_modes):
        mask = q == s + 1
        v[mask] = g[mask] @ chol[s].T

    A = [np.asarray(a) for a in model.A]
    B = [np.asarray(b) for b in model.B]
    K = [np.asarray(k) for k in model.K]
    C, Dmat, F = model.C, model.Dmat, model.F
    x = np.zeros(model.n_x)
    y = np.empty((total, model.n_y))
    y_clean = np.empty((total, model.n_y))
    for t in range(total):
        s = q[t] - 1
        noise_free = C @ x + Dmat @ u[t]
        y_clean[t] = noise_free
        y[t] = noise_free + F @ v[t]
        x = A[s] @ x + B[s] @ u[t] + K[s] @ v[t]

    lo = cfg.burn_in
    return Dataset(y=y[lo:], u=u[lo:], q=q[lo:], t0=0, y_clean=y_clean[lo:])
