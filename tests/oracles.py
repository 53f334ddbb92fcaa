"""Reference implementations the tests check the library against, and
the loader of the scripts under tools/.

No oracle is on a program path: each recomputes, the slow and plain way,
a quantity the pipeline computes fast, or keeps an earlier form of a
program path whose bits the current one must reproduce.
"""
import importlib.util
import sys
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from slsid import (
    CovarianceTable,
    DeterministicModel,
    DimensionError,
    InsufficientDataError,
    NumericalError,
    SwitchedModel,
    Word,
    WordIndexedMatrixTable,
    associated_dlss,
    enumerate_words,
    input_state_second_moment,
    state_second_moment,
    word_probability,
)
from slsid.algebra import _check_letters
from slsid.covariance import _prepare
from slsid.model import _reach_matrix, numerical_rank
from slsid.simulate import Dataset, _chunk_length, _mode_dtype, as_series


def load_tool(name: str):
    """tools/<name>.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # where a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def matrix_product_along_word(matrices: Sequence[np.ndarray], w: Word) -> np.ndarray:
    """A_{s_k} @ ... @ A_{s_1} @ I for w = s_1...s_k, one letter at a time;
    the identity for the empty word.  Entry i-1 of matrices is mode i's."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionError(f"expected square {n}x{n} family, got {m.shape}")
    _check_letters(w, len(mats))
    out = np.eye(n)
    for s in w:
        out = mats[s - 1] @ out
    return out


def markov_chain(A, B, C, Dmat, w: Word) -> np.ndarray:
    """M(w) = C A_rest B_{s0} of one word by its per-word chain; Dmat for e."""
    if not w:
        return np.asarray(Dmat, dtype=float)
    return C @ matrix_product_along_word(A, Word(w[1:])) @ np.asarray(B)[w[0] - 1]


def per_word_exact_covariances(model: SwitchedModel, max_len: int) -> CovarianceTable:
    """exact_covariances with every Markov value taken by its per-word chain.

    Lambda^{y,u}_w = M(w)[:, :n_u] Q_u and Lambda^{y,y}_w = M(w)[:, n_u:] +
    C A_rest core_s0 with M the associated dLSS's Markov function and core_s
    = (1/p_s) A_s Pt_s C^T + B_s Q_u D^T on its sqrt(p)-scaled input part.
    """
    d = associated_dlss(model)
    n_u, n_y, p = model.n_u, model.n_y, model.p
    words = list(enumerate_words(model.n_modes, max_len))
    A, B_in, C, Dm, Q_u = d.A, d.B[:, :, :n_u], d.C, model.Dmat, model.Q_u
    P = input_state_second_moment(DeterministicModel(A=A, B=B_in, C=C, Dmat=Dm), Q_u, p)
    p_col = p[:, None, None]
    cores = (A @ P @ C.T) / p_col + B_in @ Q_u @ Dm.T
    lam_yu = WordIndexedMatrixTable.from_pairs(
        (n_y, n_u), ((w, markov_chain(A, d.B, C, d.Dmat, w)[:, :n_u] @ Q_u) for w in words))
    lam_yy = WordIndexedMatrixTable.from_pairs((n_y, n_y), (
        (w, markov_chain(A, d.B, C, d.Dmat, w)[:, n_u:] + markov_chain(A, cores, C, Dm, w))
        for w in words if w))
    t_dd = (C @ P @ C.T) / p_col + Dm @ Q_u @ Dm.T
    t_dd = (t_dd + t_dd.transpose(0, 2, 1)) / 2.0
    P_noise = state_second_moment(model)
    t_yy = t_dd + (model.C @ P_noise @ model.C.T + model.F @ model.Q_v @ model.F.T) / p_col
    return CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy,
                           t_yy=(t_yy + t_yy.transpose(0, 2, 1)) / 2.0, q_u=Q_u.copy(),
                           p=p.copy(), metadata={"estimator": "exact", "max_len": max_len})


class IllConditionedRegressorError(NumericalError):
    """The least-squares regressor matrix is rank deficient."""


def z_process(b: np.ndarray, q: np.ndarray, p: Sequence[float], w: Word, t: int) -> np.ndarray:
    """z^b_w(t) at one 0-based time t, from its definition.

    b(t - |w|) / sqrt(p_w) when the modes q(t - |w|) .. q(t - 1) spell w,
    else zeros; b(t) for the empty word.  b is a T x n_b array (a 1-D b is
    one channel) and q the aligned mode series.
    """
    b, k = as_series(b), len(w)
    if t < k or t >= b.shape[0]:
        raise IndexError(f"time {t} out of range for |w| = {k} and {b.shape[0]} samples")
    if tuple(np.asarray(q)[t - k:t]) != tuple(w):
        return np.zeros(b.shape[1])
    return b[t - k] / np.sqrt(word_probability(p, w))


def _z_block(b: np.ndarray, q: np.ndarray, p, w: Word, n0: int) -> np.ndarray:
    """Rows z^b_w(t)^T for t = n0 .. T-1, one masked block per word.

    The per-word form the estimator's per-lag walk is compared with.
    """
    T = b.shape[0]
    k = len(w)
    if k == 0:
        return b[n0:]
    ind = np.ones(T - n0, dtype=bool)
    for i, s in enumerate(w):
        ind &= q[n0 - k + i:T - k + i] == s
    return (b[n0 - k:T - k] * ind[:, None]) / np.sqrt(word_probability(p, w))


def least_squares_covariances(data: Dataset, p: Sequence[float],
                              words_full: Sequence[Word]) -> CovarianceTable:
    """Covariances recovered through the normal equations of a regression.

    y(t) is regressed on the stacked z^u columns of words_full and,
    separately, on the z^y columns of its nonempty words.  With Theta the
    least-squares coefficients, (Phi^T Phi) Theta / n_eff reproduces the
    direct covariance sums Phi^T R / n_eff, which is how the table is
    filled: the identity that pins down empirical_covariances.  T^{y,y}_{s,s}
    and q_u are the per-mode _z_block products.
    """
    p = np.asarray(p, dtype=float)
    words_full = [Word(w) for w in words_full]
    _, n0, n_eff = _prepare(data, words_full)

    def regress(b: np.ndarray, words: Sequence[Word]) -> WordIndexedMatrixTable:
        if not words:
            return WordIndexedMatrixTable.from_pairs((data.n_y, b.shape[1]), [])
        phi = np.hstack([_z_block(b, data.q, p, w, n0) for w in words])
        if n_eff <= phi.shape[1]:
            raise InsufficientDataError(
                f"{n_eff} samples cannot support {phi.shape[1]} regressor columns")
        rank, _ = numerical_rank(phi)
        if rank < phi.shape[1]:
            raise IllConditionedRegressorError(
                f"regressor matrix has rank {rank} < {phi.shape[1]} columns")
        theta = np.linalg.lstsq(phi, data.y[n0:], rcond=None)[0]
        gram_theta = phi.T @ (phi @ theta) / n_eff
        return WordIndexedMatrixTable.from_pairs(
            (data.n_y, b.shape[1]),
            ((w, gram_theta[j * b.shape[1]:(j + 1) * b.shape[1], :].T)
             for j, w in enumerate(words)))

    z = np.array([_z_block(data.y, data.q, p, Word((s,)), n0) for s in range(1, len(p) + 1)])
    t_yy = z.transpose(0, 2, 1) @ z / n_eff
    q_u = data.u[n0:].T @ data.u[n0:] / n_eff
    return CovarianceTable(
        lambda_yu=regress(data.u, words_full),
        lambda_yy=regress(data.y, [w for w in words_full if w]),
        t_yy=(t_yy + t_yy.transpose(0, 2, 1)) / 2.0, q_u=(q_u + q_u.T) / 2.0, p=p,
        metadata={"estimator": "ls", "N": len(data), "N_0": n0, "n_eff": n_eff,
                  "degenerate_words": []})


def reach_obs_ranks(m: DeterministicModel) -> Tuple[int, int]:
    """Numerical ranks of the reachability and observability span matrices.

    Columns A_w B_s and rows C A_w over all words with |w| < n_x, which
    suffices for the minimality test (both ranks equal n_x iff the model is
    minimal).
    """
    obs = np.vstack([m.C @ matrix_product_along_word(m.A, w)
                     for w in enumerate_words(m.n_modes, m.n_x - 1)])
    return numerical_rank(_reach_matrix(m))[0], numerical_rank(obs)[0]


def searchsorted_switching(p: Sequence[float], T: int, rng) -> np.ndarray:
    """T i.i.d. modes by a binary search of the cumulative sums of p.

    A draw r in [0, 1) gets mode 1 plus the number of sums <= r
    (side="right"); the last sum is set to 1 against rounding.  The modes
    have the dtype `sample_switching` gives len(p) modes.
    """
    p = np.asarray(p, dtype=float)
    edges = np.cumsum(p)
    edges[-1] = 1.0
    q = np.searchsorted(edges, rng.random(int(T)), side="right")
    q += 1
    return q.astype(_mode_dtype(p.shape[0]))


def row_major_scan(q: np.ndarray, M: np.ndarray, C: np.ndarray, inputs) -> np.ndarray:
    """`simulate.affine_scan` with row-major step buffers, its earlier form.

    Each step's product has the same operands, row by row, as the
    feature-major scan, but every chunk's picked next state is copied into
    an n-wide piece of the buffer row it carries.  Its outputs are the bits
    the scan must keep.
    """
    T = q.shape[0]
    D, n = M.shape[0], M.shape[1]
    L = _chunk_length(T)
    n_chunks = max(1, -(-T // L))
    n_out = C.shape[0]
    blocks = D + -(-n_out // n)
    terms = [(None, M, C)] + list(inputs)
    offsets = np.cumsum([0] + [N.shape[2] for _, N, _ in terms])
    G = np.zeros((offsets[-1], blocks * n))
    for (_, N, E), a, b in zip(terms, offsets, offsets[1:]):
        G[a:b, :D * n] = N.transpose(2, 0, 1).reshape(b - a, D * n)
        if E is not None:
            G[a:b, D * n:D * n + n_out] = E.T
    spans = [(w, slice(a, b)) for (w, _, _), a, b in zip(inputs, offsets[1:], offsets[2:])]

    ahead = n_chunks - 1
    head = ahead * L
    buf = np.zeros((ahead, n + 1, G.shape[0]))
    buf[:, 1:, :n] = np.eye(n)
    step = np.ascontiguousarray(G[:, :D * n])
    prod = np.empty((ahead * (n + 1), D * n))
    first = (np.arange(ahead)[:, None] * (n + 1) + np.arange(n + 1)) * D - 1
    for k in range(L if head else 0):
        rows = slice(k, head, L)
        for w, span in spans:
            buf[:, 0, span] = w[rows]
        np.matmul(buf.reshape(-1, G.shape[0]), step, out=prod)
        buf[:, :, :n] = np.take(prod.reshape(-1, n), first + q[rows, None], axis=0)

    row = np.zeros((n_chunks, G.shape[0]))
    start = row[0, :n]
    for c, (phi_t, z) in enumerate(zip(buf[:, 1:, :n], buf[:, 0, :n]), 1):
        start = start @ phi_t + z
        row[c, :n] = start

    out = np.empty((T, n_out))
    prod = np.empty((n_chunks, blocks * n))
    first = np.arange(n_chunks) * blocks - 1
    for k in range(min(L, T)):
        rows = slice(k, None, L)
        s = q[rows]
        m = s.shape[0]
        for w, span in spans:
            row[:m, span] = w[rows]
        np.matmul(row[:m], G, out=prod[:m])
        out[rows] = prod[:m, D * n:D * n + n_out]
        row[:m, :n] = np.take(prod.reshape(-1, n), first[:m] + s, axis=0)
    return out


def repr_write_csv(path, header, columns) -> None:
    """`simulate.write_csv` in its earlier form, whose bytes it must keep.

    Each cell is the repr of the column's Python value (.tolist()): a
    list's repr is its items' reprs joined by ", ", which splits back into
    cells, 1024 rows at a time.
    """
    n = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n, 1024):
            cells = [repr(col[a:a + 1024].tolist())[1:-1].split(", ")
                     for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
