"""Covariance calculus: z-processes, the empirical estimator, exact oracle.

For a word w = s_1...s_k the z-process of a signal b is
    z^b_w(t) = b(t - k) * prod_i chi(q(t - k + i - 1) = s_i) / sqrt(p_w)
(z^b_e(t) = b(t) for the empty word): the signal value k steps back, kept
only when the observed modes spell w, normalized so the indicator has unit
second moment.  Covariances are Lambda^{r,b}_w = E[r(t) z^b_w(t)^T] and
T^{r,b}_{s,s} = E[z^r_s(t) z^b_s(t)^T].

The estimator averages over t = N_0 .. T-1 with N_0 = (max word length) + 1
so every z value is in range, dividing by the number of retained samples.

The direct estimator walks the samples once per lag k, in blocks of
_BLOCK samples.  Each sample's k-long mode window is extended by one letter
per lag and mapped to a node of the requested words' suffix tree, and
np.add.at adds y(t) u(t-k)^T and y(t) y(t-k)^T into one bin per node, in
time order, two products per pass as the parts of one complex weight.  On
the leading lags where every one of the D^k windows is a requested word or
a suffix of one (all lags of the search's table), the node is the window's
base-D code, stepped by arithmetic; longer lags look it up in a per-lag
table.  The passes cost O(N * max|w| * n_y * (n_u + n_y))
and the tables O(#words * max|w| * D), independent of how many words share
a length.  Memory grows with the requested words and the block, never with
N or D^|w|.  Data holding a mode outside 1..D are refused.

Every sum over samples runs in numpy's own loops, never in a BLAS product,
so no bit depends on the BLAS thread count: the lags' bins and _mode_sums'
bin per mode (T^{y,y}_{s,s}, and identify's whiteness scores) add in time
order through _add_outer, and Lambda^{y,u}_e and q_u are np.einsum sums.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .algebra import (
    EMPTY_WORD,
    PROB_TOL,
    Word,
    WordIndexedMatrixTable,
    _as_words,
    _check_letters,
    _index_of,
    enumerate_words,
    markov_table,
    word_probability,
)
from .errors import DimensionError, InsufficientDataError, InvalidModeError
from .model import DeterministicModel, SwitchedModel
from .simulate import Dataset, as_count

__all__ = [
    "CovarianceTable",
    "empirical_covariances",
    "exact_covariances",
]


@dataclass
class CovarianceTable:
    """The covariance data consumed by the realization algorithm.

    lambda_yu[w] = Lambda^{y,u}_w (n_y x n_u, includes the empty word),
    lambda_yy[w] = Lambda^{y,y}_w (n_y x n_y),
    t_yy[s - 1] = T^{y,y}_{s,s} for modes s in {1..D}, a (D, n_y, n_y) array,
    q_u = E[u u^T], p = mode probabilities.
    The JSON form keys T^{y,y}_{s,s} by the mode, "1".."D", under "t_yy_sigma".
    metadata records provenance (estimator, sample counts, warnings).
    """

    lambda_yu: WordIndexedMatrixTable
    lambda_yy: WordIndexedMatrixTable
    t_yy: np.ndarray
    q_u: np.ndarray
    p: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.q_u = np.atleast_2d(np.asarray(self.q_u, dtype=float))
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        self.t_yy = np.asarray(self.t_yy, dtype=float)

    @property
    def n_y(self) -> int:
        return self.lambda_yy.shape[0]

    @property
    def n_u(self) -> int:
        return self.lambda_yu.shape[1]

    def validate(self) -> "CovarianceTable":
        n_y, n_u = self.n_y, self.n_u
        if self.lambda_yy.shape != (n_y, n_y):
            raise DimensionError(f"lambda_yy must hold {n_y}x{n_y} matrices, "
                                 f"got {self.lambda_yy.shape}")
        if self.lambda_yu.shape != (n_y, n_u):
            raise DimensionError("lambda_yu shape mismatch")
        if self.q_u.shape != (n_u, n_u):
            raise DimensionError(f"q_u must be {n_u}x{n_u}, got {self.q_u.shape}")
        want = (self.p.shape[0], n_y, n_y)
        if self.t_yy.shape != want:
            raise DimensionError(f"t_yy must have shape {want}, got {self.t_yy.shape}")
        # second moments: a singular q_u is left to psi_uy's rank check
        moments = [("q_u", self.q_u)] + [(f"T_yy[{s}]", m)
                                         for s, m in enumerate(self.t_yy, start=1)]
        for name, m in moments:
            if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
                raise DimensionError(f"{name} is not symmetric")
            eigmin = float(np.linalg.eigvalsh(m).min())
            if eigmin < -1e-8 * max(1.0, float(np.max(np.abs(m)))):
                raise DimensionError(f"{name} has negative eigenvalue {eigmin:.3e}")
        if np.any(self.p <= 0.0) or abs(float(self.p.sum()) - 1.0) > PROB_TOL:
            raise DimensionError(f"invalid probability vector p = {self.p.tolist()}")
        return self

    def to_jsonable(self) -> dict:
        return {
            "n_y": self.n_y,
            "n_u": self.n_u,
            "p": self.p.tolist(),
            "q_u": self.q_u.tolist(),
            "lambda_yu": {str(w): m.tolist() for w, m in self.lambda_yu.items()},
            "lambda_yy": {str(w): m.tolist() for w, m in self.lambda_yy.items()},
            "t_yy_sigma": {str(s): m.tolist() for s, m in enumerate(self.t_yy, start=1)},
            "metadata": self.metadata,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "CovarianceTable":
        """Inverse of to_jsonable; the object's structure is checked here, once.

        A non-object, a missing key, an n_y or n_u that is not a count >= 1,
        a table or metadata that is not an object, a "degenerate_words"
        entry of metadata that is not a list, a matrix that is not finite
        numbers of its shape, or a "t_yy_sigma" that does not key exactly
        the modes "1".."D", D = len(p), raises DimensionError naming the
        field.  A table word with a letter outside 1..D raises
        InvalidModeError naming the table and the word.
        """
        if not isinstance(obj, dict):
            raise DimensionError(
                f"a covariance table must be a JSON object, got {type(obj).__name__}")
        for key in ("n_y", "n_u", "p", "q_u", "lambda_yu", "lambda_yy", "t_yy_sigma"):
            if key not in obj:
                raise DimensionError(f"covariance table lacks the key {key!r}")
        for key in ("lambda_yu", "lambda_yy", "t_yy_sigma", "metadata"):
            if not isinstance(obj.get(key, {}), dict):
                raise DimensionError(
                    f"{key} must be a JSON object, got {type(obj[key]).__name__}")
        # the one metadata entry the realization reads
        degenerate = obj.get("metadata", {}).get("degenerate_words", [])
        if not isinstance(degenerate, list):
            raise DimensionError(f"metadata's degenerate_words must be a list, "
                                 f"got {type(degenerate).__name__}")
        n_y, n_u = as_count(obj["n_y"], "n_y", 1), as_count(obj["n_u"], "n_u", 1)
        tables = {key: WordIndexedMatrixTable.from_pairs(
            shape, ((Word.parse(text), _finite(m, f"{key}[{text!r}]"))
                    for text, m in obj[key].items()))
            for key, shape in (("lambda_yu", (n_y, n_u)), ("lambda_yy", (n_y, n_y)))}
        p = np.atleast_1d(_finite(obj["p"], "p"))
        if p.ndim != 1:
            raise DimensionError(f"p must be a list of numbers, got shape {p.shape}")
        for key, table in tables.items():
            for w in (w for w in table.index if w and max(w) > p.shape[0]):
                raise InvalidModeError(f"{key} word '{w}' has a letter outside "
                                       f"the modes 1..{p.shape[0]}")
        modes = [str(s) for s in range(1, p.shape[0] + 1)]
        t_obj = obj["t_yy_sigma"]
        if set(t_obj) != set(modes):
            raise DimensionError(f"t_yy_sigma must key exactly the modes {modes}, "
                                 f"got {sorted(t_obj)}")
        t_yy = [_finite(t_obj[key], f"t_yy_sigma[{key!r}]") for key in modes]
        for key, m in zip(modes, t_yy):
            if m.shape != (n_y, n_y):
                raise DimensionError(
                    f"t_yy_sigma[{key!r}] must be {n_y}x{n_y}, got shape {m.shape}")
        return cls(**tables, t_yy=np.array(t_yy), q_u=_finite(obj["q_u"], "q_u"), p=p,
                   metadata=dict(obj.get("metadata", {})))


def _finite(value, name: str) -> np.ndarray:
    """value as a float array; DimensionError names a field that is not
    finite numbers in rows of equal length."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or not np.isfinite(out).all():
        raise DimensionError(f"{name} must hold finite numbers in rows of equal length")
    return out


@functools.lru_cache(maxsize=8)
def _ordered_words(words: Tuple[Word, ...]) -> Tuple[Tuple[Word, ...], Mapping, Mapping]:
    """The distinct words in length-then-lex order (a stable sort by length
    of the lex-sorted set), and the row indexes of the estimator's tables:
    Lambda^{y,u}'s over those words and Lambda^{y,y}'s over the nonempty
    ones.  Cached, since repeated estimations ask for the same words, so
    their tables share the indexes."""
    words = tuple(sorted(sorted(set(words)), key=len))
    return words, _index_of(words), _index_of(words[1:] if words and not words[0] else words)


def _prepare(data: Dataset, words: Iterable[Word]):
    """(ordered words, Lambda^{y,u} index, Lambda^{y,y} index), N_0, n_eff."""
    ordered = _ordered_words(_as_words(words))
    words = ordered[0]
    # the words are ordered by length; T^{y,y}_{s,s} reads y(t-1)
    max_len = max(len(words[-1]) if words else 0, 1)
    n0 = max_len + 1
    n_eff = len(data) - n0
    if n_eff <= 0:
        raise InsufficientDataError(
            f"need more than {n0} samples for words up to length {max_len}, got {len(data)}"
        )
    return ordered, n0, n_eff


class _Lag(NamedTuple):
    """One lag k of _suffix_tables."""

    table: np.ndarray    # (#nodes of lag k-1 + 1, D) next node ids
    heads: Tuple[Word, ...]  # the requested words of length k
    letters: np.ndarray  # their letters, (#heads, k)
    ids: np.ndarray      # their node ids
    n_ids: int           # node ids of lag k, "none" included


@functools.lru_cache(maxsize=8)
def _suffix_tables(words: Tuple[Word, ...], n_modes: int) -> Tuple[Tuple[_Lag, ...], int]:
    """Per-lag lookup tables that map mode windows to requested words.

    Returns (levels, n_dense), with levels[k-1] the _Lag of lag k.  The
    node ids of lag k index the k-long suffixes of the requested words, and
    one more id is "none".  table[i, d] is the node reached from node i of
    lag k-1 when the mode k steps back is d+1.  Lag 0 has the root (id 0)
    and "none" (id 1).  A word with a letter outside 1..n_modes raises
    InvalidModeError.

    n_dense counts the leading lags k whose nodes are all D^k windows
    (D = n_modes).  Such a dense lag numbers its nodes in lex order, so a
    window's id is its base-D code with the lag-k letter most significant,
    and the code of lag k is that of lag k-1 plus D^(k-1) (mode(t-k) - 1).
    Any other lag numbers the heads first, in the given order, then the
    other suffixes.  Either way the ids stay below the number of suffixes,
    so no table holds D^k entries for a k that no requested word fills, and
    none overflows.

    The result is cached per (words, n_modes), since repeated estimations
    ask for the same words; callers must not write to its arrays.
    """
    by_len: Dict[int, List[Word]] = {}
    for w in words:
        _check_letters(w, n_modes)
        by_len.setdefault(len(w), []).append(w)
    max_len = max(by_len, default=0)
    # tails[k]: the k-long suffixes of the words longer than k
    tails: List[set] = [set() for _ in range(max_len + 1)]
    for k in range(max_len - 1, 0, -1):
        tails[k] = {v[1:] for v in tails[k + 1]}
        tails[k].update(w[1:] for w in by_len.get(k + 1, ()))
    levels = []
    prev = {(): 0}
    n_dense = 0
    for k in range(1, max_len + 1):
        heads = tuple(by_len.get(k, ()))
        nodes = dict.fromkeys(heads)
        nodes.update(dict.fromkeys(tails[k]))
        if n_dense == k - 1 and len(nodes) == n_modes ** k:
            n_dense = k
            nodes = sorted(nodes)
        nodes = {v: i for i, v in enumerate(nodes)}
        table = np.full((len(prev) + 1, n_modes), len(nodes), dtype=np.intp)
        for v, i in nodes.items():
            table[prev[v[1:]], v[0] - 1] = i
        letters = np.array(heads, dtype=np.intp).reshape(len(heads), k)
        ids = np.array([nodes[w] for w in heads], dtype=np.intp)
        for arr in (table, letters, ids):
            arr.flags.writeable = False
        levels.append(_Lag(table, heads, letters, ids, len(nodes) + 1))
        prev = nodes
    return tuple(levels), n_dense


# samples per block of the walk: a block's work arrays (512 KB in all) stay
# in cache, and the walk makes no array as long as the data
_BLOCK = 16384


def _walk(levels: Tuple[_Lag, ...], n_dense: int, q: np.ndarray, n0: int,
          D: int) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Every sample's node at every lag, block by block.

    Yields (t0, k, node) for each block of samples t = t0 .. t0+len(node)-1
    and each lag k, in time order: node[i] is the id in levels[k-1] of the
    window of modes q(t-k) .. q(t-1).  Lags k <= n_dense step the code in
    place by D^(k-1) (mode(t-k) - 1); the others look it up in the lag's
    table.  node is a work array that the next step overwrites.  Each
    block's modes are widened to intp before any arithmetic, since q may be
    as narrow as int8.  Every mode of q must lie in 1..D.
    """
    T, L = q.shape[0], len(levels)
    if not L:
        return
    node = np.empty(min(_BLOCK, T - n0), dtype=np.intp)
    step = np.empty_like(node)
    for t0 in range(n0, T, _BLOCK):
        n = min(_BLOCK, T - t0)
        nd, st = node[:n], step[:n]
        # digits[L - k + i] is mode(t0 + i - k) - 1
        digits = q[t0 - L:t0 + n - 1].astype(np.intp)
        digits -= 1
        nd.fill(0)
        for k, lag in enumerate(levels, start=1):
            digit = digits[L - k:L - k + n]
            if k <= n_dense:
                nd += np.multiply(digit, D ** (k - 1), out=st)
            else:
                np.multiply(nd, D, out=st)
                st += digit
                lag.table.ravel().take(st, out=nd, mode="clip")
            yield t0, k, nd


def _add_outer(acc: np.ndarray, node: np.ndarray, r: np.ndarray,
               bs: Sequence[np.ndarray], work: np.ndarray) -> None:
    """Adds r(t)_a b(t)_c over the samples of each node, for every b in bs.

    The products, in the order (b, a, c), are paired up as the real and
    imaginary parts of acc's rows: acc[j, i] gains the sums of products 2j
    and 2j+1 over the samples whose node is i.  One complex np.add.at adds
    both in a single pass, each part in time order, as np.bincount would
    add either alone.  work is a complex work array as long as node.
    """
    products = [(r[:, a], b[:, c]) for b in bs
                for a in range(r.shape[1]) for c in range(b.shape[1])]
    for j in range(0, len(products), 2):
        np.multiply(*products[j], out=work.real)
        if j + 1 < len(products):
            np.multiply(*products[j + 1], out=work.imag)
        else:
            work.imag.fill(0.0)
        np.add.at(acc[j // 2], node, work)


def _real_sums(acc: np.ndarray, m: int) -> np.ndarray:
    """The first m sums _add_outer packed into acc, as an (m, #nodes) array."""
    return np.stack([acc.real, acc.imag], axis=1).reshape(-1, acc.shape[1])[:m]


def _mode_sums(r: np.ndarray, b: np.ndarray, modes: np.ndarray, n_modes: int) -> np.ndarray:
    """Sums of r(t) b(t)^T over the samples of each mode, a (D, n_r, n_b) array.

    out[s - 1] adds r(t) b(t)^T over the t with modes(t) = s, in time
    order, block by block through _add_outer.  r, b and modes are aligned
    rows, and every mode lies in 1..n_modes.
    """
    n, n_r, n_b = r.shape[0], r.shape[1], b.shape[1]
    packed = np.zeros(((n_r * n_b + 1) // 2, n_modes), dtype=complex)
    work = np.empty(min(_BLOCK, n), dtype=complex)
    for a in range(0, n, _BLOCK):
        z = min(a + _BLOCK, n)
        node = modes[a:z].astype(np.intp)
        node -= 1
        _add_outer(packed, node, r[a:z], (b[a:z],), work[:z - a])
    return _real_sums(packed, n_r * n_b).reshape(n_r, n_b, n_modes).transpose(2, 0, 1)


def empirical_covariances(
    data: Dataset,
    p: Sequence[float],
    words: Iterable[Word],
) -> CovarianceTable:
    """Direct averaging estimator of the covariance table.

    Fills Lambda^{y,u}_w and Lambda^{y,y}_w for every requested word (the
    empty word contributes only to Lambda^{y,u}), T^{y,y}_{s,s} for every
    mode 1..D, and the empirical q_u.  A word pattern that never occurs
    in the data yields a zero estimate plus a warning recorded under
    metadata["degenerate_words"].  Data holding a mode outside 1..D, D =
    len(p), raise DimensionError, as identify does.

    _walk gives every sample the node of its k-long mode window at each lag
    k: the window's base-D code on the leading lags where all D^k windows
    are nodes, a table lookup on the others.  y(t) u(t-k)^T and
    y(t) y(t-k)^T are added into one bin per node, and the bins of the
    requested words of length k are scaled by 1/(n_eff sqrt(p_w)).
    T^{y,y}_{s,s} is _mode_sums of y(t-1) y(t-1)^T per mode(t-1), scaled by
    1/(n_eff p_s).  Every bin adds its samples in time order, as one
    np.bincount over all of them would; Lambda^{y,u}_e and q_u are np.einsum
    sums, which use no BLAS.
    """
    p = np.asarray(p, dtype=float)
    (words, index_yu, index_yy), n0, n_eff = _prepare(data, words)
    D = p.shape[0]
    word_probability(p, EMPTY_WORD)  # validates p
    levels, n_dense = _suffix_tables(words, D)
    if int(data.q.max()) > D:
        raise DimensionError(f"data uses mode {int(data.q.max())} but p has {D} entries")
    y, u, n_y, n_u = data.y, data.u, data.n_y, data.n_u
    work = np.empty(min(_BLOCK, n_eff), dtype=complex)
    # acc[k-1] packs the sums of y(t) u(t-k)^T and y(t) y(t-k)^T per node of lag k
    acc = [np.zeros(((n_y * (n_u + n_y) + 1) // 2, lag.n_ids), dtype=complex)
           if lag.heads else None for lag in levels]
    for t0, k, node in _walk(levels, n_dense, data.q, n0, D):
        if acc[k - 1] is not None:
            n = node.shape[0]
            _add_outer(acc[k - 1], node, y[t0:t0 + n],
                       (u[t0 - k:t0 - k + n], y[t0 - k:t0 - k + n]), work[:n])

    # each table's rows, lag by lag, in the order of its index
    parts_yu, parts_yy, unproven = [np.empty((0, n_y, n_u))], [np.empty((0, n_y, n_y))], {}
    if words and not words[0]:  # the empty word sorts first
        parts_yu.append((np.einsum("ti,tj->ij", y[n0:], u[n0:]) / n_eff)[None])
    for k, (lag, packed) in enumerate(zip(levels, acc), start=1):
        if not lag.heads:
            continue
        sums = _real_sums(packed, n_y * (n_u + n_y))
        # the product p_w as word_probability takes it, left to right
        p_letters = p[lag.letters - 1]
        probs = p_letters[:, 0]
        for j in range(1, k):
            probs = probs * p_letters[:, j]
        scale = (n_eff * np.sqrt(probs))[:, None, None]
        s_yu = sums[:n_y * n_u].reshape(n_y, n_u, lag.n_ids).transpose(2, 0, 1)[lag.ids] / scale
        s_yy = sums[n_y * n_u:].reshape(n_y, n_y, lag.n_ids).transpose(2, 0, 1)[lag.ids] / scale
        parts_yu.append(s_yu)
        parts_yy.append(s_yy)
        # a nonzero sum of y(t) y(t-k)^T needs a nonzero lagged y, so the
        # word occurs; only words whose sum is zero need the count
        zero = ~s_yy.any(axis=(1, 2))
        if zero.any():
            unproven[k] = zero
    missing = set()
    if unproven:
        # a second walk counts the samples whose lagged y is nonzero
        y_nonzero = np.any(y != 0, axis=1).astype(float)
        counts = {k: np.zeros(levels[k - 1].n_ids) for k in unproven}
        for t0, k, node in _walk(levels, n_dense, data.q, n0, D):
            if k in counts:
                np.add.at(counts[k], node, y_nonzero[t0 - k:t0 - k + node.shape[0]])
        for k, zero in unproven.items():
            lag = levels[k - 1]
            missing.update(lag.heads[i]
                           for i in np.flatnonzero(zero & (counts[k][lag.ids] == 0)))

    lam_yu = WordIndexedMatrixTable((n_y, n_u), index_yu, np.concatenate(parts_yu))
    lam_yy = WordIndexedMatrixTable((n_y, n_y), index_yy, np.concatenate(parts_yy))
    degenerate = [str(w) for w in words if w in missing]
    for text in degenerate:
        warnings.warn(f"word '{text}' never occurs in the data; covariance set to 0")
    y_prev = y[n0 - 1:-1]
    t_yy = _mode_sums(y_prev, y_prev, data.q[n0 - 1:-1], D) / (n_eff * p[:, None, None])
    q_u = np.einsum("ti,tj->ij", u[n0:], u[n0:]) / n_eff
    meta = {"estimator": "direct", "N": len(data), "N_0": n0, "n_eff": n_eff,
            "degenerate_words": degenerate}
    return CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy, t_yy=t_yy,
                           q_u=(q_u + q_u.T) / 2.0, p=p, metadata=meta)


def exact_covariances(
    model: SwitchedModel,
    max_len: int,
) -> CovarianceTable:
    """Ground-truth covariance table of a known model, all words |w| <= max_len.

    Reads one Markov table of the model's associated deterministic
    realization (algebra.markov_table): the first block column gives
    Lambda^{y,u}_w = block * Q_u, the second the noise-part output
    covariances.  The input-part covariances come from the realization's
    sqrt(p)-scaled input blocks (lambda_ydyd over the same words), and the
    per-mode second moments add up as
    T^{y,y}_{s,s} = T^{y_d,y_d}_{s,s} + (1/p_s)(C P_s C^T + F Q_v[s] F^T).
    """
    from .realize import _associated_dlss, lambda_ydyd, state_second_moment

    model.validate()
    P = state_second_moment(model)
    d = _associated_dlss(model, P)
    n_u, n_y = model.n_u, model.n_y
    # the empty word comes first, so the nonempty words are rows 1 on
    words = tuple(enumerate_words(model.n_modes, max_len))
    markov = markov_table(d.A, d.B, d.C, d.Dmat, words)
    lam_yu = WordIndexedMatrixTable((n_y, n_u), markov.index,
                                    markov.array[:, :, :n_u] @ model.Q_u)
    m_input = DeterministicModel(A=d.A, B=d.B[:, :, :n_u], C=d.C, Dmat=d.Dmat[:, :n_u])
    lam_dd, t_dd = lambda_ydyd(m_input, model.Q_u, model.p, markov.index)
    lam_yy = WordIndexedMatrixTable((n_y, n_y), words[1:],
                                    markov.array[1:, :, n_u:] + lam_dd.array[1:])

    t_ys = (model.C @ P @ model.C.T + model.F @ model.Q_v @ model.F.T) / model.p[:, None, None]
    t_yy = t_dd + t_ys
    t_yy = (t_yy + t_yy.transpose(0, 2, 1)) / 2.0

    meta = {"estimator": "exact", "max_len": max_len}
    return CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy, t_yy=t_yy,
                           q_u=model.Q_u.copy(), p=model.p.copy(), metadata=meta).validate()
