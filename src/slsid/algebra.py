"""Words over the mode alphabet, Markov values over words, selections, Hankels.

Conventions used throughout the package:

* Modes are 1-based: the alphabet is {1..D}.
* A Word is a validated tuple of its letters: it equals and hashes like the
  plain tuple, so tables keyed by Words hash and compare in C.  Letters are
  checked once, when a Word is made from anything else.
* A word w = s_1 s_2 ... s_k lists modes in time order; the matrix product
  along w multiplies on the LEFT as the word is read, i.e.
  ``A_w = A_{s_k} @ ... @ A_{s_1}`` and ``A_e = I`` for the empty word.
  Consequently ``product(v + w) = product(w) @ product(v)``.
* Markov parameters parse a nonempty word as w = s0 + rest with s0 the FIRST
  letter: ``M(w) = C @ A_rest @ B_{s0}``.  Hankel indexing below composes
  three words under this convention.
* Words serialize as digit strings when every letter is a single digit
  ("121" means s_1=1, s_2=2, s_3=1) and as comma-separated integers
  otherwise ("1,12,3").  The empty word serializes as "e".
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as _cartesian
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    InvalidModeError,
    InvalidProbabilityError,
    MissingMarkovParameterError,
)

__all__ = [
    "Word",
    "EMPTY_WORD",
    "Selection",
    "WordIndexedMatrixTable",
    "markov_table",
    "word_probability",
    "enumerate_words",
    "required_words",
    "build_hankel",
]


class Word(tuple):
    """A finite sequence of modes, each in {1..D}; may be empty.

    A Word is a validated tuple of ints: it equals and hashes like the plain
    tuple of its letters, so hashing, equality, len() and ordering run in C.
    Construction checks the letters once; concatenation of two Words and
    enumerate_words build trusted Words without checking again.
    """

    __slots__ = ()

    def __new__(cls, letters=()):
        letters = tuple(map(int, letters))
        if letters and min(letters) < 1:
            raise InvalidModeError(f"modes are 1-based, got {letters}")
        return tuple.__new__(cls, letters)

    @property
    def letters(self) -> "Word":
        return self

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Inverse of str(): digit string, comma-separated ints, or 'e'/''. """
        text = text.strip()
        if text in ("", "e", "eps"):
            return cls(())
        if "," in text:
            return cls(tuple(int(part) for part in text.split(",")))
        if not text.isdigit():
            raise InvalidModeError(f"cannot parse word {text!r}")
        return cls(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        if not self:
            return "e"
        if max(self) <= 9:
            return "".join(str(s) for s in self)
        return ",".join(str(s) for s in self)

    def __repr__(self) -> str:
        return f"Word(letters={tuple(self)!r})"

    def __add__(self, other: "Word") -> "Word":
        """Concatenation: (self + other) plays self first, then other."""
        # two valid words make a valid one: only a non-Word is checked
        if type(other) is not Word:
            other = Word(other)
        return tuple.__new__(Word, tuple.__add__(self, other))


EMPTY_WORD = Word(())

# a probability vector may miss a sum of 1 by this much; every check of p uses it
PROB_TOL = 1e-12


def _as_word(w) -> Word:
    """w itself when it is a Word (already valid), else Word(w)."""
    return w if type(w) is Word else Word(w)


def _as_words(words: Iterable) -> Tuple[Word, ...]:
    """The words as a tuple of Words; Words pass through without a check."""
    words = tuple(words)
    if set(map(type, words)) <= {Word}:
        return words
    return tuple(map(_as_word, words))


def _check_letters(w: Word, n_modes: int) -> None:
    # a Word's letters are >= 1, so only the upper end needs checking
    letters = _as_word(w)
    if letters and max(letters) > n_modes:
        s = next(s for s in letters if s > n_modes)
        raise InvalidModeError(f"letter {s} outside alphabet {{1..{n_modes}}}")


@functools.lru_cache(maxsize=32)
def _markov_plan(words: Tuple[Word, ...], n_modes: int) -> tuple:
    """Index plan of markov_table for a word list.

    Returns (words, spans, parent, last, rest_ids, nonempty, first, empty):
    the distinct words; the nodes, i.e. the root () and every rest and
    prefix of a rest, ordered by length, with node i made as
    A_{last[i]} @ A_{parent[i]} and the nodes of each length k >= 1
    spanning [lo, hi) in `spans`; the node of each nonempty word's rest,
    those words' positions and 0-based first letters; and the empty word's
    position, or None.  Raises InvalidModeError for a letter outside
    1..n_modes.  Cached per (words, n_modes); the arrays are read-only.
    """
    words = tuple(dict.fromkeys(words))
    # one pass in C over every letter; the per-word check names the culprit
    if max(map(max, filter(None, words)), default=0) > n_modes:
        for w in words:
            _check_letters(w, n_modes)
    nonempty = [i for i, w in enumerate(words) if w]
    rests = {words[i][1:] for i in nonempty}
    nodes = [()] + sorted({r[:k] for r in rests for k in range(1, len(r) + 1)}, key=len)
    ids = {r: i for i, r in enumerate(nodes)}
    edges = np.searchsorted([len(r) for r in nodes], range(1, len(nodes[-1]) + 2))
    plan = (np.array([0] + [ids[r[:-1]] for r in nodes[1:]], dtype=np.intp),
            np.array([0] + [r[-1] - 1 for r in nodes[1:]], dtype=np.intp),
            np.array([ids[words[i][1:]] for i in nonempty], dtype=np.intp),
            np.array(nonempty, dtype=np.intp),
            np.array([words[i][0] - 1 for i in nonempty], dtype=np.intp))
    for arr in plan:
        arr.flags.writeable = False
    empty = words.index(EMPTY_WORD) if len(nonempty) < len(words) else None
    return (words, tuple(zip(edges[:-1], edges[1:]))) + plan + (empty,)


def markov_table(A: np.ndarray, B: np.ndarray, C: np.ndarray, Dmat: np.ndarray,
                 words: Union[Iterable[Word], Mapping[Word, int]]) -> WordIndexedMatrixTable:
    """Markov values of (A, B, C, Dmat) over a word set, as one table.

    M(w) = C A_rest B_{s0} for w = s0 + rest, and M(e) = Dmat; A is a
    (D, n, n) float array, B a (D, n, m) one and C an (r, n) one.  The
    table's rows follow the words' first appearance; words may be a
    table's `index`, which the returned table then shares.  Every word's
    letters are checked against 1..D.

    The products go level by level through a plan cached per word list
    (_markov_plan): A_rest for all rests (and their prefixes) of length k
    is one stacked matmul A_last @ A_(rest minus last) on those of length
    k-1, then C A_rest and C A_rest @ B_s0 are one stacked matmul each.
    These are the matmuls of the per-word chain C @ (A_{s_k} @ ... @ A_{s_1}
    @ I) @ B_s0, so every value has its bits.
    """
    distinct, spans, parent, last, rest_ids, nonempty, first, empty = _markov_plan(
        _as_words(words), A.shape[0])
    along = np.empty((len(parent),) + A.shape[1:])
    along[0] = np.eye(A.shape[1])
    for lo, hi in spans:
        along[lo:hi] = A[last[lo:hi]] @ along[parent[lo:hi]]
    values = np.empty((len(distinct), C.shape[0], B.shape[2]))
    values[nonempty] = (C @ along)[rest_ids] @ B[first]
    if empty is not None:
        values[empty] = Dmat
    shared = isinstance(words, MappingProxyType)
    return WordIndexedMatrixTable(values.shape[1:], words if shared else distinct, values)


def word_probability(p: Sequence[float], w: Word) -> float:
    """Product of mode probabilities along a word; 1.0 for the empty word."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise InvalidProbabilityError(f"probabilities must be positive, got {p}")
    if abs(float(p.sum()) - 1.0) > PROB_TOL:
        raise InvalidProbabilityError(f"probabilities sum to {float(p.sum())!r}, not 1")
    _check_letters(w, len(p))
    out = 1.0
    for s in w:
        out *= float(p[s - 1])
    return out


def enumerate_words(n_modes: int, max_len: int, min_len: int = 0) -> Iterator[Word]:
    """All words with min_len <= |w| <= max_len in length-then-lex order."""
    if n_modes < 1:
        raise InvalidModeError("need at least one mode")
    for k in range(min_len, max_len + 1):
        # letters drawn from 1..n_modes make a valid Word: no check
        for letters in _cartesian(range(1, n_modes + 1), repeat=k):
            yield tuple.__new__(Word, letters)


def _is_a(value, kind: type) -> bool:
    """A JSON string (kind str) or an integral number but not a bool (kind int)."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, str) if kind is str else integral and not isinstance(value, bool)


@dataclass(frozen=True)
class Selection:
    """Row/column index sets for the reduced Hankel matrices.

    alpha holds n pairs (u_i, k_i): word u_i and a row index k_i in {1..n_y}.
    beta holds n triples (sigma_j, v_j, l_j): a mode, a word, and a column
    index l_j in {1..n_cols}.  Indices are 1-based to match the conventions
    of the rest of the package.  Empty words are allowed in either list
    (A_e = I extends every index formula).
    """

    alpha: Tuple[Tuple[Word, int], ...]
    beta: Tuple[Tuple[int, Word, int], ...]
    n_modes: int
    n_y: int
    n_cols: int

    def __post_init__(self):
        alpha = tuple((_as_word(u), int(k)) for (u, k) in self.alpha)
        beta = tuple((int(s), _as_word(v), int(l)) for (s, v, l) in self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        n = len(alpha)
        if len(beta) != n or n == 0:
            raise DimensionError(
                f"alpha and beta must have equal positive length, got {n} and {len(beta)}"
            )
        for u, k in alpha:
            _check_letters(u, self.n_modes)
            if len(u) > n:
                raise DimensionError(f"|{u}| = {len(u)} exceeds n = {n}")
            if not 1 <= k <= self.n_y:
                raise DimensionError(f"row index {k} outside 1..{self.n_y}")
        for s, v, l in beta:
            if not 1 <= s <= self.n_modes:
                raise InvalidModeError(f"mode {s} outside 1..{self.n_modes}")
            _check_letters(v, self.n_modes)
            if len(v) > n:
                raise DimensionError(f"|{v}| = {len(v)} exceeds n = {n}")
            if not 1 <= l <= self.n_cols:
                raise DimensionError(f"column index {l} outside 1..{self.n_cols}")

    @property
    def n(self) -> int:
        return len(self.alpha)

    def to_jsonable(self) -> dict:
        return {
            "alpha": [[str(u), k] for u, k in self.alpha],
            "beta": [[s, str(v), l] for s, v, l in self.beta],
        }

    @classmethod
    def from_jsonable(cls, obj, n_modes: int, n_y: int, n_cols: int,
                      name: str = "selection") -> "Selection":
        """Inverse of to_jsonable(): alpha entries [word, row] and beta entries
        [mode, word, column], each word a string and each index an integer.

        An object of another structure raises ConfigError naming `name` and
        the field; the constructor checks the entries' values.
        """
        if not isinstance(obj, dict):
            raise ConfigError(f"{name} must be a JSON object, got {type(obj).__name__}")
        for key, layout, kinds in (("alpha", "[word, row]", (str, int)),
                                   ("beta", "[mode, word, column]", (int, str, int))):
            entries = obj.get(key)
            if not isinstance(entries, list):
                raise ConfigError(f"{name} needs {key!r}, a list of {layout} entries")
            for i, entry in enumerate(entries):
                if (not isinstance(entry, list) or len(entry) != len(kinds)
                        or not all(map(_is_a, entry, kinds))):
                    raise ConfigError(
                        f"{name} {key!r} entry {i} must be {layout} with the word a "
                        f"string and integer indices, got {entry!r}")
        alpha = tuple((Word.parse(u), int(k)) for u, k in obj["alpha"])
        beta = tuple((int(s), Word.parse(v), int(l)) for s, v, l in obj["beta"])
        return cls(alpha, beta, n_modes, n_y, n_cols)


def _index_of(words: Sequence[Word]) -> Mapping[Word, int]:
    """Read-only map from each of the distinct words to its position."""
    words = _as_words(words)
    index = dict(zip(words, range(len(words))))
    if len(index) < len(words):
        raise DimensionError("a table's words must be distinct")
    return MappingProxyType(index)


class WordIndexedMatrixTable:
    """Map from Word to matrices of one fixed shape, built once.

    A table is made from distinct words and one (n_words, rows, cols)
    array, `array`, kept and not copied: the matrix of words[i] is
    array[i], and a read-only word -> row `index` finds it.  A table made
    over another table's `index` in place of a word list shares it, so the
    tables derived from one set of words hold one index between them.  Bulk
    code reads `array` through `rows_of(words)`; single entries read
    through [].  Looking up a missing word raises
    MissingMarkovParameterError rather than returning a default.
    """

    def __init__(self, shape: Tuple[int, int],
                 words: Union[Sequence[Word], Mapping[Word, int]], array: np.ndarray):
        rows, cols = int(shape[0]), int(shape[1])
        if rows < 1 or cols < 1:
            raise DimensionError(f"table shape must be positive, got {shape}")
        self.shape = (rows, cols)
        self._index = words if isinstance(words, MappingProxyType) else _index_of(words)
        self._array = np.asarray(array, dtype=float)
        if self._array.shape != (len(self._index),) + self.shape:
            raise DimensionError(
                f"array of shape {self._array.shape} does not hold {len(self._index)} "
                f"matrices of shape {self.shape}"
            )

    @classmethod
    def from_pairs(cls, shape: Tuple[int, int],
                   pairs: Iterable[Tuple[Word, np.ndarray]]) -> "WordIndexedMatrixTable":
        """Table of (word, matrix) pairs, its rows in the order the words first
        appear; a later pair for a word replaces its matrix.  A matrix of
        another shape raises DimensionError naming its word."""
        shape = (int(shape[0]), int(shape[1]))
        entries: Dict[Word, np.ndarray] = {}
        for w, value in pairs:
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise DimensionError(f"matrix for word '{w}' has shape {value.shape}, "
                                     f"table holds {shape}")
            entries[_as_word(w)] = value
        return cls(shape, tuple(entries), np.array(list(entries.values())).reshape(
            (len(entries),) + shape))

    @property
    def index(self) -> Mapping[Word, int]:
        """Read-only map from each stored word to its row in `array`."""
        return self._index

    @property
    def array(self) -> np.ndarray:
        """The (n_words, rows, cols) stack of the matrices, in row order."""
        return self._array

    def rows_of(self, words: Sequence[Word]) -> np.ndarray:
        """Row of each word in `array`; the first missing word raises
        MissingMarkovParameterError."""
        index = self._index
        try:
            return np.fromiter(map(index.__getitem__, words), dtype=np.intp,
                               count=len(words))
        except KeyError as exc:
            raise MissingMarkovParameterError(str(_as_word(exc.args[0]))) from None

    def __getitem__(self, w: Word) -> np.ndarray:
        # a Word is valid already; any other key is checked on every access
        key = w if type(w) is Word else Word(w)
        try:
            return self._array[self._index[key]]
        except KeyError:
            raise MissingMarkovParameterError(str(w)) from None

    def __contains__(self, w: Word) -> bool:
        return (w if type(w) is Word else Word(w)) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def words(self) -> List[Word]:
        """Stored words in length-then-lex order."""
        return sorted(sorted(self._index), key=len)

    def items(self) -> Iterable[Tuple[Word, np.ndarray]]:
        for w in self.words():
            yield w, self[w]


def required_words(sel: Selection) -> frozenset:
    """Every word whose Markov value one of sel's four Hankels reads.

    These are the words of _hankel_plan: sigma_j v_j, sigma_j v_j u_i,
    sigma_j v_j sigma u_i and sigma u_i, with sigma ranging over the whole
    alphabet.  Words compose in time order: the sigma_j letter plays first,
    then v_j, then (for the shifted matrices) sigma, then u_i.  Each starts
    with a letter, so the empty word is never among them.
    """
    return frozenset(map(Word, _hankel_plan(sel.alpha, sel.beta, sel.n_modes)[0]))


@functools.lru_cache(maxsize=256)
def _hankel_plan(alpha: tuple, beta: tuple, n_modes: int) -> tuple:
    """Where each entry of the four Hankels over rows alpha and columns beta
    (a Selection's, or the search's pools, of m and n entries) finds its word.
    n_modes = 0 leaves out the shifted Hankels' words, for H alone.

    Returns (words, pos_H, pos_S, pos_A, pos_B, k, l): the distinct words
    the Hankels read (as plain tuples, which find the same table rows as
    Words), in the order a loop over j, i and sigma first reads them; the
    position in `words` of each entry's word, as arrays shaped like
    H (m, n), H_sigma (D, m, n), H_alpha_sigma (D, m) and H_beta (n,); and
    the 0-based row indices k_i and column indices l_j.  Cached; the arrays
    are read-only.
    """
    order: Dict[tuple, int] = {}

    def at(w: tuple) -> int:
        return order.setdefault(w, len(order))

    m, n = len(alpha), len(beta)
    rows = [[(sig,) + u for sig in range(1, n_modes + 1)] for u, _ in alpha]
    pos_H = np.empty((m, n), dtype=np.intp)
    pos_S = np.empty((n_modes, m, n), dtype=np.intp)
    pos_B = np.empty(n, dtype=np.intp)
    for j, (s, v, _) in enumerate(beta):
        head = (s,) + v
        pos_B[j] = at(head)
        for i, (u, _) in enumerate(alpha):
            pos_H[i, j] = at(head + u)
            pos_S[:, i, j] = [at(head + su) for su in rows[i]]
    pos_A = np.array([[at(su) for su in shifted] for shifted in rows], dtype=np.intp).T
    k = np.array([k - 1 for _, k in alpha], dtype=np.intp)
    l = np.array([l - 1 for _, _, l in beta], dtype=np.intp)
    plan = (pos_H, pos_S, pos_A, pos_B, k, l)
    for arr in plan:
        arr.flags.writeable = False
    return (tuple(order),) + plan


def build_hankel(
    sel: Selection, M: WordIndexedMatrixTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the four Hankel matrices of a Markov-function table.

    Returns (H, H_sigma, H_alpha_sigma, H_beta) with

      H[i, j]             = M(sigma_j v_j u_i)[k_i, l_j]          (n x n)
      H_sigma[s][i, j]    = M(sigma_j v_j (s+1) u_i)[k_i, l_j]    (D x n x n)
      H_alpha_sigma[s][i] = M((s+1) u_i)[k_i, :]                  (D x n x n_cols)
      H_beta[:, j]        = M(sigma_j v_j)[:, l_j]                (n_y x n)

    where s is the 0-based position of mode s+1.  Each is one gather from
    the table's array through the selection's cached index plan.  Missing
    words raise MissingMarkovParameterError naming the first one a loop
    over j, i and sigma would read.
    """
    if M.shape != (sel.n_y, sel.n_cols):
        raise DimensionError(
            f"table shape {M.shape} does not match selection ({sel.n_y}, {sel.n_cols})"
        )
    words, pos_H, pos_S, pos_A, pos_B, k, l = _hankel_plan(sel.alpha, sel.beta, sel.n_modes)
    rows = M.rows_of(words)
    values = M.array
    H = values[rows[pos_H], k[:, None], l]
    H_sigma = values[rows[pos_S], k[:, None], l]
    H_alpha_sigma = values[rows[pos_A], k]
    H_beta = np.ascontiguousarray(values[rows[pos_B], :, l].T)
    return H, H_sigma, H_alpha_sigma, H_beta
