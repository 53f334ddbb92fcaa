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

import math
import numbers
import re
from dataclasses import asdict, dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
)
from .algebra import PROB_TOL
from .model import SwitchedModel

__all__ = ["Dataset", "SimConfig", "sample_switching", "simulate"]


@dataclass(frozen=True)
class Dataset:
    """Aligned series y (T x n_y), u (T x n_u), q (T,) with modes in {1..D}.

    q is held as the smallest signed integer type that holds its largest
    mode (`_mode_dtype`): int8 for up to 127 modes.  A series that already
    has that type is kept as it is; any other is narrowed once, after its
    values are checked.  y, u and y_clean are float64.  y_clean, when
    present, is the noise-free output channel y - F v.
    """

    y: np.ndarray
    u: np.ndarray
    q: np.ndarray
    t0: int = 0
    y_clean: Optional[np.ndarray] = None

    def __post_init__(self):
        y, u = as_series(self.y), as_series(self.u)
        q = np.asarray(self.q)
        if q.dtype.kind not in "iu":
            # a fractional or non-finite mode would truncate (or warn) in the cast
            values = q.astype(float)
            bad = ~np.isfinite(values) | (values != np.round(values))
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                raise DimensionError(
                    f"mode series holds the non-integral value {float(values[row])!r} "
                    f"at row {row} (t = {self.t0 + row})"
                )
        if not (y.shape[0] == u.shape[0] == q.shape[0]):
            raise DimensionError(
                f"series lengths differ: y {y.shape[0]}, u {u.shape[0]}, q {q.shape[0]}"
            )
        # the checks read the input's own values, so no mode wraps into range
        if q.size and q.min() < 1:
            raise DimensionError("mode series must be 1-based")
        top = q.max() if q.size else 1
        if top > np.iinfo(np.int64).max:
            raise DimensionError(f"mode series holds the mode {top}, beyond int64")
        q = q.astype(_mode_dtype(int(top)), copy=False)
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
        header = ["t", "q"] + _names("u", self.n_u) + _names("y", self.n_y)
        write_csv(path, header, [self.q, *self.u.T, *self.y.T], t0=self.t0)

    def clean_to_csv(self, path) -> None:
        """Write the noise-free channel as t, y_1.. ."""
        if self.y_clean is None:
            raise DimensionError("dataset has no noise-free channel")
        header = ["t"] + _names("y", self.n_y)
        write_csv(path, header, self.y_clean.T, t0=self.t0)

    @classmethod
    def from_csv(cls, path, clean_path=None) -> "Dataset":
        """Read a dataset CSV written by to_csv (and its clean channel).

        Integer t and q cells, float u and y cells, one row per line; blank
        lines are skipped.  A ragged row or an unparsable cell raises
        ValueError; a header other than t,q,u_1..u_m,y_1..y_n (t,y_1..y_n
        for the clean channel), a file without rows, a t column that does
        not step by one, or a clean channel whose t differs from the
        dataset's raises DimensionError.
        """
        header, rows = _read_csv(path, _dataset_dtype)
        n_u = sum(1 for name in header if name.startswith("u_"))
        if not rows.size:
            raise DimensionError(f"dataset {path} has no rows")
        u = np.ascontiguousarray(rows["v"][:, :n_u])
        y = np.ascontiguousarray(rows["v"][:, n_u:])
        q = rows["q"].copy()
        t0 = int(rows["t"][0])
        del rows  # freed before the clean channel is read
        clean = None
        if clean_path is not None:
            _, clean_rows = _read_csv(clean_path, _series_dtype)
            clean = clean_rows["y"].copy()
            if clean.shape != y.shape:
                raise DimensionError(
                    f"clean channel shape {clean.shape} does not match y {y.shape}"
                )
            if clean_rows["t"][0] != t0:
                raise DimensionError(
                    f"clean channel {clean_path} starts at t = {clean_rows['t'][0]}, "
                    f"the dataset at t = {t0}"
                )
        return cls(y=y, u=u, q=q, t0=t0, y_clean=clean)


def as_series(x) -> np.ndarray:
    """A T x n float array of x; a 1-D x is one channel of T samples."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else np.atleast_2d(x)


def load_series_csv(path) -> np.ndarray:
    """Read a t,y_1..y_n CSV (the noise-free channel format); returns the y block."""
    _, rows = _read_csv(path, _series_dtype)
    return rows["y"].copy()


# Rows per block of `write_csv`.  A block's cell list and text are the
# writer's only temporaries, so this bounds its memory.  Writing a 5e4-row
# dataset on a 2-vCPU Xeon VM: the tracemalloc peak of `Dataset.to_csv` is
# 0.24, 0.43, 0.92, 1.67 and 3.32 MB at 512, 1024, 2048, 4096 and 8192 rows;
# the best time of two sweeps is 20-22 ms up to 2048 rows and 23-26 ms at
# 4096 and 8192 (the host drifted by up to 1.4x between the sweeps).
CSV_BLOCK_ROWS = 1024


def write_csv(path, header, columns, t0) -> None:
    """Write t = t0, t0 + 1, ... and equal-length columns under a header row.

    The header names t first; columns does not hold it.  Each block of
    CSV_BLOCK_ROWS rows makes its own t, so no whole t column is built.

    Integer columns print as digits and float columns as the shortest text
    that reads back bit-identical (float() or np.loadtxt): the cells are
    those of repr() of each column's Python values.  One orjson.dumps
    formats a block's cells, row after row in one flat list; the "," after
    each row's last cell and the closing "]" become line breaks in place.
    Its Ryu digits are repr's, and its layout is too for 0 and for 1e-4 <=
    |x| < 1e16, |x| as a double.  A row with a float cell outside those
    (NaN, inf, nonzero |x| < 1e-4, |x| >= 1e16) is formatted with repr, so
    the bytes are repr's throughout; only a block that holds such a row is
    split into lines.
    """
    import orjson  # here, not at the top: a process that writes no CSV skips its 0.8 MB

    n, width = len(columns[0]), 1 + len(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for a, b in pairwise([*range(0, n, CSV_BLOCK_ROWS), n]):
            cells = [None] * ((b - a) * width)
            for j, part in enumerate([range(t0 + a, t0 + b), *(c[a:b].tolist() for c in columns)]):
                cells[j::width] = part
            text = np.frombuffer(bytearray(orjson.dumps(cells)), np.uint8)[1:]  # past the "["
            text[np.flatnonzero(text == 44)[width - 1::width]] = 10
            text[-1] = 10  # the closing "]"
            mag = np.abs([col[a:b] for col in columns if col.dtype.kind == "f"], dtype=float)
            as_repr = ~(((mag >= 1e-4) & (mag < 1e16)) | (mag == 0)).all(axis=0)
            if as_repr.any():
                lines = text.tobytes().split(b"\n")
                for i in np.flatnonzero(as_repr).tolist():
                    lines[i] = ",".join(map(repr, cells[i * width:(i + 1) * width])).encode()
                text = b"\n".join(lines)
            fh.write(text)


def _dataset_dtype(header):
    n_u = sum(1 for name in header if name.startswith("u_"))
    _check_header(header, ["t", "q"] + _names("u", n_u))
    return [("t", np.int64), ("q", np.int64), ("v", float, (len(header) - 2,))]


def _series_dtype(header):
    _check_header(header, ["t"])
    return [("t", np.int64), ("y", float, (len(header) - 1,))]


def _names(prefix: str, n: int) -> list:
    return [f"{prefix}_{i + 1}" for i in range(n)]


def _check_header(header, head) -> None:
    """header is head followed by y_1..y_n, n >= 1; else DimensionError.

    Cells are read by position, so a header in another order would swap
    columns silently.
    """
    if len(header) <= len(head) or header != head + _names("y", len(header) - len(head)):
        raise DimensionError(f"unexpected header {','.join(header)}; "
                             f"want {','.join(head + ['y_1..y_n'])}")


def _read_csv(path, dtype_of):
    """Header fields and the rows of a CSV as a structured array.

    dtype_of(header) gives the rows' dtype, whose first field is the
    integer t column.  np.loadtxt is handed the path, not the open file:
    given a path, its C reader pulls the text in chunks, where a file
    object is walked as an iterable of lines, one Python str each.  It
    skips empty lines; only when it raises (a whitespace-only line, a bad
    cell) are the open file's lines read into a list for `_parse_rows`,
    which skips whitespace-only lines and names the first bad data row.
    Raises DimensionError, naming the 0-based data row, when t does not
    step by one.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        dtype = np.dtype(dtype_of(header))
        start = fh.tell()
        if not any(map(str.strip, fh)):
            # np.loadtxt warns on input without rows
            return header, np.empty(0, dtype)
        try:
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                              skiprows=1, ndmin=1)
        except ValueError:
            fh.seek(start)
            rows = _parse_rows(list(filter(str.strip, fh)), dtype)
    t = rows["t"]
    jumps = np.flatnonzero(np.diff(t) != 1)
    if jumps.size:
        row = int(jumps[0]) + 1
        raise DimensionError(f"{path}: t goes from {t[row - 1]} to {t[row]} at row {row}; "
                             f"t must step by one")
    return header, rows


def _parse_rows(lines, dtype) -> np.ndarray:
    """Parse CSV lines into a structured array; every row must fill dtype.

    Raises ValueError naming the 0-based data row (blank lines not
    counted, the row Dataset's non-finite check names) for a row with
    another number of cells or a cell that does not parse as its column's
    type; an integer column rejects text such as 1.5 or 1.0.  np.loadtxt
    numbers rows differently by error kind, so its text is not passed on.
    """
    def parse(chunk):
        return np.loadtxt(chunk, dtype=dtype, delimiter=",", comments=None, ndmin=1)

    try:
        return parse(lines)
    except ValueError as exc:
        whole = exc
    # lines[lo:hi] holds the first bad row and every row before lo parses;
    # halving that span parses about len(lines) more rows in all
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    try:
        parse(lines[lo:hi])
    except ValueError as exc:
        found = re.match(r"(.*?) at row \d+(, column \d+)?", str(exc))
        reason, column = found.group(1, 2) if found else (str(exc), None)
        raise ValueError(f"{reason} at row {lo}{column or ''}") from None
    raise whole


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    The model fixes the input's second moment Q_u, so input_dist picks only
    its law: "uniform" draws channel i independently from U(-h_i, h_i) with
    h_i = sqrt(3 Q_u[i, i]), which needs a diagonal Q_u (Q_u = I/3 gives
    U(-1, 1)); "gaussian" draws u ~ N(0, Q_u).  The noise v is always
    Gaussian, with covariance Q_v[s] / p_s in mode s.

    seed, length and burn_in are integers (an integral float such as 2000.0,
    JSON's 2e3, is taken as one) with seed >= 0, length >= 1 and
    burn_in >= 0.  Any other value raises DimensionError naming the field.
    """

    seed: int
    length: int
    burn_in: int = 1000
    input_dist: str = "uniform"

    def __post_init__(self):
        for name, least in (("seed", 0), ("length", 1), ("burn_in", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least))
        if self.input_dist not in ("uniform", "gaussian"):
            raise DimensionError(f"unknown input_dist {self.input_dist!r}")

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SimConfig":
        return cls(**{k: obj[k] for k in obj})


def _is_number(value) -> bool:
    """A finite real that is not a bool (JSON true is no count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value)


def as_count(value, name: str, least: float) -> int:
    """value as an int: an integral number (2000.0 counts) >= least.

    Anything else raises DimensionError naming the field.
    """
    if not _is_number(value) or value != int(value):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DimensionError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _mode_dtype(top: int) -> np.dtype:
    """The smallest signed integer type that holds the modes 1..top."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def sample_switching(p, T: int, rng: np.random.Generator) -> np.ndarray:
    """T i.i.d. modes with P(q = s) = p_s: 1-based values, held as the
    smallest signed integer type that holds len(p) (int8 up to 127 modes).

    A draw r in [0, 1) gets mode 1 plus the number of cumulative sums
    p_1 + ... + p_s <= r for s < len(p); the last sum is never counted, so
    rounding in it cannot push a draw past the last mode.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or abs(float(p.sum()) - 1.0) > PROB_TOL:
        raise InvalidProbabilityError(f"invalid mode probabilities {p}")
    r = rng.random(int(T))
    q = np.ones(r.shape, _mode_dtype(p.shape[0]))
    for edge in np.cumsum(p)[:-1]:
        q += r >= edge
    return q


def _draw_input(model: SwitchedModel, cfg: SimConfig, total: int,
                rng: np.random.Generator) -> np.ndarray:
    if cfg.input_dist == "uniform":
        var = np.diag(model.Q_u)
        if np.any(model.Q_u != np.diag(var)):
            raise ModelInvalidError(
                "uniform input draws independent channels, so it needs a diagonal "
                'Q_u; the model\'s Q_u is not (use "input_dist": "gaussian")')
        # U(-h, h) has second moment h^2 / 3
        h = np.sqrt(3.0 * var)
        u = rng.random((total, model.n_u))
        u *= 2.0 * h
        u -= h
        return u
    L = np.linalg.cholesky(model.Q_u)
    return rng.standard_normal((total, model.n_u)) @ L.T


def _chunk_length(T: int) -> int:
    """Steps per chunk of `affine_scan` over T steps."""
    return max(16, math.isqrt(T // 8))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b, with the bits of a C-ordered a.

    A product of one row or one column is a BLAS matrix-vector call, whose
    sum order follows a's layout, so a is copied to C order for it.
    """
    np.matmul(np.ascontiguousarray(a) if 1 in out.shape else a, b, out=out)


def affine_scan(q: np.ndarray, M: np.ndarray, C: np.ndarray, inputs) -> np.ndarray:
    """Output of a switched affine recursion, evaluated as a chunked scan.

    Returns out(t) = C x(t) + sum_i E_i w_i(t) for t < T, where x(0) = 0 and
    x(t+1) = M_{q(t)} x(t) + sum_i N_{i,q(t)} w_i(t).  q (T,) holds modes
    1..D, M is (D, n, n), and inputs is a sequence of (w_i, N_i, E_i) with
    w_i (T, m_i), N_i (D, n, m_i) and E_i (n_out, m_i), or None when w_i has
    no feedthrough.

    The steps are cut into chunks of L = `_chunk_length(T)` steps.  Pass 1
    advances every chunk that has a successor from a zero state, all chunks
    together one step at a time, to its zero-start response z_c and its
    transition product Phi_c.  Pass 2 chains the start states
    x_{c+1} = Phi_c x_c + z_c, one chunk per step.  Pass 3 reruns every chunk
    from its start state and writes the output rows.  Step k of passes 1 and
    3 reads rows k, k + L, k + 2L, ... of q and the inputs through strided
    views.

    One stacked map G = [M; N_1; ...; N_k | C; E_1; ...] carries a step: a
    chunk's row [x, w_1(row), ..., w_k(row)] times G holds every mode's next
    state and the output row, and one take picks each chunk's mode.  Pass 1
    carries the n rows of Phi_c^T (zero inputs) in the same product.

    The step buffers are feature-major, one column per carried row, and
    np.matmul reads them through their F-ordered transpose.  So the take
    writes every chunk's next state straight into the buffer's n contiguous
    state rows, through a 2-D index whose chunk axis is the contiguous one:
    pass 1 numbers the column for row r of chunk c as r (chunks) + c.  A
    row-major buffer holds each state as an n-wide piece of a longer row:
    at T = 1.01e5, copying a pass-1 step's picked states into those pieces
    took 20-21 us, against 4 us for the same copy into contiguous memory,
    and the whole pick took 41-53 us, against 19-28 us now.

    The products keep the operand values and shapes of the row-major scan,
    whose datasets this scan reproduces bit for bit: BLAS (OpenBLAS 0.3.31
    here) sums a product's rows each on its own, whatever their order, but
    changes the sum order with the product's shape, so G keeps its output
    columns padded to whole n-wide blocks.  A product of one row or column
    is a matrix-vector call, whose order follows the layout (`_matmul`) and,
    past 8 columns of its matrix, a row's place in it: pass 1 at D = n = 1
    keeps the row-major scan's row order.

    Passes 1 and 3 cost L steps each and pass 2 costs T / L.  Measured on a
    2-vCPU Xeon VM (BLAS on one thread; n = 3, D = 2, two inputs), a pass-1,
    pass-2 and pass-3 step cost 13-19, 2-3 and 12-19 us at T = 2000 (125
    chunks), and 50-53, 3 and 38-39 us at T = 1.01e5 (902 chunks), where the
    pass-1 and pass-3 steps grow with the number of chunks they carry.  The
    scan's total time is flat within noise for L = isqrt(T // d) with d from
    2 to 12, so d stays 8.  Buffers hold O(T / L) rows; no (T, n) temporary
    is built.  Against the plain loop, results move only in the last bits.
    """
    T = q.shape[0]
    D, n = M.shape[0], M.shape[1]
    L = _chunk_length(T)
    n_chunks = max(1, -(-T // L))
    n_out = C.shape[0]
    # G's column block s (n wide) holds mode s's next state; the output
    # columns after them are padded to whole blocks, the product shape whose
    # bits the scan keeps
    blocks = D + -(-n_out // n)
    terms = [(None, M, C)] + list(inputs)
    offsets = np.cumsum([0] + [N.shape[2] for _, N, _ in terms])
    G = np.zeros((offsets[-1], blocks * n))
    for (_, N, E), a, b in zip(terms, offsets, offsets[1:]):
        G[a:b, :D * n] = N.transpose(2, 0, 1).reshape(b - a, D * n)
        if E is not None:
            G[a:b, D * n:D * n + n_out] = E.T
    spans = [(w, slice(a, b)) for (w, _, _), a, b in zip(inputs, offsets[1:], offsets[2:])]
    # shift[s] moves a flat product index to mode s's block of n columns.
    # The picks below index in range; take with mode="clip" writes straight
    # into out, where the default mode="raise" goes through a copy of it
    shift = np.arange(D + 1) * n - n

    # pass 1: each of the A = ahead chunks with a successor keeps the column
    # [z_c, w(row)] and the n columns [column j of Phi_c, 0]; column r of
    # chunk c is column r A + c of the step buffer, and its entry j reads its
    # next value from entry ((r A + c) D + q - 1) n + j of the product
    ahead = n_chunks - 1
    head = ahead * L
    K = G.shape[0]
    buf = np.zeros((K, n + 1, ahead))
    buf[:n, 1:] = np.eye(n)[:, :, None]
    step = np.ascontiguousarray(G[:, :D * n])
    prod = np.empty(((n + 1) * ahead, D * n))
    first = (np.arange((n + 1) * ahead).reshape(n + 1, ahead) * (D * n)
             + np.arange(n)[:, None, None])
    pick = np.empty_like(first)
    for k in range(L if head else 0):
        rows = slice(k, head, L)
        for w, span in spans:
            buf[span, 0] = w[rows].T
        if D * n == 1:
            # one product column: a matrix-vector call, whose sum for a row
            # also depends on the row's place, so the rows go in the
            # row-major scan's order, chunk by chunk; the pick is a copy
            by_chunk = np.ascontiguousarray(buf.transpose(2, 1, 0)).reshape(-1, K)
            buf[0] = (by_chunk @ step).reshape(ahead, 2).T
            continue
        np.matmul(buf.reshape(K, -1).T, step, out=prod)
        np.add(first, shift[q[rows]], out=pick)
        np.take(prod, pick, out=buf[:n], mode="clip")

    # pass 2 chains the start states x_{c+1} = x_c Phi_c^T + z_c, which
    # become the state rows of the pass-3 columns [x_c, w(row)]
    starts = np.zeros((n_chunks, n))
    chain = np.ascontiguousarray(buf[:n].transpose(2, 1, 0))
    for x, nxt, phi_t, z in zip(starts, starts[1:], chain[:, 1:], chain[:, 0]):
        np.matmul(x, phi_t, out=nxt)
        nxt += z
    row = np.zeros((K, n_chunks))
    row[:n] = starts.T

    out = np.empty((T, n_out))
    prod = np.empty((n_chunks, blocks * n))
    first = np.arange(n_chunks) * (blocks * n) + np.arange(n)[:, None]
    pick = np.empty_like(first)
    for k in range(min(L, T)):
        rows = slice(k, None, L)
        s = q[rows]
        m = s.shape[0]
        for w, span in spans:
            row[span, :m] = w[rows].T
        _matmul(row[:, :m].T, G, prod[:m])
        out[rows] = prod[:m, D * n:D * n + n_out]
        np.add(first[:, :m], shift[s], out=pick[:, :m])
        np.take(prod, pick[:, :m], out=row[:n, :m], mode="clip")
    return out


def simulate(model: SwitchedModel, cfg: SimConfig) -> Dataset:
    """Generate one stationary-regime trajectory of the model.

    Validates the model first (an unstable model is refused), runs the state
    recursion from x = 0 over burn_in + length steps with `affine_scan`, and
    returns the final `length` samples together with the noise-free channel
    y - F v.
    """
    model.validate()
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    total = cfg.burn_in + cfg.length
    q = sample_switching(model.p, total, rng)
    u = _draw_input(model, cfg, total, rng)

    # v(t) | q(t)=s ~ N(0, Q_v[s] / p_s): one product of each draw with the
    # Cholesky factor of its mode
    chol = np.linalg.cholesky(model.Q_v / model.p[:, None, None])
    v = (chol[q - 1] @ rng.standard_normal((total, model.n_n, 1)))[:, :, 0]

    y_clean = affine_scan(q, model.A, model.C, [(u, model.B, model.Dmat), (v, model.K, None)])
    y = v @ model.F.T
    y += y_clean

    lo = cfg.burn_in
    return Dataset(y=y[lo:], u=u[lo:], q=q[lo:], t0=0, y_clean=y_clean[lo:])
