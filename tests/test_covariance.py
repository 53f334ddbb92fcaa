import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    CovarianceTable,
    Dataset,
    DimensionError,
    EMPTY_WORD,
    InsufficientDataError,
    InvalidModeError,
    InvalidProbabilityError,
    SimConfig,
    Word,
    empirical_covariances,
    enumerate_words,
    exact_covariances,
    model_from_dict,
    simulate,
)
from slsid.algebra import word_probability
from slsid.covariance import _BLOCK, _suffix_tables

from oracles import (
    IllConditionedRegressorError,
    _z_block,
    least_squares_covariances,
    load_tool,
    per_word_exact_covariances,
    z_process,
)


# ---------------------------------------------------------------- z-process


def test_z_process_hand_values():
    b = np.array([[1.0], [2.0], [3.0]])
    q = np.array([1, 1, 2])
    p = (0.5, 0.5)
    # empty word: the current sample, no scaling
    assert z_process(b, q, p, EMPTY_WORD, 2)[0] == 3.0
    # w = (1): previous sample, scaled by 1/sqrt(p_1), indicator on q(t-1)
    assert z_process(b, q, p, Word((1,)), 1)[0] == pytest.approx(1.0 / np.sqrt(0.5))
    assert z_process(b, q, p, Word((1,)), 2)[0] == pytest.approx(2.0 / np.sqrt(0.5))
    # mode mismatch zeroes the value
    assert z_process(b, q, p, Word((2,)), 2)[0] == 0.0
    # w = (1, 1): needs q(t-2) = q(t-1) = 1
    assert z_process(b, q, p, Word((1, 1)), 2)[0] == pytest.approx(1.0 / 0.5)
    with pytest.raises(IndexError):
        z_process(b, q, p, Word((1,)), 0)


def test_z_process_takes_a_one_dimensional_signal_as_one_channel():
    b = np.arange(10.0)
    q = np.array([1, 2] * 5)
    for w, t in ((Word((1,)), 3), (Word((2, 1)), 3), (EMPTY_WORD, 9)):
        assert np.array_equal(z_process(b, q, (0.5, 0.5), w, t),
                              z_process(b[:, None], q, (0.5, 0.5), w, t))
    assert z_process(b, q, (0.5, 0.5), Word((1,)), 3)[0] == pytest.approx(2.0 / np.sqrt(0.5))


# ---------------------------------------------------------------- direct


def hand_dataset():
    y = np.array([[1.0], [2.0], [-1.0], [3.0], [0.5], [-2.0], [1.5], [4.0]])
    u = np.array([[0.3], [-0.7], [0.2], [0.9], [-0.4], [0.6], [-0.1], [0.8]])
    q = np.array([1, 2, 1, 1, 2, 1, 2, 2])
    return Dataset(y=y, u=u, q=q)


def test_empirical_matches_hand_sums():
    data = hand_dataset()
    p = (0.5, 0.5)
    words = [EMPTY_WORD, Word((1,)), Word((2, 1))]
    with pytest.warns(UserWarning):  # the probe word below never occurs
        cov = empirical_covariances(data, p, words + [Word((2, 2))])
    n0 = 3  # longest word has length 2, so averaging starts at t = 3
    n_eff = len(data) - n0
    assert cov.metadata["N_0"] == n0 and cov.metadata["n_eff"] == n_eff

    y, u, q = data.y[:, 0], data.u[:, 0], data.q
    want_eps = sum(y[t] * u[t] for t in range(n0, 8)) / n_eff
    assert cov.lambda_yu[EMPTY_WORD][0, 0] == pytest.approx(want_eps, abs=1e-12)

    want_1 = sum(y[t] * u[t - 1] * (q[t - 1] == 1) for t in range(n0, 8))
    want_1 /= n_eff * np.sqrt(0.5)
    assert cov.lambda_yu[Word((1,))][0, 0] == pytest.approx(want_1, abs=1e-12)

    want_21 = sum(y[t] * u[t - 2] * (q[t - 2] == 2 and q[t - 1] == 1)
                  for t in range(n0, 8))
    want_21 /= n_eff * np.sqrt(0.25)
    assert cov.lambda_yu[Word((2, 1))][0, 0] == pytest.approx(want_21, abs=1e-12)

    want_yy = sum(y[t] * y[t - 1] * (q[t - 1] == 1) for t in range(n0, 8))
    want_yy /= n_eff * np.sqrt(0.5)
    assert cov.lambda_yy[Word((1,))][0, 0] == pytest.approx(want_yy, abs=1e-12)

    # T^{y,y}_{1,1} is the second moment of z^y_(1)(t) = y(t-1) 1{q(t-1)=1} / sqrt(p_1)
    want_t1 = sum(y[t - 1] ** 2 * (q[t - 1] == 1) for t in range(n0, 8)) / (n_eff * 0.5)
    assert cov.t_yy[0][0, 0] == pytest.approx(want_t1, abs=1e-12)

    want_qu = sum(u[t] ** 2 for t in range(n0, 8)) / n_eff
    assert cov.q_u[0, 0] == pytest.approx(want_qu, abs=1e-12)

    assert EMPTY_WORD not in cov.lambda_yy
    assert cov.metadata["degenerate_words"] == ["22"]
    assert cov.lambda_yy[Word((2, 2))][0, 0] == 0.0


def test_empirical_requires_enough_samples():
    data = hand_dataset()
    with pytest.raises(InsufficientDataError):
        empirical_covariances(data.slice(0, 4), (0.5, 0.5),
                              [Word((1, 1, 1))])


# ---------------------------------------------------------------- per-lag kernel vs per-word oracle


def per_word_oracle(data, p, words):
    """The direct estimator written word by word from _z_block.

    Returns (lambda_yu, lambda_yy, degenerate words, t_yy, q_u, size) for
    the same N_0 the estimator uses, with t_yy[s - 1] = T^{y,y}_{s,s}.
    size holds, per table ("yu", "yy", "t_yy", "q_u"), each entry's sum
    of |y(t)| |z(t)|ᵀ / n_eff: the sum of the magnitudes of its terms.
    """
    words = sorted(set(words), key=lambda w: (len(w), w))
    n0 = max([len(w) for w in words] + [1]) + 1
    n_eff = len(data) - n0

    def moment(a, b):
        return a.T @ b / n_eff, np.abs(a).T @ np.abs(b) / n_eff

    y_block = data.y[n0:]
    lam_yu, lam_yy, degenerate = {}, {}, []
    size = {"yu": {}, "yy": {}}
    for w in words:
        lam_yu[w], size["yu"][w] = moment(y_block, _z_block(data.u, data.q, p, w, n0))
        if len(w) > 0:
            z_y = _z_block(data.y, data.q, p, w, n0)
            lam_yy[w], size["yy"][w] = moment(y_block, z_y)
            if not np.any(z_y):
                degenerate.append(str(w))
    t_yy = [moment(z, z) for z in (_z_block(data.y, data.q, p, Word((s,)), n0)
                                   for s in range(1, len(p) + 1))]
    size["t_yy"] = np.array([s for _, s in t_yy])
    q_u, size["q_u"] = moment(data.u[n0:], data.u[n0:])
    return lam_yu, lam_yy, degenerate, np.array([m for m, _ in t_yy]), q_u, size


def assert_close_entries(got, want, size):
    """got[key] matches want[key] entry by entry to 1e-12 of the entry and
    1e-12 of size[key], the sum of the magnitudes of the entry's terms.

    Two summation orders of one sum of n terms differ by at most about
    n·eps times that sum, so a cancelled sum, small beside its terms, is
    held to the rounding its terms allow.
    """
    for key, m in want.items():
        assert np.shape(got[key]) == np.shape(m), f"entry {key}: shape"
        err = np.abs(np.asarray(got[key]) - m)
        tol = 1e-12 * (np.asarray(size[key]) + np.abs(m))
        assert np.all(err <= tol), f"entry {key}: got {got[key]}, want {m}, |error| {err} > {tol}"


def assert_matches_oracle(data, p, words):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cov = empirical_covariances(data, p, words)
    want_yu, want_yy, want_degenerate, want_t_yy, want_q_u, size = per_word_oracle(data, p, words)
    for got, want, key in ((cov.lambda_yu, want_yu, "yu"), (cov.lambda_yy, want_yy, "yy")):
        assert got.words() == sorted(want, key=lambda w: (len(w), w))
        assert_close_entries(got, want, size[key])
    assert cov.t_yy.shape == want_t_yy.shape
    assert_close_entries(dict(enumerate(cov.t_yy)), dict(enumerate(want_t_yy)),
                         dict(enumerate(size["t_yy"])))
    assert_close_entries({"q_u": cov.q_u}, {"q_u": want_q_u}, {"q_u": size["q_u"]})
    assert cov.metadata["degenerate_words"] == want_degenerate
    assert [str(c.message) for c in caught] == [
        f"word '{w}' never occurs in the data; covariance set to 0"
        for w in want_degenerate]
    return cov


def random_dataset(seed, n, n_y, n_u, n_letters, zero_rows=0.0):
    """Random signals over modes 1..n_letters; a share of y rows set to 0."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, n_y))
    y[rng.random(n) < zero_rows] = 0.0
    return Dataset(y=y, u=rng.normal(size=(n, n_u)),
                   q=rng.integers(1, n_letters + 1, size=n))


@st.composite
def estimation_cases(draw):
    D = draw(st.integers(1, 3))
    letters = st.lists(st.integers(1, D), max_size=5).map(lambda s: Word(tuple(s)))
    words = draw(st.lists(letters, min_size=1, max_size=12))
    if draw(st.booleans()):
        words.append(EMPTY_WORD)
    raw_p = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=D, max_size=D)))
    data = random_dataset(draw(st.integers(0, 2**32 - 1)), draw(st.integers(20, 300)),
                          draw(st.integers(1, 2)), draw(st.integers(1, 2)), D,
                          zero_rows=draw(st.sampled_from([0.0, 0.5, 0.95])))
    return data, raw_p / raw_p.sum(), words, draw(st.integers(1, 2))


@settings(deadline=None, max_examples=150)
@given(estimation_cases())
def test_empirical_matches_per_word_oracle(case):
    data, p, words, extra = case
    assert_matches_oracle(data, p, words)
    # one sample of a mode above D = len(p), and the data are refused
    q = data.q.astype(np.int64)
    q[len(q) // 2] = len(p) + extra
    with pytest.raises(DimensionError,
                       match=f"^data uses mode {len(p) + extra} but p has {len(p)} entries$"):
        empirical_covariances(Dataset(y=data.y, u=data.u, q=q), p, words)


def test_a_cancelled_entry_is_held_to_the_size_of_its_terms():
    # lambda^{y,y}_212 sums to -3.3e-7 from terms of order 0.1. A second
    # summation order may move it by about n·eps·size: an error of
    # 1e-14·size is more than 1e-12 of the entry itself (the old scale,
    # the table's largest entry) but far less than 1e-12 of the sum of |terms|
    data = random_dataset(94290, 175, 1, 1, 2, zero_rows=0.5)
    p, word = (2 / 3, 1 / 3), Word((2, 1, 2))
    got = empirical_covariances(data, p, [word]).lambda_yy[word]
    _, want, *_, size = per_word_oracle(data, p, [word])
    want, size = want[word], size["yy"][word]
    assert abs(want[0, 0]) < 1e-5 * size[0, 0]
    reordered = want + 1e-14 * size
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(reordered, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
    assert_close_entries({word: reordered}, {word: want}, {word: size})
    assert_close_entries({word: got}, {word: want}, {word: size})
    assert_matches_oracle(data, p, [word])


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("n_y,n_u", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_empirical_matches_oracle_on_all_short_words(D, n_y, n_u):
    data = random_dataset(D * 10 + n_y * 3 + n_u, 400, n_y, n_u, D)
    p = np.arange(1.0, D + 1) / np.sum(np.arange(1.0, D + 1))
    assert_matches_oracle(data, p, list(enumerate_words(D, 4)))


def test_empirical_takes_tuple_and_list_words_as_words():
    data = random_dataset(3, 500, 2, 2, 2)
    p = (0.3, 0.7)
    words = list(enumerate_words(2, 8))
    raw = [list(w.letters) if i % 2 else tuple(w.letters) for i, w in enumerate(words)]
    by_word = assert_matches_oracle(data, p, words)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the length-8 words that never occur
        by_raw = empirical_covariances(data, p, raw + words[:5])
    assert json.dumps(by_raw.to_jsonable()) == json.dumps(by_word.to_jsonable())


def test_modes_outside_the_alphabet_are_refused():
    # p_w describes no window holding mode 3 when p has 2 entries; read as
    # a base-2 digit, mode 3 would alias onto another word
    data = random_dataset(5, 200, 1, 1, 3)
    only_3 = Dataset(y=data.y, u=data.u, q=np.full(len(data), 3))
    for d in (data, only_3):
        with pytest.raises(DimensionError, match="^data uses mode 3 but p has 2 entries$"):
            empirical_covariances(d, (0.5, 0.5), list(enumerate_words(2, 3)))


def test_an_int8_series_takes_an_alphabet_beyond_int8():
    # modes 1..3 make q int8 while p has 200 entries: the walk's digits
    # q - 1 and the T_yy bins must be computed in intp, not int8
    data = random_dataset(17, 400, 1, 1, 3)
    assert data.q.dtype == np.int8
    p = np.arange(1.0, 201) / np.sum(np.arange(1.0, 201))
    words = list(enumerate_words(200, 1)) + [Word((1, 2)), Word((3, 1)), Word((150, 2))]
    assert _suffix_tables(tuple(sorted(words, key=lambda w: (len(w), w))), 200)[1] == 1
    assert_matches_oracle(data, p, words)


def test_word_that_never_occurs_is_degenerate():
    data = hand_dataset()
    q = np.array([1, 1, 1, 2, 1, 1, 1, 1])
    data = Dataset(y=data.y, u=data.u, q=q)
    cov = assert_matches_oracle(data, (0.5, 0.5),
                                [Word((2, 2)), Word((1,)), Word((2, 1)), Word((1, 2, 2))])
    assert cov.metadata["degenerate_words"] == ["22", "122"]
    assert not np.any(cov.lambda_yu[Word((2, 2))])


def test_word_occurs_when_only_its_lagged_output_is_nonzero():
    # y is zero at every odd t, so y(t) y(t-k)^T is zero for every odd k
    # although the lagged y of half the samples is not: those words occur
    data = random_dataset(11, 300, 1, 1, 2)
    y = data.y.copy()
    y[1::2] = 0.0
    data = Dataset(y=y, u=data.u, q=data.q)
    words = list(enumerate_words(2, 3, min_len=1))
    cov = assert_matches_oracle(data, (0.5, 0.5), words)
    assert cov.metadata["degenerate_words"] == []
    assert not np.any(cov.lambda_yy[Word((1,))]) and not np.any(cov.lambda_yy[Word((2, 1, 2))])


@pytest.mark.parametrize("k", [64, 65])
def test_long_word_does_not_overflow(k):
    # A k-letter base-2 code needs k bits: past 63 a signed int64 code wraps,
    # and past 64 words that differ in their first letter share one code.
    data = random_dataset(7, 200, 1, 1, 2)
    t = 150
    w = Word(tuple(data.q[t - k:t]))
    flip_first = Word((3 - w.letters[0],) + w.letters[1:])
    flip_last = Word(w.letters[:-1] + (3 - w.letters[-1],))
    cov = assert_matches_oracle(data, (0.5, 0.5), [w, flip_first, flip_last, Word((1,))])
    assert str(w) not in cov.metadata["degenerate_words"]


def test_sparse_request_memory_scales_with_words():
    D, k = 12, 8
    data = random_dataset(9, 2000, 1, 1, D)
    w = Word(tuple(data.q[1500 - k:1500]))
    p = np.full(D, 1.0 / D)
    tracemalloc.start()
    try:
        cov = empirical_covariances(data, p, [w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # a dense table of all 12^8 words would take ~3.4 GB
    assert_matches_oracle(data, p, [w])
    assert cov.metadata["degenerate_words"] == []


# ---------------------------------------------------------------- code walk vs table walk


def table_walk_reference(data, p, words):
    """The estimator's walk with a table lookup at every lag, over all samples at once.

    Every sample's node comes from the lag's table (never from its base-D
    code), and one np.bincount per product and lag adds it over all
    samples.  Returns (lambda_yu, lambda_yy, degenerate words).
    """
    p = np.asarray(p, dtype=float)
    D, T = len(p), len(data)
    words = tuple(sorted(set(map(Word, words)), key=lambda w: (len(w), w)))
    n0 = max([len(w) for w in words] + [1]) + 1
    n_eff = T - n0
    levels, _ = _suffix_tables(words, D)
    digit = data.q.astype(np.intp) - 1
    y_block = data.y[n0:]
    y_nonzero = np.any(data.y != 0, axis=1).astype(float)
    lam_yu, lam_yy, degenerate = {}, {}, []
    if words and not words[0]:
        lam_yu[EMPTY_WORD] = np.einsum("ti,tj->ij", y_block, data.u[n0:]) / n_eff
    node = np.zeros(n_eff, dtype=np.intp)
    for k, (table, heads, _, ids, n_ids) in enumerate(levels, start=1):
        node = table.ravel().take(node * D + digit[n0 - k:T - k])

        def sums(b):
            out = np.empty((n_ids, y_block.shape[1], b.shape[1]))
            for i in range(y_block.shape[1]):
                for j in range(b.shape[1]):
                    out[:, i, j] = np.bincount(node, weights=y_block[:, i] * b[:, j],
                                               minlength=n_ids)
            return out

        s_yu, s_yy = sums(data.u[n0 - k:T - k]), sums(data.y[n0 - k:T - k])
        occurs = np.bincount(node, weights=y_nonzero[n0 - k:T - k], minlength=n_ids) > 0
        for w, i in zip(heads, ids):
            scale = n_eff * np.sqrt(word_probability(p, w))
            lam_yu[w], lam_yy[w] = s_yu[i] / scale, s_yy[i] / scale
            if not np.any(lam_yy[w]) and not occurs[i]:
                degenerate.append(str(w))
    return lam_yu, lam_yy, degenerate


def assert_walk_matches_reference(data, p, words, n_dense):
    """Bit-identical tables and degenerate words; n_dense lags take the code walk."""
    assert _suffix_tables(tuple(sorted(set(map(Word, words)), key=lambda w: (len(w), w))),
                          len(p))[1] == n_dense
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cov = empirical_covariances(data, p, words)
    want_yu, want_yy, want_degenerate = table_walk_reference(data, p, words)
    for got, want in ((cov.lambda_yu, want_yu), (cov.lambda_yy, want_yy)):
        assert got.words() == sorted(want, key=lambda w: (len(w), w))
        for w, m in want.items():
            assert np.array_equal(got[w], m), f"word {w}"
    assert cov.metadata["degenerate_words"] == want_degenerate
    return cov


# samples over two block boundaries of the estimator's walk
_LONG = 2 * _BLOCK + 123


@pytest.mark.parametrize("D, max_len, n", [(2, 8, _LONG), (3, 4, _LONG), (2, 8, 300)])
def test_code_walk_matches_table_walk_on_all_short_words(D, max_len, n):
    data = random_dataset(D * 7 + n, n, 2, 2, D, zero_rows=0.1)
    p = np.arange(1.0, D + 1) / np.sum(np.arange(1.0, D + 1))
    words = list(enumerate_words(D, max_len))
    cov = assert_walk_matches_reference(data, p, words, n_dense=max_len)
    assert (cov.metadata["degenerate_words"] != []) == (n == 300)


def test_code_walk_hands_over_to_the_tables_after_the_dense_lags():
    data = random_dataset(21, _LONG, 1, 2, 2)
    rng = np.random.default_rng(4)
    longer = [Word(tuple(rng.integers(1, 3, size=k))) for k in (5, 6, 6, 7, 9)]
    # a window of the data, so the longest word occurs
    longer.append(Word(tuple(data.q[5000 - 9:5000])))
    assert_walk_matches_reference(data, (0.3, 0.7), list(enumerate_words(2, 3)) + longer,
                                  n_dense=3)
    # lag 3 is dense through the suffixes of the longer words while it holds
    # one word; lag 4 holds half of its windows and reads lag 3's codes
    ones_first = [Word((1,) + w) for w in enumerate_words(2, 3, min_len=3)]
    assert_walk_matches_reference(data, (0.3, 0.7), [Word((1, 1, 1))] + ones_first,
                                  n_dense=3)


def test_code_walk_matches_table_walk_with_one_mode():
    data = random_dataset(22, _LONG, 2, 1, 1)
    assert_walk_matches_reference(data, (1.0,), list(enumerate_words(1, 6)), n_dense=6)
    # with one mode, a second one in the data has no p_w
    two = random_dataset(23, 500, 1, 1, 2)
    with pytest.raises(DimensionError, match="^data uses mode 2 but p has 1 entries$"):
        empirical_covariances(two, (1.0,), list(enumerate_words(1, 6)))


def test_data_without_inputs_gets_the_table_error():
    # with n_u = 0 the bins of y(t) u(t-k)^T are empty; the estimator sums
    # them and then stops where a word table needs a column
    data = random_dataset(27, 3000, 2, 0, 2)
    with pytest.raises(DimensionError, match="table shape must be positive"):
        empirical_covariances(data, (0.4, 0.6), list(enumerate_words(2, 4)))


def test_code_walk_matches_table_walk_on_the_longest_words_alone():
    # the heads of lag 8 are all its nodes; lags 1-7 hold only suffixes
    data = random_dataset(24, _LONG, 1, 1, 2)
    assert_walk_matches_reference(data, (0.5, 0.5), list(enumerate_words(2, 8, min_len=8)),
                                  n_dense=8)


def test_one_long_word_takes_no_dense_path():
    # every lag holds one suffix of the word, so no lag is dense and no
    # table, bin or code grows with 2^40
    data = random_dataset(26, 400, 1, 1, 2)
    w = Word(tuple(data.q[300 - 40:300]))
    levels, n_dense = _suffix_tables((w,), 2)
    assert n_dense == 0
    assert max(lag.n_ids for lag in levels) == 2  # the suffix and "none"
    tracemalloc.start()
    try:
        cov = empirical_covariances(data, (0.5, 0.5), [w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert cov.metadata["degenerate_words"] == []
    assert_walk_matches_reference(data, (0.5, 0.5), [w], n_dense=0)
    assert_matches_oracle(data, (0.5, 0.5), [w])


def test_empirical_rejects_bad_probabilities_and_letters():
    data = hand_dataset()
    with pytest.raises(InvalidProbabilityError):
        empirical_covariances(data, (0.5, 0.6), [Word((1,))])
    with pytest.raises(InvalidModeError):
        empirical_covariances(data, (0.5, 0.5), [Word((1,)), Word((3, 1))])


def test_empirical_rerun_is_byte_identical():
    data = random_dataset(11, 3000, 2, 2, 2)
    words = list(enumerate_words(2, 5))
    a = empirical_covariances(data, (0.4, 0.6), words).to_jsonable()
    b = empirical_covariances(data, (0.4, 0.6), words).to_jsonable()
    assert json.dumps(a) == json.dumps(b)


# ---------------------------------------------------------------- regression


def test_least_squares_agrees_with_direct(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=11, length=2000))
    words = list(enumerate_words(2, 3))
    cov_d = empirical_covariances(data, two_mode.p, words)
    cov_l = least_squares_covariances(data, two_mode.p, words)
    worst = 0.0
    for w in words:
        worst = max(worst, float(np.max(np.abs(cov_d.lambda_yu[w] - cov_l.lambda_yu[w]))))
        if len(w) > 0:
            worst = max(worst, float(np.max(np.abs(cov_d.lambda_yy[w] - cov_l.lambda_yy[w]))))
    for s in (0, 1):
        worst = max(worst, float(np.max(np.abs(cov_d.t_yy[s] - cov_l.t_yy[s]))))
    assert worst < 1e-10
    assert cov_d.metadata["estimator"] == "direct"
    assert cov_l.metadata["estimator"] == "ls"


def test_least_squares_rejects_rank_deficient_regressors():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(60, 1))
    data = Dataset(y=y, u=np.zeros((60, 1)), q=np.ones(60, dtype=int))
    with pytest.raises(IllConditionedRegressorError):
        least_squares_covariances(data, (1.0,), [EMPTY_WORD, Word((1,))])


def test_least_squares_rejects_more_columns_than_samples(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=12, length=8))
    words = list(enumerate_words(2, 2))
    with pytest.raises(InsufficientDataError):
        least_squares_covariances(data, two_mode.p, words)


# ---------------------------------------------------------------- exact


@pytest.mark.parametrize("system, depth", [("reference", 8), ("mimo", 6)])
def test_exact_covariances_take_every_value_by_its_per_word_chain(two_mode, system, depth):
    model = two_mode.model if system == "reference" else load_tool("compare_cli").mimo_system()
    got, want = exact_covariances(model, depth), per_word_exact_covariances(model, depth)
    for name in ("lambda_yu", "lambda_yy"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert list(mine.index) == list(theirs.index)
        assert mine.array.tobytes() == theirs.array.tobytes(), name
    for name in ("t_yy", "q_u", "p"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.metadata == want.metadata


@pytest.mark.parametrize("system, depth", [("reference", 8), ("mimo", 6)])
def test_exact_covariances_build_two_mean_square_operators(two_mode, system, depth,
                                                           ms_builds):
    # the model's, which its validation and its state moments share, and
    # the input part's
    model = (model_from_dict(two_mode.model.to_dict()) if system == "reference"
             else load_tool("compare_cli").mimo_system())
    ms_builds.clear()
    exact_covariances(model, depth)
    assert len(ms_builds) == 2


def test_exact_covariances_solves_the_state_moment_once(two_mode, monkeypatch):
    # one Lyapunov solve for the state moments, which the associated dLSS's
    # G and T^{ys} share, and one for the input part's
    import slsid.realize

    labels, solve = [], slsid.realize._lyapunov_mean

    def counting(mean_square, const, label):
        labels.append(label)
        return solve(mean_square, const, label)
    monkeypatch.setattr(slsid.realize, "_lyapunov_mean", counting)
    exact_covariances(two_mode.model, 8)
    assert labels == ["model", "input-part realization"]


def test_exact_covariances_match_scalar_closed_form(scalar):
    a, b, k, c, d = scalar.a, scalar.b, scalar.k, scalar.c, scalar.d
    q_v, q_u = scalar.q_v, scalar.q_u
    pi_s = k * k * q_v / (1 - a * a)
    pi_d = b * b * q_u / (1 - a * a)
    got = exact_covariances(scalar.model, 4)
    assert got.lambda_yu[EMPTY_WORD][0, 0] == pytest.approx(d * q_u, abs=1e-12)
    for m in range(1, 5):
        w = Word((1,) * m)
        assert got.lambda_yu[w][0, 0] == pytest.approx(
            c * a ** (m - 1) * b * q_u, abs=1e-10)
        want = c * a ** (m - 1) * ((a * pi_s * c + k * q_v)
                                   + (a * pi_d * c + b * q_u * d))
        assert got.lambda_yy[w][0, 0] == pytest.approx(want, abs=1e-10)
    want_t = c * c * (pi_s + pi_d) + q_v + d * d * q_u
    assert got.t_yy[0][0, 0] == pytest.approx(want_t, abs=1e-10)


def test_empirical_converges_to_exact(two_mode, two_mode_cov):
    data = simulate(two_mode.model, SimConfig(seed=3, length=30000))
    words = list(enumerate_words(2, 2))
    cov = empirical_covariances(data, two_mode.p, words)
    worst = 0.0
    for w in words:
        worst = max(worst, float(np.max(np.abs(
            cov.lambda_yu[w] - two_mode_cov.lambda_yu[w]))))
        if len(w) > 0:
            worst = max(worst, float(np.max(np.abs(
                cov.lambda_yy[w] - two_mode_cov.lambda_yy[w]))))
    assert worst < 0.25
    for s in (0, 1):
        assert abs(cov.t_yy[s][0, 0]
                   - two_mode_cov.t_yy[s][0, 0]) < 0.5
    assert abs(cov.q_u[0, 0] - 1.0 / 3.0) < 0.01


# ---------------------------------------------------------------- table


def test_covariance_table_json_round_trip(two_mode_cov):
    obj = json.loads(json.dumps(two_mode_cov.to_jsonable()))
    assert sorted(obj["t_yy_sigma"]) == ["1", "2"]
    back = CovarianceTable.from_jsonable(obj)
    for w, m in two_mode_cov.lambda_yu.items():
        assert np.array_equal(back.lambda_yu[w], m)
    for w, m in two_mode_cov.lambda_yy.items():
        assert np.array_equal(back.lambda_yy[w], m)
    assert back.t_yy.shape == (2, 1, 1) and back.t_yy.dtype == float
    assert back.t_yy.tobytes() == two_mode_cov.t_yy.tobytes()
    assert np.array_equal(back.p, two_mode_cov.p)


def test_covariance_table_validate():
    from slsid import WordIndexedMatrixTable

    lam_yu = WordIndexedMatrixTable.from_pairs((1, 1), [(EMPTY_WORD, [[0.1]])])
    lam_yy = WordIndexedMatrixTable.from_pairs((1, 1), [(Word((1,)), [[0.2]])])
    good = CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy,
                           t_yy=[[[1.0]]], q_u=[[0.3]], p=[1.0])
    good.validate()
    with pytest.raises(DimensionError):
        CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy,
                        t_yy=[[[-1.0]]], q_u=[[0.3]], p=[1.0]).validate()
    with pytest.raises(DimensionError, match="invalid probability"):
        CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy,
                        t_yy=[[[1.0]], [[1.0]]], q_u=[[0.3]], p=[0.5, 0.6]).validate()
    with pytest.raises(DimensionError, match=r"t_yy must have shape \(2, 1, 1\)"):
        CovarianceTable(lambda_yu=lam_yu, lambda_yy=lam_yy,
                        t_yy=[[[1.0]]], q_u=[[0.3]], p=[0.5, 0.5]).validate()


def test_validate_rejects_a_lambda_yy_that_is_not_n_y_by_n_y(two_mode, two_mode_cov):
    # a (1, 2) Lambda^{y,y} used to pass, and the realization then stopped in
    # steps 3-4 on an array shape
    from slsid import WordIndexedMatrixTable, covariance_realization

    lam_yy = two_mode_cov.lambda_yy
    wide = WordIndexedMatrixTable((1, 2), lam_yy.index, np.concatenate([lam_yy.array] * 2, 2))
    bad = CovarianceTable(lambda_yu=two_mode_cov.lambda_yu, lambda_yy=wide,
                          t_yy=two_mode_cov.t_yy, q_u=two_mode_cov.q_u, p=two_mode_cov.p)
    with pytest.raises(DimensionError, match=r"lambda_yy must hold 1x1 matrices, got \(1, 2\)"):
        bad.validate()
    for sel, sel_bar in (("search", "search"), (two_mode.sel, two_mode.sel_bar)):
        with pytest.raises(DimensionError, match="lambda_yy must hold 1x1 matrices"):
            covariance_realization(bad, 3, 3, sel, sel_bar)


@pytest.mark.parametrize("key,text", [("lambda_yu", "31"), ("lambda_yy", "13"),
                                      ("lambda_yy", "1,2,11")])
def test_from_jsonable_names_a_word_with_a_letter_outside_the_modes(two_mode, two_mode_cov,
                                                                   key, text):
    from slsid import WordIndexedMatrixTable, covariance_realization

    obj = two_mode_cov.to_jsonable()
    obj[key][text] = [[0.0]]
    with pytest.raises(InvalidModeError,
                       match=f"{key} word '{text}' has a letter outside the modes 1..2"):
        CovarianceTable.from_jsonable(obj)
    # built in Python, such a word stops every realization in steps 3-4 (an
    # explicit one used to ignore it)
    word = Word.parse(text)
    tables = {name: WordIndexedMatrixTable.from_pairs(
        getattr(two_mode_cov, name).shape,
        list(getattr(two_mode_cov, name).items()) + [(word, [[0.0]])])
        for name in ("lambda_yu", "lambda_yy")}
    cov = CovarianceTable(**tables, t_yy=two_mode_cov.t_yy, q_u=two_mode_cov.q_u,
                          p=two_mode_cov.p)
    for sel, sel_bar in (("search", "search"), (two_mode.sel, two_mode.sel_bar)):
        with pytest.raises(InvalidModeError, match="outside alphabet") as err:
            covariance_realization(cov, 3, 3, sel, sel_bar)
        assert err.value.stage == "steps 3-4 (noise-part covariances)"
