import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    EMPTY_WORD,
    DimensionError,
    InvalidModeError,
    InvalidProbabilityError,
    MissingMarkovParameterError,
    Selection,
    Word,
    WordIndexedMatrixTable,
    build_hankel,
    enumerate_words,
    required_words,
    word_probability,
)
from slsid.algebra import markov_table

from oracles import markov_chain, matrix_product_along_word

words_2 = st.lists(st.integers(1, 2), max_size=5).map(lambda ls: Word(tuple(ls)))


# ---------------------------------------------------------------- words


def test_word_parse_and_str_round_trip():
    assert Word.parse("e") == EMPTY_WORD
    assert Word.parse("") == EMPTY_WORD
    assert Word.parse("eps") == EMPTY_WORD
    assert str(EMPTY_WORD) == "e"
    assert Word.parse("121").letters == (1, 2, 1)
    assert str(Word.parse("121")) == "121"
    # letters above 9 switch to the comma form, both directions
    assert Word.parse("1,12,3").letters == (1, 12, 3)
    assert str(Word((1, 12, 3))) == "1,12,3"
    for text in ("e", "1", "22", "121", "1,12,3"):
        assert str(Word.parse(text)) == text


def test_word_validation():
    with pytest.raises(InvalidModeError):
        Word((0,))
    with pytest.raises(InvalidModeError):
        Word.parse("abc")


def test_word_concat_and_len():
    w = Word.parse("12") + Word.parse("21")
    assert w.letters == (1, 2, 2, 1)
    assert len(w) == 4
    assert len(EMPTY_WORD) == 0
    assert w + EMPTY_WORD == w


def test_word_is_a_validated_tuple():
    w = Word((1, 2, 1))
    # equal and hashing like the plain tuple of its letters
    assert isinstance(w, tuple) and w == (1, 2, 1) and hash(w) == hash((1, 2, 1))
    assert {w: 0}[(1, 2, 1)] == 0 and (1, 2, 1) in {w}
    assert w.letters == (1, 2, 1) and len(w) == 3 and list(w) == [1, 2, 1]
    assert sorted([Word((2,)), Word((1, 2)), Word((1,))]) == [(1,), (1, 2), (2,)]
    assert repr(w) == "Word(letters=(1, 2, 1))" and Word(letters=(2, 1)) == (2, 1)
    # concatenation and enumeration give Words
    assert type(w + Word((2,))) is Word and w + Word((2,)) == (1, 2, 1, 2)
    assert type(w + (2,)) is Word
    assert all(type(v) is Word for v in enumerate_words(2, 3))
    # pickle and copy round-trip to an equal Word
    for clone in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(clone) is Word and clone == w
    # str and parse round-trip
    for text in ("e", "2", "121", "1,12,3"):
        assert str(Word.parse(text)) == text and Word.parse(str(Word.parse(text))) == Word.parse(text)
    # a letter below 1 raises however the word is made or used
    for make in (lambda: Word((1, 0)), lambda: Word.parse("10"), lambda: Word.parse("1,-2"),
                 lambda: w + (0,)):
        with pytest.raises(InvalidModeError):
            make()
    t = WordIndexedMatrixTable.from_pairs((1, 1), [(w, [[1.0]])])
    for access in (lambda: t[(0, 1)], lambda: (1, 0) in t,
                   lambda: WordIndexedMatrixTable.from_pairs((1, 1), [((0,), [[0.0]])])):
        with pytest.raises(InvalidModeError):
            access()
    with pytest.raises(AttributeError):
        w.letters = (2,)


def test_enumerate_words_order_and_count():
    got = [str(w) for w in enumerate_words(2, 2)]
    assert got == ["e", "1", "2", "11", "12", "21", "22"]
    assert [str(w) for w in enumerate_words(2, 2, min_len=1)] == got[1:]
    # enumeration order is length-then-lex order
    keys = [(len(w), w) for w in enumerate_words(2, 3)]
    assert keys == sorted(keys)
    with pytest.raises(InvalidModeError):
        list(enumerate_words(0, 2))


# ---------------------------------------------------------------- products


def test_product_empty_word_is_identity():
    A = (np.array([[2.0, 1.0], [0.0, 3.0]]),)
    assert np.array_equal(matrix_product_along_word(A, EMPTY_WORD), np.eye(2))


def test_product_reads_word_in_time_order():
    A1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    A2 = np.array([[2.0, 0.0], [0.0, 0.5]])
    # w = (1, 2): mode 1 acts first, so the product is A2 @ A1
    got = matrix_product_along_word((A1, A2), Word((1, 2)))
    assert np.allclose(got, A2 @ A1)
    with pytest.raises(InvalidModeError):
        matrix_product_along_word((A1, A2), Word((3,)))
    with pytest.raises(DimensionError):
        matrix_product_along_word((A1, np.eye(3)), Word((1,)))


@settings(deadline=None, max_examples=60)
@given(words_2, words_2)
def test_product_concatenation_property(v, w):
    rng = np.random.default_rng(0)
    A = (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    left = matrix_product_along_word(A, v + w)
    right = matrix_product_along_word(A, w) @ matrix_product_along_word(A, v)
    assert np.allclose(left, right, atol=1e-9)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_markov_table_takes_each_value_by_its_per_word_chain(data):
    D = data.draw(st.integers(1, 3))
    n_x, n_y, n_cols = (data.draw(st.integers(1, top)) for top in (4, 2, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    A, B = rng.normal(size=(D, n_x, n_x)), rng.normal(size=(D, n_x, n_cols))
    C, Dmat = rng.normal(size=(n_y, n_x)), rng.normal(size=(n_y, n_cols))
    letters = st.lists(st.integers(1, D), max_size=6).map(lambda s: Word(tuple(s)))
    words = data.draw(st.lists(letters, min_size=1, max_size=30))
    table = markov_table(A, B, C, Dmat, words)
    # rows follow first appearance; repeats read the first one's row
    assert list(table.index) == list(dict.fromkeys(words))
    assert table.shape == (n_y, n_cols)
    for w in words:
        assert table[w].tobytes() == markov_chain(A, B, C, Dmat, w).tobytes(), f"word {w}"
    # a table's index in place of the words is shared, not rebuilt
    again = markov_table(A, B, C, Dmat, table.index)
    assert again.index is table.index
    assert again.array.tobytes() == table.array.tobytes()


def test_word_probability_values():
    p = (0.25, 0.75)
    assert word_probability(p, EMPTY_WORD) == 1.0
    assert word_probability(p, Word((1, 2, 2))) == pytest.approx(0.25 * 0.75 * 0.75)
    with pytest.raises(InvalidProbabilityError):
        word_probability((0.5, 0.6), Word((1,)))
    with pytest.raises(InvalidProbabilityError):
        word_probability((1.0, 0.0), Word((1,)))


@settings(deadline=None, max_examples=60)
@given(words_2, words_2)
def test_word_probability_multiplicative(v, w):
    p = (0.3, 0.7)
    assert word_probability(p, v + w) == pytest.approx(
        word_probability(p, v) * word_probability(p, w))


# ---------------------------------------------------------------- selections


def test_selection_validation():
    a = ((EMPTY_WORD, 1),)
    b = ((1, EMPTY_WORD, 1),)
    Selection(a, b, n_modes=1, n_y=1, n_cols=1)
    with pytest.raises(DimensionError):
        Selection(a, b + b, n_modes=1, n_y=1, n_cols=1)
    with pytest.raises(InvalidModeError):
        Selection(a, ((2, EMPTY_WORD, 1),), n_modes=1, n_y=1, n_cols=1)
    with pytest.raises(DimensionError):
        Selection(((EMPTY_WORD, 2),), b, n_modes=1, n_y=1, n_cols=1)
    with pytest.raises(DimensionError):
        Selection(a, ((1, EMPTY_WORD, 3),), n_modes=1, n_y=1, n_cols=2)
    with pytest.raises(DimensionError):  # |u| may not exceed n
        Selection(((Word.parse("11"), 1),), b, n_modes=1, n_y=1, n_cols=1)


def test_selection_json_round_trip(two_mode):
    obj = two_mode.sel.to_jsonable()
    back = Selection.from_jsonable(obj, n_modes=2, n_y=1, n_cols=2)
    assert back == two_mode.sel


def test_required_words_scalar_exact():
    sel = Selection(((EMPTY_WORD, 1), (Word.parse("1"), 1)),
                    ((1, EMPTY_WORD, 1), (1, Word.parse("1"), 1)),
                    n_modes=1, n_y=1, n_cols=1)
    got = {str(w) for w in required_words(sel)}
    assert got == {"1", "11", "111", "1111"}


def test_required_words_two_mode_membership(two_mode):
    got = {str(w) for w in required_words(two_mode.sel)}
    assert "e" not in got
    # head of beta[0] is the single letter 2; alpha[0] appends "11"
    assert "211" in got
    # shifted entry: head "12" (beta[1]), shift letter 1, alpha word "1"
    assert "1211" in got
    assert all(len(Word.parse(w)) <= 6 for w in got)


def test_required_words_are_the_words_the_hankels_read():
    # u_1 = "2" alone is read by no Hankel: H_alpha_sigma reads sigma u_1
    sel = Selection(((Word.parse("2"), 1),), ((1, EMPTY_WORD, 1),),
                    n_modes=2, n_y=1, n_cols=1)
    words = required_words(sel)
    assert {str(w) for w in words} == {"1", "12", "112", "122", "22"}
    assert all(type(w) is Word for w in words)
    rng = np.random.default_rng(3)
    values = {w: rng.normal(size=(1, 1)) for w in words}
    build_hankel(sel, WordIndexedMatrixTable.from_pairs((1, 1), values.items()))
    for dropped in words:
        partial = WordIndexedMatrixTable.from_pairs(
            (1, 1), ((w, values[w]) for w in words - {dropped}))
        with pytest.raises(MissingMarkovParameterError):
            build_hankel(sel, partial)


# ---------------------------------------------------------------- tables


def test_table_construction_get_and_errors():
    t = WordIndexedMatrixTable.from_pairs((1, 2), [(Word.parse("1"), [[1.0, 2.0]])])
    assert np.array_equal(t[Word.parse("1")], [[1.0, 2.0]])
    assert Word.parse("1") in t and Word.parse("2") not in t
    assert len(t) == 1
    with pytest.raises(DimensionError, match="matrix for word '2' has shape"):
        WordIndexedMatrixTable.from_pairs(
            (1, 2), [(Word.parse("1"), [[1.0, 2.0]]), (Word.parse("2"), [[1.0]])])
    # a table has no way to grow or to store an entry after it is built
    assert not hasattr(t, "__setitem__")
    with pytest.raises(MissingMarkovParameterError) as err:
        _ = t[Word.parse("21")]
    assert "21" in str(err.value)
    with pytest.raises(DimensionError):
        WordIndexedMatrixTable((0, 1), [], np.empty((0, 0, 1)))


def test_table_keys_are_validated_once_at_the_boundary():
    t = WordIndexedMatrixTable.from_pairs((1, 1), [((1, 2), [[1.0]]), ([2], [[2.0]])])
    # tuple, list and Word keys for equal words hit the same entry
    assert np.array_equal(t[Word((1, 2))], [[1.0]])
    assert np.array_equal(t[[1, 2]], [[1.0]])
    assert np.array_equal(t[Word((1,)) + Word((2,))], [[1.0]])
    assert hash(Word((1,)) + Word((2,))) == hash(Word((1, 2)))
    assert (2,) in t and [2] in t and Word((2,)) in t
    # a later pair for an equal word replaces the value and keeps its row
    t = WordIndexedMatrixTable.from_pairs(
        (1, 1), [((1, 2), [[1.0]]), ([2], [[2.0]]), (Word((1, 2)), [[3.0]])])
    assert len(t) == 2 and np.array_equal(t[(1, 2)], [[3.0]]) and t.index[(1, 2)] == 0
    assert all(type(w) is Word for w in t.words())
    # a letter below 1 is rejected on entry, whatever the access
    for access in (lambda: WordIndexedMatrixTable.from_pairs((1, 1), [((1, 0), [[0.0]])]),
                   lambda: WordIndexedMatrixTable((1, 1), [(1, 0)], np.zeros((1, 1, 1))),
                   lambda: t[(0,)],
                   lambda: (2, 0) in t):
        with pytest.raises(InvalidModeError):
            access()
    with pytest.raises(InvalidModeError):
        Word((1, -1))
    assert Word(np.array([1, 2], dtype=np.int64)).letters == (1, 2)


def test_table_holds_its_matrices_in_one_array():
    words = list(enumerate_words(2, 4))
    pairs = [(w, [[float(i), -float(i)]]) for i, w in enumerate(reversed(words))]
    # a new value for a stored word keeps its row
    t = WordIndexedMatrixTable.from_pairs((1, 2), pairs + [(words[-1], [[7.0, 8.0]])])
    assert len(t) == len(words) and t.array.shape == (len(words), 1, 2)
    assert np.array_equal(t.array[0], [[7.0, 8.0]]) and t.array[5][0, 0] == 5.0
    rows = t.rows_of([words[0], words[-1], words[1]])
    assert rows.tolist() == [len(words) - 1, 0, len(words) - 2]
    assert all(np.array_equal(t.array[r], t[w]) for r, w in zip(rows, (words[0], words[-1])))
    with pytest.raises(MissingMarkovParameterError, match="'12111'$"):
        t.rows_of([words[1], Word((1, 2, 1, 1, 1)), Word((2, 2, 2, 2, 2))])
    assert t.index[words[-1]] == 0
    with pytest.raises(TypeError):
        t.index[words[0]] = 3
    # words and an array make a table that keeps the array, in the order given
    values = np.array([[[2.0]], [[1.0]], [[0.0]]])
    stacked = WordIndexedMatrixTable((1, 1), [Word((2,)), Word((1,)), EMPTY_WORD], values)
    assert stacked.array is values and stacked.array[:, 0, 0].tolist() == [2.0, 1.0, 0.0]
    assert [str(w) for w in stacked.words()] == ["e", "1", "2"]
    assert len(WordIndexedMatrixTable.from_pairs((1, 1), [])) == 0
    with pytest.raises(DimensionError, match="does not hold 2 matrices"):
        WordIndexedMatrixTable((1, 1), [Word((1,)), Word((2,))], np.zeros((3, 1, 1)))
    with pytest.raises(DimensionError, match="distinct"):
        WordIndexedMatrixTable((1, 1), [Word((1,)), (1,)], np.zeros((2, 1, 1)))
    # a table built over another's index shares it, and only reads through it
    derived = WordIndexedMatrixTable((2, 2), stacked.index, np.ones((3, 2, 2)))
    assert derived.index is stacked.index and derived.rows_of([Word((1,))]).tolist() == [1]
    with pytest.raises(DimensionError, match="does not hold 3 matrices"):
        WordIndexedMatrixTable((1, 1), stacked.index, np.zeros((2, 1, 1)))


def test_table_words_sorted():
    t = WordIndexedMatrixTable.from_pairs(
        (1, 1), ((Word.parse(text), [[0.0]]) for text in ("21", "2", "e", "1")))
    assert [str(w) for w in t.words()] == ["e", "1", "2", "21"]


# ---------------------------------------------------------------- hankels


def scalar_markov_table(a, b, c, max_len):
    # one-mode family: M(1^m) = c a^{m-1} b
    return WordIndexedMatrixTable.from_pairs(
        (1, 1), ((Word((1,) * m), [[c * a ** (m - 1) * b]]) for m in range(1, max_len + 1)))


def test_build_hankel_scalar_hand_values():
    t = scalar_markov_table(0.5, 1.0, 1.0, 4)
    sel = Selection(((Word.parse("1"), 1),), ((1, Word.parse("1"), 1),),
                    n_modes=1, n_y=1, n_cols=1)
    H, H_sigma, H_alpha_sigma, H_beta = build_hankel(sel, t)
    assert H[0, 0] == pytest.approx(0.25)        # M("111")
    assert H_sigma[0][0, 0] == pytest.approx(0.125)   # M("1111")
    assert H_alpha_sigma[0][0, 0] == pytest.approx(0.5)  # M("11")
    assert H_beta[0, 0] == pytest.approx(0.5)    # M("11")


def test_build_hankel_composes_words_in_time_order(two_mode):
    # fill a table with values that encode the word itself, then check each
    # entry against an independent string recomposition head + shift + tail
    words = list(enumerate_words(2, 6, min_len=1))
    code = {w: float(i + 1) for i, w in enumerate(words)}
    t = WordIndexedMatrixTable.from_pairs(
        (1, 2), ((w, [[code[w], 10000.0 + code[w]]]) for w in words))
    H, H_sigma, _, _ = build_hankel(two_mode.sel, t)

    def digits(w):
        return "".join(str(s) for s in w)

    for i, (u, _) in enumerate(two_mode.sel.alpha):
        for j, (s, v, l) in enumerate(two_mode.sel.beta):
            w = Word.parse(f"{s}{digits(v)}{digits(u)}")
            assert H[i, j] == code[w] + (10000.0 if l == 2 else 0.0)
            for sig in (1, 2):
                w_shift = Word.parse(f"{s}{digits(v)}{sig}{digits(u)}")
                assert H_sigma[sig - 1][i, j] == code[w_shift] + (10000.0 if l == 2 else 0.0)


def test_build_hankel_missing_word_and_shape_checks(two_mode):
    t = WordIndexedMatrixTable.from_pairs((1, 2), [(Word.parse("1"), [[1.0, 2.0]])])
    with pytest.raises(MissingMarkovParameterError):
        build_hankel(two_mode.sel, t)
    with pytest.raises(DimensionError):
        build_hankel(two_mode.sel_bar, t)  # table is (1, 2), selection wants (1, 1)


def build_hankel_per_entry(sel, M):
    """build_hankel written as a loop that reads the table entry by entry:
    the reference the gathered build_hankel must match."""
    n, modes = sel.n, range(1, sel.n_modes + 1)
    H = np.empty((n, n))
    H_sigma = [np.empty((n, n)) for _ in modes]
    H_alpha_sigma = [np.empty((n, sel.n_cols)) for _ in modes]
    H_beta = np.empty((sel.n_y, n))
    for j, (s, v, l) in enumerate(sel.beta):
        head = Word((s,)) + v
        H_beta[:, j] = M[head][:, l - 1]
        for i, (u, k) in enumerate(sel.alpha):
            H[i, j] = M[head + u][k - 1, l - 1]
            for H_s, sig in zip(H_sigma, modes):
                H_s[i, j] = M[head + Word((sig,)) + u][k - 1, l - 1]
    for i, (u, k) in enumerate(sel.alpha):
        for H_as, sig in zip(H_alpha_sigma, modes):
            H_as[i, :] = M[Word((sig,)) + u][k - 1, :]
    return H, H_sigma, H_alpha_sigma, H_beta


def _first_missing(fn, *args):
    try:
        fn(*args)
    except MissingMarkovParameterError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 3), n=st.integers(1, 3),
       n_y=st.integers(1, 2), n_cols=st.integers(1, 3), data=st.data())
def test_gathered_hankels_have_the_bits_of_the_per_entry_loop(seed, D, n, n_y, n_cols,
                                                             data):
    rng = np.random.default_rng(seed)
    words = st.lists(st.integers(1, D), max_size=n).map(lambda ls: Word(tuple(ls)))
    alpha = data.draw(st.lists(st.tuples(words, st.integers(1, n_y)),
                               min_size=n, max_size=n))
    beta = data.draw(st.lists(st.tuples(st.integers(1, D), words, st.integers(1, n_cols)),
                              min_size=n, max_size=n))
    sel = Selection(tuple(alpha), tuple(beta), n_modes=D, n_y=n_y, n_cols=n_cols)
    table = WordIndexedMatrixTable.from_pairs(
        (n_y, n_cols), ((w, rng.normal(size=(n_y, n_cols)))
                        for w in enumerate_words(D, 2 * n + 2, min_len=1)))
    got, want = build_hankel(sel, table), build_hankel_per_entry(sel, table)
    for part_got, part_want in zip(got, want):
        for x, y in zip(np.reshape(part_got, (-1,) + np.shape(part_want)[-2:]),
                        np.reshape(part_want, (-1,) + np.shape(part_want)[-2:])):
            assert x.shape == y.shape and x.tobytes() == np.ascontiguousarray(y).tobytes()
    # with some words left out, both name the same first missing word
    partial = WordIndexedMatrixTable.from_pairs(
        (n_y, n_cols), ((w, table[w]) for w in table.words() if rng.uniform() < 0.8))
    assert (_first_missing(build_hankel, sel, partial)
            == _first_missing(build_hankel_per_entry, sel, partial))


def test_build_hankel_is_linear_in_the_table():
    rng = np.random.default_rng(7)
    words = list(enumerate_words(2, 5, min_len=1))
    draws = rng.normal(size=(len(words), 2, 1, 1))  # m1, m2 word by word
    m1, m2 = draws[:, 0], draws[:, 1]
    t1, t2, t3 = (WordIndexedMatrixTable((1, 1), words, m) for m in (m1, m2, 0.7 * m1 - 1.3 * m2))
    sel = Selection(((Word.parse("1"), 1), (EMPTY_WORD, 1)),
                    ((2, EMPTY_WORD, 1), (1, Word.parse("2"), 1)),
                    n_modes=2, n_y=1, n_cols=1)
    for part in range(4):
        h1, h2, h3 = (build_hankel(sel, t)[part] for t in (t1, t2, t3))
        if part in (1, 2):  # the per-mode lists
            for a, b, c in zip(h1, h2, h3):
                assert np.allclose(0.7 * a - 1.3 * b, c)
        else:
            assert np.allclose(0.7 * h1 - 1.3 * h2, h3)
