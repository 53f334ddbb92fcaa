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
    matrix_product_along_word,
    required_words,
    word_probability,
)

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
    t = WordIndexedMatrixTable((1, 1))
    t[w] = [[1.0]]
    for access in (lambda: t[(0, 1)], lambda: (1, 0) in t, lambda: t.__setitem__((0,), [[0.0]])):
        with pytest.raises(InvalidModeError):
            access()
    with pytest.raises(AttributeError):
        w.letters = (2,)


def test_enumerate_words_order_and_count():
    got = [str(w) for w in enumerate_words(2, 2)]
    assert got == ["e", "1", "2", "11", "12", "21", "22"]
    assert [str(w) for w in enumerate_words(2, 2, min_len=1)] == got[1:]
    # enumeration order coincides with sort_key order
    keys = [w.sort_key for w in enumerate_words(2, 3)]
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


# ---------------------------------------------------------------- tables


def test_table_set_get_and_errors():
    t = WordIndexedMatrixTable((1, 2))
    t[Word.parse("1")] = [[1.0, 2.0]]
    assert np.array_equal(t[Word.parse("1")], [[1.0, 2.0]])
    assert Word.parse("1") in t and Word.parse("2") not in t
    assert len(t) == 1
    with pytest.raises(DimensionError):
        t[Word.parse("2")] = [[1.0]]
    with pytest.raises(MissingMarkovParameterError) as err:
        _ = t[Word.parse("21")]
    assert "21" in str(err.value)
    with pytest.raises(DimensionError):
        WordIndexedMatrixTable((0, 1))


def test_table_keys_are_validated_once_at_the_boundary():
    t = WordIndexedMatrixTable((1, 1))
    t[(1, 2)] = [[1.0]]
    t[[2]] = [[2.0]]
    # tuple, list and Word keys for equal words hit the same entry
    assert np.array_equal(t[Word((1, 2))], [[1.0]])
    assert np.array_equal(t[[1, 2]], [[1.0]])
    assert np.array_equal(t[Word((1,)) + Word((2,))], [[1.0]])
    assert hash(Word((1,)) + Word((2,))) == hash(Word((1, 2)))
    assert (2,) in t and [2] in t and Word((2,)) in t
    t[Word((1, 2))] = [[3.0]]
    assert len(t) == 2 and np.array_equal(t[(1, 2)], [[3.0]])
    assert all(type(w) is Word for w in t.words())
    # a letter below 1 is rejected on entry, whatever the access
    for access in (lambda: t.__setitem__((1, 0), [[0.0]]),
                   lambda: t[(0,)],
                   lambda: (2, 0) in t):
        with pytest.raises(InvalidModeError):
            access()
    with pytest.raises(InvalidModeError):
        Word((1, -1))
    assert Word(np.array([1, 2], dtype=np.int64)).letters == (1, 2)


def test_lazy_table_computes_each_read_word_once():
    declared = [Word((2, 1)), (1,), [2], EMPTY_WORD]
    calls = []

    def value(w):
        calls.append(w)
        return [[float(len(w))]]

    t = WordIndexedMatrixTable.lazy((1, 1), declared, value)
    # membership, length and words() cover the declared set before any read
    assert len(t) == 4 and calls == []
    assert [str(w) for w in t.words()] == ["e", "1", "2", "21"]
    assert (1,) in t and [2, 1] in t and Word((2,)) in t and Word((1, 1)) not in t
    with pytest.raises(MissingMarkovParameterError, match="11"):
        _ = t[Word((1, 1))]
    assert calls == []
    # tuple, list and Word keys hit one entry, computed once
    assert np.array_equal(t[(2, 1)], [[2.0]])
    assert t[[2, 1]] is t[Word((2, 1))]
    assert calls == [Word((2, 1))]
    # items() reads the rest, each once; len() does not change
    assert [float(m[0, 0]) for _, m in t.items()] == [0.0, 1.0, 1.0, 2.0]
    assert sorted(calls, key=lambda w: w.sort_key) == t.words()
    assert len(t) == 4
    # a stored value replaces the pending one without calling the function
    t2 = WordIndexedMatrixTable.lazy((1, 1), [(1,)], value)
    t2[(1,)] = [[5.0]]
    assert t2[Word((1,))][0, 0] == 5.0 and len(t2) == 1 and len(calls) == 4


def test_lazy_table_checks_the_shape_on_read():
    t = WordIndexedMatrixTable.lazy((1, 2), [(1,), (2,)], lambda w: np.zeros((2, 1)))
    assert len(t) == 2
    with pytest.raises(DimensionError, match="matrix for word '1' has shape"):
        _ = t[(1,)]
    # a failed read stores nothing and leaves the word declared
    assert (1,) in t and len(t) == 2
    with pytest.raises(DimensionError):
        _ = t[(1,)]


def test_table_words_sorted():
    t = WordIndexedMatrixTable((1, 1))
    for text in ("21", "2", "e", "1"):
        t[Word.parse(text)] = [[0.0]]
    assert [str(w) for w in t.words()] == ["e", "1", "2", "21"]


# ---------------------------------------------------------------- hankels


def scalar_markov_table(a, b, c, max_len):
    # one-mode family: M(1^m) = c a^{m-1} b
    t = WordIndexedMatrixTable((1, 1))
    for m in range(1, max_len + 1):
        t[Word((1,) * m)] = [[c * a ** (m - 1) * b]]
    return t


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
    t = WordIndexedMatrixTable((1, 2))
    code = {w: float(i + 1) for i, w in enumerate(words)}
    for w in words:
        t[w] = [[code[w], 10000.0 + code[w]]]
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
    t = WordIndexedMatrixTable((1, 2))
    t[Word.parse("1")] = [[1.0, 2.0]]
    with pytest.raises(MissingMarkovParameterError):
        build_hankel(two_mode.sel, t)
    with pytest.raises(DimensionError):
        build_hankel(two_mode.sel_bar, t)  # table is (1, 2), selection wants (1, 1)


def test_build_hankel_is_linear_in_the_table():
    rng = np.random.default_rng(7)
    words = list(enumerate_words(2, 5, min_len=1))
    t1 = WordIndexedMatrixTable((1, 1))
    t2 = WordIndexedMatrixTable((1, 1))
    t3 = WordIndexedMatrixTable((1, 1))
    for w in words:
        m1, m2 = rng.normal(size=(1, 1)), rng.normal(size=(1, 1))
        t1[w], t2[w] = m1, m2
        t3[w] = 0.7 * m1 - 1.3 * m2
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
