import re
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    CovarianceTable,
    DeterministicModel,
    DimensionError,
    EMPTY_WORD,
    InnovationModel,
    InvalidModeError,
    MissingMarkovParameterError,
    NoSelectionFoundError,
    NonConvergenceError,
    NotFullRankError,
    Selection,
    SingularHankelError,
    SwitchedModel,
    Word,
    WordIndexedMatrixTable,
    associated_dlss,
    associated_slss,
    covariance_realization,
    enumerate_words,
    exact_covariances,
    find_isomorphism,
    ho_kalman,
    input_state_second_moment,
    iter_full_rank_selections,
    lambda_ydyd,
    markov_parameter,
    psi_uy,
    stability_margin,
    state_second_moment,
)
from slsid.model import mean_square_operator, numerical_rank
from slsid.realize import KQIterationState, _kq_iteration, _stage

from oracles import matrix_product_along_word


def unit_innovation(a=0.5, k=1.0, c=1.0, b=0.0, d=0.0, q_v=1.0, q_u=1.0):
    return InnovationModel.from_parts(
        (np.array([[a]]),), (np.array([[b]]),), (np.array([[k]]),),
        np.array([[c]]), np.array([[d]]), (1.0,), np.array([[q_u]]),
        (np.array([[q_v]]),))


# ---------------------------------------------------------------- moments


def test_state_second_moment_scalar_closed_form():
    # P = a^2 P + k^2 Q_v  =>  P = 1 / (1 - 0.25) = 4/3
    P = state_second_moment(unit_innovation())
    assert P[0][0, 0] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_state_second_moment_satisfies_recursion(two_mode):
    m = two_mode.model
    P = state_second_moment(m)
    core = sum(m.A[s] @ P[s] @ m.A[s].T + m.K[s] @ m.Q_v[s] @ m.K[s].T
               for s in range(2))
    for s in range(2):
        assert np.max(np.abs(P[s] - m.p[s] * core)) < 1e-9


def test_input_state_second_moment_scalar_closed_form(scalar):
    m_d = DeterministicModel(A=(np.array([[scalar.a]]),),
                             B=(np.array([[scalar.b]]),),
                             C=np.array([[scalar.c]]),
                             Dmat=np.array([[scalar.d]]))
    P = input_state_second_moment(m_d, np.array([[scalar.q_u]]), (1.0,))
    want = scalar.b ** 2 * scalar.q_u / (1 - scalar.a ** 2)
    assert P[0][0, 0] == pytest.approx(want, abs=1e-9)


def random_family(seed, D, n, rho):
    """Random switched family: A scaled to stability margin rho under p."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(D))
    A = [rng.normal(size=(n, n)) for _ in range(D)]
    scale = np.sqrt(rho / stability_margin(A, p))
    A = [scale * a for a in A]
    B = [rng.normal(size=(n, 2)) for _ in range(D)]
    G = [rng.normal(size=(2, 2)) for _ in range(D)]
    Q_v = [g @ g.T + 0.1 * np.eye(2) for g in G]
    m = SwitchedModel(A=A, B=B, K=B, C=rng.normal(size=(1, n)),
                      Dmat=np.zeros((1, 2)), F=np.zeros((1, 2)), p=p,
                      Q_u=np.eye(2), Q_v=Q_v)
    return m, rng


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 3), n=st.integers(1, 4),
       rho=st.floats(0.05, 0.95))
def test_closed_form_moments_satisfy_their_recursions(seed, D, n, rho):
    m, rng = random_family(seed, D, n, rho)
    P = state_second_moment(m)
    core = sum(m.A[s] @ P[s] @ m.A[s].T + m.K[s] @ m.Q_v[s] @ m.K[s].T
               for s in range(D))
    scale = max(float(np.max(np.abs(x))) for x in P)
    for s in range(D):
        assert np.max(np.abs(P[s] - m.p[s] * core)) <= 1e-12 * scale

    # the same family with sqrt(p) absorbed, as the input-part moment sees it
    m_d = DeterministicModel(A=tuple(np.sqrt(m.p[s]) * m.A[s] for s in range(D)),
                             B=m.B, C=m.C, Dmat=m.Dmat)
    g = rng.normal(size=(2, 2))
    q_u = g @ g.T + 0.1 * np.eye(2)
    Pt = input_state_second_moment(m_d, q_u, m.p)
    core = sum(m_d.A[s] @ Pt[s] @ m_d.A[s].T / m.p[s] + m_d.B[s] @ q_u @ m_d.B[s].T
               for s in range(D))
    scale = max(float(np.max(np.abs(x))) for x in Pt)
    for s in range(D):
        assert np.max(np.abs(Pt[s] - m.p[s] * core)) <= 1e-12 * scale


def test_input_moment_fails_fast_on_unstable_family():
    m_d = DeterministicModel(A=(np.array([[1.2]]),), B=(np.array([[1.0]]),),
                             C=np.array([[1.0]]), Dmat=np.array([[0.0]]))
    with pytest.raises(NonConvergenceError) as err:
        input_state_second_moment(m_d, np.array([[1.0]]), (1.0,))
    assert "spectral radius 1.4400 >= 1" in str(err.value)
    assert err.value.last_delta == np.inf

    m, _ = random_family(5, 2, 3, 1.3)
    with pytest.raises(NonConvergenceError) as err:
        state_second_moment(m)
    assert "spectral radius 1.3000 >= 1" in str(err.value)
    assert err.value.last_delta == np.inf


def test_associated_dlss_scalar_hand_values():
    # G = (a P c + k Q_v) / sqrt(p) with P = 4/3: G = 2/3 + 1 = 5/3
    d = associated_dlss(unit_innovation())
    assert d.B[0][0, 1] == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert d.B[0][0, 0] == 0.0  # sqrt(p) B = 0
    assert np.array_equal(d.Dmat, [[0.0, 1.0]])


# ---------------------------------------------------------------- ho-kalman


def random_dlss(rng, n=2, n_modes=2):
    A = []
    for _ in range(n_modes):
        raw = rng.normal(size=(n, n))
        A.append(0.4 * raw / max(1.0, np.max(np.abs(np.linalg.eigvals(raw)))))
    B = [rng.normal(size=(n, 1)) for _ in range(n_modes)]
    return DeterministicModel(A=tuple(A), B=tuple(B),
                              C=rng.normal(size=(1, n)),
                              Dmat=rng.normal(size=(1, 1)))


def markov_table(d, max_len):
    return WordIndexedMatrixTable.from_pairs(
        (d.n_y, d.n_u), ((w, markov_parameter(d, w))
                         for w in enumerate_words(d.n_modes, max_len, min_len=1)))


def test_ho_kalman_recovers_markov_parameters():
    rng = np.random.default_rng(17)
    d0 = random_dlss(rng)
    table = markov_table(d0, 5)
    sel = next(iter_full_rank_selections(table, 2, 1, 1, 2))
    d1 = ho_kalman(sel, table, markov_parameter(d0, EMPTY_WORD))
    for w in enumerate_words(2, 4):
        assert np.allclose(markov_parameter(d1, w), markov_parameter(d0, w),
                           atol=1e-8)


def test_ho_kalman_reports_rank_deficiency():
    # a = 0 kills every parameter of length > 1, so no 2x2 sub-Hankel works
    t = WordIndexedMatrixTable.from_pairs(
        (1, 1), [(Word((1,)), [[1.0]])] + [(Word((1,) * m), [[0.0]]) for m in range(2, 5)])
    sel = Selection(((EMPTY_WORD, 1), (Word((1,)), 1)),
                    ((1, EMPTY_WORD, 1), (1, Word((1,)), 1)),
                    n_modes=1, n_y=1, n_cols=1)
    with pytest.raises(SingularHankelError) as err:
        ho_kalman(sel, t, [[0.0]])
    assert err.value.rank == 1


# ---------------------------------------------------------------- conversions


def test_psi_uy_divides_by_q_u(two_mode_cov):
    words = [EMPTY_WORD, Word((1,)), Word((2, 1))]
    psi = psi_uy(two_mode_cov)
    for w in words:
        want = two_mode_cov.lambda_yu[w] / two_mode_cov.q_u[0, 0]
        assert np.allclose(psi[w], want, atol=1e-12)


def test_psi_uy_rejects_singular_q_u(two_mode_cov):
    broken = CovarianceTable(lambda_yu=two_mode_cov.lambda_yu,
                             lambda_yy=two_mode_cov.lambda_yy,
                             t_yy=two_mode_cov.t_yy,
                             q_u=[[0.0]], p=two_mode_cov.p)
    with pytest.raises(NotFullRankError):
        psi_uy(broken)


def test_lambda_ydyd_scalar_closed_form(scalar):
    m_d = DeterministicModel(A=(np.array([[scalar.a]]),),
                             B=(np.array([[scalar.b]]),),
                             C=np.array([[scalar.c]]),
                             Dmat=np.array([[scalar.d]]))
    words = [EMPTY_WORD] + [Word((1,) * m) for m in range(1, 4)]
    table, t_dd = lambda_ydyd(m_d, np.array([[scalar.q_u]]), (1.0,), words)
    pi_d = scalar.b ** 2 * scalar.q_u / (1 - scalar.a ** 2)
    core = scalar.a * pi_d * scalar.c + scalar.b * scalar.q_u * scalar.d
    for m in range(1, 4):
        want = scalar.c * scalar.a ** (m - 1) * core
        assert table[Word((1,) * m)][0, 0] == pytest.approx(want, abs=1e-9)
    want_t = scalar.c ** 2 * pi_d + scalar.d ** 2 * scalar.q_u
    assert t_dd.shape == (1, 1, 1)
    assert t_dd[0][0, 0] == pytest.approx(want_t, abs=1e-9)
    # one mode: the stationary output moment equals the per-mode one
    assert table[EMPTY_WORD][0, 0] == pytest.approx(want_t, abs=1e-9)


@pytest.mark.parametrize("n_y,n_u", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_batched_psi_uy_matches_per_word_solves(n_y, n_u):
    rng = np.random.default_rng(10 * n_y + n_u)
    words = list(enumerate_words(2, 4))
    lam_yu = WordIndexedMatrixTable.from_pairs(
        (n_y, n_u), ((w, rng.normal(size=(n_y, n_u))) for w in words))
    g = rng.normal(size=(n_u, n_u))
    q_u = g @ g.T + 0.1 * np.eye(n_u)

    def cov_of(lam_yu):
        return CovarianceTable(lambda_yu=lam_yu,
                               lambda_yy=WordIndexedMatrixTable.from_pairs((n_y, n_y), []),
                               t_yy=np.zeros((2, n_y, n_y)), q_u=q_u, p=(0.5, 0.5))

    # Psi covers every word of Lambda^{y,u} and reads Lambda^{y,u}'s own index
    psi = psi_uy(cov_of(lam_yu))
    assert psi.words() == words and psi.index is lam_yu.index
    for w in words:
        want = np.linalg.solve(q_u, lam_yu[w].T).T
        assert np.max(np.abs(psi[w] - want)) <= 1e-15 * np.max(np.abs(want))
    assert len(psi_uy(cov_of(WordIndexedMatrixTable.from_pairs((n_y, n_u), [])))) == 0


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n_y=st.integers(1, 3), n_u=st.integers(1, 3),
       data=st.data())
def test_psi_uy_has_the_bits_of_per_word_solves(seed, n_y, n_u, data):
    rng = np.random.default_rng(seed)
    stored = list(enumerate_words(2, 4))
    values = {w: rng.normal(size=(n_y, n_u)) for w in stored}
    g = rng.normal(size=(n_u, n_u))
    # a table over the drawn words, in the order drawn
    words = list(dict.fromkeys(data.draw(st.lists(st.sampled_from(stored), max_size=40))))
    lam_yu = WordIndexedMatrixTable.from_pairs((n_y, n_u), ((w, values[w]) for w in words))
    cov = CovarianceTable(lambda_yu=lam_yu,
                          lambda_yy=WordIndexedMatrixTable.from_pairs((n_y, n_y), []),
                          t_yy=np.zeros((2, n_y, n_y)), q_u=g @ g.T + 0.1 * np.eye(n_u),
                          p=(0.5, 0.5))
    psi = psi_uy(cov)
    assert len(psi) == len(words)
    for w in words:
        assert _same_bits(psi[w], np.linalg.solve(cov.q_u, lam_yu[w].T).T), f"word {w}"


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 3), n=st.integers(1, 4),
       n_y=st.integers(1, 2), n_u=st.integers(1, 2), data=st.data())
def test_lambda_ydyd_matches_per_word_products(seed, D, n, n_y, n_u, data):
    # the memoized prefix products give the per-word chain of matmuls exactly
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(D))
    A = [rng.normal(size=(n, n)) for _ in range(D)]
    scale = np.sqrt(rng.uniform(0.05, 0.95) / stability_margin(A, np.ones(D)))
    m_d = DeterministicModel(A=tuple(scale * a for a in A),
                             B=tuple(rng.normal(size=(n, n_u)) for _ in range(D)),
                             C=rng.normal(size=(n_y, n)), Dmat=rng.normal(size=(n_y, n_u)))
    g = rng.normal(size=(n_u, n_u))
    q_u = g @ g.T + 0.1 * np.eye(n_u)
    letters = st.lists(st.integers(1, D), max_size=8).map(lambda s: Word(tuple(s)))
    words = data.draw(st.lists(letters, min_size=1, max_size=40))
    table, _ = lambda_ydyd(m_d, q_u, p, words)
    P = input_state_second_moment(m_d, q_u, p)
    C, Dm = m_d.C, m_d.Dmat
    for w in words:
        if len(w) == 0:
            want = C @ sum(P) @ C.T + Dm @ q_u @ Dm.T
        else:
            s = w.letters[0] - 1
            core = (m_d.A[s] @ P[s] @ C.T) / p[s] + m_d.B[s] @ q_u @ Dm.T
            want = C @ matrix_product_along_word(m_d.A, Word(w.letters[1:])) @ core
        assert np.array_equal(table[w], want), f"word {w}"


def test_lambda_ydyd_rejects_letters_outside_the_alphabet(two_mode):
    m_d = associated_dlss(two_mode.model)
    m_in = DeterministicModel(A=m_d.A, B=tuple(b[:, :1] for b in m_d.B), C=m_d.C,
                              Dmat=m_d.Dmat[:, :1])
    for bad in (Word((3,)), Word((1, 2, 3)), Word((1, 3, 1))):
        with pytest.raises(InvalidModeError, match="letter 3 outside alphabet"):
            lambda_ydyd(m_in, two_mode.q_u, two_mode.p, [Word((1,)), bad])
    with pytest.raises(InvalidModeError):
        lambda_ydyd(m_in, two_mode.q_u, two_mode.p, [(1, 0)])
    # tuple words are still accepted, and equal to their Word form
    by_tuple, _ = lambda_ydyd(m_in, two_mode.q_u, two_mode.p, [(2, 1), [1]])
    by_word, _ = lambda_ydyd(m_in, two_mode.q_u, two_mode.p,
                             [Word((2, 1)), Word((1,))])
    for w in by_word.words():
        assert np.array_equal(by_tuple[w], by_word[w])


def test_associated_slss_round_trip(two_mode):
    m = two_mode.model
    P = state_second_moment(m)
    t_ys = np.array([(m.C @ P[s] @ m.C.T + m.Q_v[s]) / m.p[s] for s in range(2)])
    back, state = associated_slss(associated_dlss(m), m.p, t_ys, m.Q_u)
    assert state.last_delta < 1e-10
    assert state.iterations < 200
    find_isomorphism(back, m, tol=1e-8)
    for s in range(2):
        assert back.Q_v[s][0, 0] == pytest.approx(1.125, abs=1e-8)


def test_associated_slss_rejects_a_t_ys_of_another_mode_count(two_mode):
    # a one-mode T^{ys} would broadcast over both modes; it must be refused
    m = two_mode.model
    P = state_second_moment(m)
    t_ys = np.array([(m.C @ P[0] @ m.C.T + m.Q_v[0]) / m.p[0]])
    with pytest.raises(DimensionError, match=r"t_ys must have shape \(2, 1, 1\), got \(1, 1, 1\)"):
        associated_slss(associated_dlss(m), m.p, t_ys, m.Q_u)


def test_associated_slss_refuses_a_model_that_is_not_mean_square_stable(two_mode):
    # doubling A takes the radius of sum_s A_s kron A_s from 0.42 to 1.66;
    # without the check the gain solve stops later, on a symptom
    # (NotFullRankError).  It is a numerical failure of the realization, as
    # in _lyapunov_mean, not an invalid model
    m = two_mode.model
    P = state_second_moment(m)
    t_ys = np.array([(m.C @ P[s] @ m.C.T + m.Q_v[s]) / m.p[s] for s in range(2)])
    m_d = associated_dlss(m)
    doubled = DeterministicModel(A=2.0 * m_d.A, B=m_d.B, C=m_d.C, Dmat=m_d.Dmat)
    rho = stability_margin(doubled.A, np.ones(2))
    assert 1.65 < rho < 1.67
    with pytest.raises(NonConvergenceError, match=re.escape(
            f"joint realization is not mean-square stable (spectral radius {rho:.4f} >= 1); "
            "its second moment does not exist")):
        associated_slss(doubled, m.p, t_ys, m.Q_u)


def test_kq_iteration_fails_typed_when_its_step_budget_runs_out(two_mode, monkeypatch):
    m = two_mode.model
    P = state_second_moment(m)
    t_ys = np.array([(m.C @ P[s] @ m.C.T + m.Q_v[s]) / m.p[s] for s in range(2)])
    m_d = associated_dlss(m)
    G = [np.asarray(b)[:, m.n_u:] for b in m_d.B]
    # one step cannot meet the stopping rule: a typed error with the last step
    monkeypatch.setattr("slsid.realize.FP_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="in 1 iterations") as info:
        _kq_iteration(list(m_d.A), m_d.C, G, t_ys, np.asarray(m.p))
    assert np.isfinite(info.value.last_delta) and info.value.last_delta >= 1e-10


def kq_iteration_per_mode(A_hat, C_hat, G_hat, t_ys, p, tol, max_iter):
    """The innovation-gain fixed-point iteration written as a loop over the
    modes: the reference whose limit and failures the Newton solve in
    _kq_iteration must reproduce."""
    D = len(A_hat)
    n_x = A_hat[0].shape[0]
    sqrt_p = np.sqrt(p)
    S = [p[s] * np.asarray(t_ys[s], dtype=float) for s in range(D)]

    def kq_of(P, it):
        CPC = C_hat @ P @ C_hat.T
        Q, K = [], []
        for s in range(D):
            Qs = S[s] - p[s] * CPC
            Qs = (Qs + Qs.T) / 2.0
            eig = np.linalg.eigvalsh(Qs)
            if eig[0] <= 1e-10 * abs(eig[-1]):
                raise NotFullRankError(
                    f"per-mode innovation moment for mode {s + 1} is not positive "
                    f"definite at iteration {it} (smallest eigenvalue {eig[0]:.3e})"
                )
            rhs = sqrt_p[s] * (G_hat[s] - A_hat[s] @ P @ C_hat.T)
            K.append(np.linalg.solve(Qs, rhs.T).T)
            Q.append(Qs)
        return Q, K

    P = np.zeros((n_x, n_x))
    p_max = float(np.max(p))
    for it in range(max_iter):
        Q, K = kq_of(P, it)
        core = sum(A_hat[s] @ P @ A_hat[s].T + K[s] @ Q[s] @ K[s].T for s in range(D))
        P_next = (core + core.T) / 2.0
        delta = p_max * float(np.max(np.abs(P_next - P)))
        P = P_next
        if delta < tol:
            Q, K = kq_of(P, it + 1)
            return KQIterationState(P=tuple(p_s * P for p_s in p), Q=tuple(Q),
                                    K=tuple(K), iterations=it + 1, last_delta=delta)
    raise NonConvergenceError(
        f"innovation-gain iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3e})",
        last_delta=delta,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and the text must both match
        return (type(exc), str(exc))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _max_rel(a, b):
    return max(float(np.max(np.abs(x - y))) / max(float(np.max(np.abs(y))), 1e-300)
               for x, y in zip(a, b))


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 3), n=st.integers(1, 4),
       n_y=st.integers(1, 2), rho=st.floats(0.05, 0.98), gain=st.floats(0.02, 0.3))
def test_newton_gain_solve_agrees_with_the_per_mode_loop(seed, D, n, n_y, rho, gain):
    # the fixed-point loop, run to a tight stopping rule, is the reference:
    # where it converges, the Newton solve reaches the same limit; where it
    # stops at an indefinite Q_s, so does the Newton solve
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(D))
    A = [rng.normal(size=(n, n)) for _ in range(D)]
    scale = np.sqrt(rho / stability_margin(A, np.ones(D)))
    A = [scale * a for a in A]
    C = rng.normal(size=(n_y, n))
    G = [gain * rng.normal(size=(n, n_y)) for _ in range(D)]
    t_ys = np.empty((D, n_y, n_y))
    for s in range(D):
        g = rng.normal(size=(n_y, n_y))
        t_ys[s] = g @ g.T + rng.uniform(0.0, 1.0) * np.eye(n_y)
    want = _outcome(kq_iteration_per_mode, A, C, G, t_ys, p, 1e-13, 20_000)
    if isinstance(want, KQIterationState):
        # the loop stops on an absolute step: for a small P, make it relative
        scale = float(np.max(np.abs(want.P[0]))) / p[0]
        if scale < 1.0:
            want = _outcome(kq_iteration_per_mode, A, C, G, t_ys, p, 1e-13 * scale, 20_000)
    got = _outcome(_kq_iteration, A, C, G, t_ys, p)
    if isinstance(want, KQIterationState):
        assert isinstance(got, KQIterationState), got
        assert got.last_delta < 1e-10
        for name in ("P", "Q", "K"):
            assert _max_rel(getattr(got, name), getattr(want, name)) <= 1e-9, name
    elif want[0] is NotFullRankError:
        assert isinstance(got, tuple) and got[0] is NotFullRankError, got


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 3), n=st.integers(1, 4))
def test_mean_square_operator_equals_the_kron_sum(seed, D, n):
    rng = np.random.default_rng(seed)
    A = [rng.normal(size=(n, n)) for _ in range(D)]
    w = rng.dirichlet(np.ones(D))
    op, rho = mean_square_operator(A, w)
    want = sum(w[s] * np.kron(A[s], A[s]) for s in range(D))
    assert np.array_equal(op, want) and _same_bits(op, want)
    assert rho == float(np.max(np.abs(np.linalg.eigvals(want))))


# ---------------------------------------------------------------- search


def full_rank_selections_per_candidate(table, n, n_y, n_cols, n_modes, budget):
    """The selection search written as a loop that fills each candidate's
    Hankel entry by entry: the reference the pooled search must match."""
    word_pool = list(enumerate_words(n_modes, n))
    alpha_pool = [(w, k) for w in word_pool for k in range(1, n_y + 1)]
    beta_pool = [(s, w, l) for w in word_pool for s in range(1, n_modes + 1)
                 for l in range(1, n_cols + 1)]
    evaluated = 0
    for alpha in combinations(alpha_pool, n):
        for beta in combinations(beta_pool, n):
            if evaluated >= budget:
                raise NoSelectionFoundError(
                    f"no rank-{n} selection within budget {budget} "
                    "(larger budget, different n, or more data may help)"
                )
            evaluated += 1
            H = np.empty((n, n))
            ok = True
            for j, (s, v, l) in enumerate(beta):
                for i, (u, k) in enumerate(alpha):
                    w = Word((s,)) + v + u
                    if w not in table:
                        ok = False
                        break
                    H[i, j] = table[w][k - 1, l - 1]
                if not ok:
                    break
            if ok and numerical_rank(H)[0] == n:
                yield Selection(alpha=tuple(alpha), beta=tuple(beta),
                                n_modes=n_modes, n_y=n_y, n_cols=n_cols)


def _hits(gen, limit=40):
    out = []
    try:
        for sel in gen:
            out.append(sel)
            if len(out) == limit:
                break
    except NoSelectionFoundError as exc:
        out.append(str(exc))
    return out


@pytest.mark.parametrize("case", ["markov", "markov-short", "sparse", "rank-1", "two-outputs"])
def test_pooled_search_yields_what_a_per_candidate_search_yields(two_mode, case):
    rng = np.random.default_rng(5)
    d = associated_dlss(two_mode.model)
    n, n_y, n_cols, budget = 3, 1, 2, 4000
    if case == "markov":
        table = markov_table(d, 6)
    elif case == "markov-short":  # words longer than 3 are missing
        table = markov_table(d, 3)
    elif case == "sparse":  # a random third of the words is missing
        table = WordIndexedMatrixTable.from_pairs(
            (1, 2), ((w, markov_parameter(d, w)) for w in enumerate_words(2, 6, min_len=1)
                     if rng.uniform() < 0.67))
    elif case == "rank-1":  # no rank-2 candidate: the budget runs out
        n, table = 2, WordIndexedMatrixTable.from_pairs(
            (1, 2), ((w, 0.5 ** len(w) * np.array([[1.0, 2.0]]))
                     for w in enumerate_words(2, 5, min_len=1)))
    else:
        n, n_y, n_cols = 2, 2, 1
        table = WordIndexedMatrixTable.from_pairs(
            (2, 1), ((w, rng.normal(size=(2, 1)) * (len(w) < 4))
                     for w in enumerate_words(2, 5, min_len=1)))
    want = _hits(full_rank_selections_per_candidate(table, n, n_y, n_cols, 2, budget))
    got = _hits(iter_full_rank_selections(table, n, n_y, n_cols, 2, budget=budget))
    assert got == want
    assert len(want) > 1 or isinstance(want[0], str)


def test_search_selection_first_hit_is_deterministic(two_mode):
    table = markov_table(associated_dlss(two_mode.model), 5)
    sel = next(iter_full_rank_selections(table, 3, 1, 2, 2))
    assert sel.to_jsonable() == {
        "alpha": [["e", 1], ["1", 1], ["2", 1]],
        "beta": [[1, "e", 1], [1, "e", 2], [2, "e", 1]],
    }
    assert next(iter_full_rank_selections(table, 3, 1, 2, 2)) == sel


def test_search_selection_skip_advances(two_mode):
    # the hit after skip = 1, as acceptance check 9 takes it, is another selection
    table = markov_table(associated_dlss(two_mode.model), 5)
    first, second = islice(iter_full_rank_selections(table, 3, 1, 2, 2), 2)
    assert first != second
    assert next(islice(iter_full_rank_selections(table, 3, 1, 2, 2), 1, None)) == second


def test_search_selection_budget_exhaustion(two_mode):
    table = markov_table(associated_dlss(two_mode.model), 5)
    # the system has order 3; no rank-4 selection exists
    with pytest.raises(NoSelectionFoundError, match="no rank-4 selection within budget 2000"):
        next(iter_full_rank_selections(table, 4, 1, 2, 2, budget=2000))


def test_search_selection_skips_missing_words(two_mode):
    d = associated_dlss(two_mode.model)
    table = markov_table(d, 1)  # too short for any rank-2 candidate
    assert list(iter_full_rank_selections(table, 2, 1, 2, 2)) == []


# ---------------------------------------------------------------- pipeline


def test_covariance_realization_oracle_quality(two_mode, two_mode_cov):
    model, diag = covariance_realization(two_mode_cov, 3, 3, two_mode.sel,
                                         two_mode.sel_bar)
    model.validate()
    assert diag["n_x"] == 3
    assert diag["n_bar"] == 3
    assert diag["kq_last_delta"] < 1e-10
    assert {"selection", "selection_bar", "kq_iterations"} <= set(diag)
    find_isomorphism(model, two_mode.model, tol=1e-8)


def test_covariance_realization_checks_explicit_selections_against_n_x(two_mode, two_mode_cov):
    # a selection of n = 3 used to realize a 3-state model for any n_x
    for n_x, n_bar, message in ((4, 4, "selection has n = 3 but n_x = 4"),
                                (3, 2, "selection_bar has n = 3 but n_bar = 2")):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            covariance_realization(two_mode_cov, n_x, n_bar, two_mode.sel, two_mode.sel_bar)


def test_covariance_realization_missing_words(two_mode):
    cov = exact_covariances(two_mode.model, 1)
    with pytest.raises(MissingMarkovParameterError) as info:
        covariance_realization(cov, 3, 3, two_mode.sel, two_mode.sel_bar)
    exc = info.value
    stage = "step 1 (input Markov values)"
    assert exc.stage == stage
    word = Word.parse(exc.word_text)  # the bare word, not the whole message
    assert len(word) > 1 and word not in cov.lambda_yu
    assert str(exc) == f"{stage}: no matrix stored for word '{exc.word_text}'"


def test_covariance_realization_rejects_overambitious_order(scalar):
    cov = exact_covariances(scalar.model, 5)
    sel = Selection(((EMPTY_WORD, 1), (Word((1,)), 1)),
                    ((1, EMPTY_WORD, 1), (1, Word((1,)), 1)),
                    n_modes=1, n_y=1, n_cols=2)
    sel_bar = Selection(((EMPTY_WORD, 1), (Word((1,)), 1)),
                        ((1, EMPTY_WORD, 1), (1, Word((1,)), 1)),
                        n_modes=1, n_y=1, n_cols=1)
    with pytest.raises(SingularHankelError) as info:
        covariance_realization(cov, 2, 2, sel, sel_bar)
    stage = "step 2 (input-part realization)"
    assert info.value.stage == stage
    assert info.value.rank == 1
    assert str(info.value).startswith(f"{stage}: ") and str(info.value).count(stage) == 1


def test_gain_iteration_stops_when_innovation_moment_turns_negative(two_mode,
                                                                     two_mode_cov):
    # lowering T^{yy}_{1,1} by 2.3 leaves Q_1 = p_1 T^{ys}_{1,1} > 0 at P = 0,
    # but no positive Q_1 at the fixed point: the gain iteration must stop as
    # soon as Q_1 loses its sign instead of wandering for max_iter steps
    t_yy = two_mode_cov.t_yy.copy()
    t_yy[0] = t_yy[0] - 2.3
    cov = CovarianceTable(lambda_yu=two_mode_cov.lambda_yu,
                          lambda_yy=two_mode_cov.lambda_yy, t_yy=t_yy,
                          q_u=two_mode_cov.q_u, p=two_mode_cov.p)
    with pytest.raises(NotFullRankError) as info:
        covariance_realization(cov, 3, 3, two_mode.sel, two_mode.sel_bar)
    assert info.value.stage == "step 6 (innovation conversion)"
    msg = str(info.value)
    assert "mode 1 is not positive definite at iteration 1 " in msg
    eig = float(msg.rsplit("smallest eigenvalue ", 1)[1].rstrip(")"))
    assert eig < 0.0


def test_stage_keeps_exceptions_with_other_signatures():
    class TwoArgs(Exception):
        def __init__(self, code, detail):
            super().__init__(code, detail)

    with pytest.raises(TwoArgs) as info:
        with _stage("step 5 (joint realization)"):
            raise TwoArgs(3, "detail")
    assert info.value.stage == "step 5 (joint realization)"
    assert info.value.args == (3, "detail")
    with pytest.raises(np.linalg.LinAlgError, match=r"^step 1 \(input Markov values\): Singular"):
        with _stage("step 1 (input Markov values)"):
            np.linalg.solve(np.zeros((2, 2)), np.ones(2))
