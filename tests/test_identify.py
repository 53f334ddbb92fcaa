import re
import sys
import tracemalloc

import numpy as np
import pytest

from slsid import (
    EMPTY_WORD,
    Dataset,
    DimensionError,
    IdentConfig,
    InnovationModel,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
    NoSelectionFoundError,
    NotFullRankError,
    Selection,
    SimConfig,
    SingularHankelError,
    SwitchedModel,
    UndefinedBfrError,
    ValidationReport,
    Word,
    WordIndexedMatrixTable,
    associated_dlss,
    associated_slss,
    bfr,
    covariance_realization,
    empirical_covariances,
    enumerate_words,
    exact_covariances,
    find_isomorphism,
    ho_kalman,
    identify,
    input_state_second_moment,
    iter_full_rank_selections,
    lambda_ydyd,
    predict,
    resolve_p,
    resolve_selections,
    simulate,
    stability_margin,
    validate_model,
)
from slsid.model import numerical_rank
from slsid.realize import SEARCH_ATTEMPTS

from oracles import (
    least_squares_covariances,
    load_tool,
    matrix_product_along_word,
    reach_obs_ranks,
)

consistency_experiment = load_tool("bench_quality").consistency_experiment


def scalar_predictor(a=0.5, k=0.2, c=1.0, b=0.0, d=0.0):
    return InnovationModel.from_parts(
        (np.array([[a]]),), (np.array([[b]]),), (np.array([[k]]),),
        np.array([[c]]), np.array([[d]]), (1.0,), np.array([[1.0 / 3.0]]),
        (np.array([[1.0]]),))


# ---------------------------------------------------------------- predict


def test_predict_hand_recursion_innovation_path():
    m = scalar_predictor()
    data = Dataset(y=[[1.0], [1.0], [1.0]], u=[[0.0], [0.0], [0.0]], q=[1, 1, 1])
    # x(0) = 0; x(t+1) = 0.3 x(t) + 0.2 y(t): yhat = (0, 0.2, 0.26)
    assert np.allclose(predict(m, data)[:, 0], [0.0, 0.2, 0.26], atol=1e-12)


def test_predict_hand_recursion_input_path():
    m = scalar_predictor(a=0.3, k=0.0, c=1.0, b=1.0, d=0.5)
    data = Dataset(y=[[9.0], [9.0], [9.0]], u=[[1.0], [0.0], [1.0]], q=[1, 1, 1])
    # k = 0 decouples the state from y: x = (0, 1, 0.3)
    assert np.allclose(predict(m, data)[:, 0], [0.5, 1.0, 0.8], atol=1e-12)


def test_predict_uses_the_active_mode():
    m = InnovationModel.from_parts(
        (np.array([[0.0]]), np.array([[0.0]])),
        (np.array([[1.0]]), np.array([[-1.0]])),
        (np.array([[0.0]]), np.array([[0.0]])),
        np.array([[1.0]]), np.array([[0.0]]), (0.5, 0.5),
        np.array([[1.0 / 3.0]]), (np.array([[1.0]]), np.array([[1.0]])))
    data = Dataset(y=[[0.0]] * 3, u=[[1.0], [1.0], [0.0]], q=[1, 2, 1])
    # x(1) = B_1 u(0) = 1, x(2) = B_2 u(1) = -1
    assert np.allclose(predict(m, data)[:, 0], [0.0, 1.0, -1.0], atol=1e-12)


def test_predict_requires_innovation_form(two_mode):
    m = two_mode.model
    general = SwitchedModel(A=m.A, B=m.B, K=m.K, C=m.C, Dmat=m.Dmat,
                            F=np.array([[2.0]]), p=m.p, Q_u=m.Q_u, Q_v=m.Q_v)
    data = Dataset(y=[[0.0], [0.0]], u=[[0.0], [0.0]], q=[1, 1])
    with pytest.raises(ModelInvalidError):
        predict(general, data)


def test_predict_dimension_checks(two_mode):
    data = Dataset(y=[[0.0], [0.0]], u=[[0.0, 1.0], [0.0, 1.0]], q=[1, 1])
    with pytest.raises(DimensionError):
        predict(two_mode.model, data)
    data = Dataset(y=[[0.0], [0.0]], u=[[0.0], [0.0]], q=[1, 3])
    with pytest.raises(DimensionError):
        predict(two_mode.model, data)


# ---------------------------------------------------------------- bfr


def test_bfr_hand_values():
    assert bfr([[0.0], [2.0]], [[0.0], [2.0]]) == 100.0
    assert bfr([[0.0], [2.0]], [[0.5], [1.5]]) == pytest.approx(50.0)
    # clamped at zero when the fit is worse than the mean predictor
    assert bfr([[0.0], [2.0]], [[0.0], [0.0]]) == 0.0


def test_bfr_affine_invariance():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(50, 1))
    yhat = y + 0.3 * rng.normal(size=(50, 1))
    base = bfr(y, yhat)
    for a, b in ((2.0, 1.0), (-0.5, 3.0), (10.0, -7.0)):
        assert bfr(a * y + b, a * yhat + b) == pytest.approx(base, abs=1e-9)


def test_bfr_error_cases():
    with pytest.raises(UndefinedBfrError):
        bfr([[1.0], [1.0]], [[0.0], [0.0]])
    with pytest.raises(DimensionError):
        bfr([[1.0], [2.0]], [[1.0]])
    with pytest.raises(DimensionError):
        bfr([[1.0]], [[1.0]])


def test_bfr_takes_a_one_dimensional_series_as_one_channel():
    y = np.arange(5.0)
    assert bfr(y, y + 0.1) == bfr(y[:, None], y[:, None] + 0.1)
    assert bfr(y, y + 0.1) == pytest.approx(100.0 * (1.0 - np.sqrt(0.05 / 10.0)))


# ---------------------------------------------------------------- identify


def test_identify_with_explicit_selections(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=7, length=10000))
    cfg = IdentConfig(n_x=3, selection=two_mode.sel,
                      selection_bar=two_mode.sel_bar)
    model, diag = identify(data, cfg)
    model.validate()
    assert diag["N"] == 10000
    assert "estimator" not in diag
    assert abs(diag["p"][0] - 0.5) < 0.02  # empirical mode frequency
    fresh = simulate(two_mode.model, SimConfig(seed=7007, length=500))
    noise_free = Dataset(y=fresh.y_clean, u=fresh.u, q=fresh.q)
    report = validate_model(model, noise_free, exclude=6)
    assert report.bfr > 75.0


def test_identify_search_mode(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=21, length=10000))
    model, diag = identify(data, IdentConfig(n_x=3))
    model.validate()
    assert "selection_found" in diag
    assert "selection_bar_found" in diag
    assert diag["search_attempts"] >= 1
    fresh = simulate(two_mode.model, SimConfig(seed=8021, length=500))
    noise_free = Dataset(y=fresh.y_clean, u=fresh.u, q=fresh.q)
    assert validate_model(model, noise_free, exclude=6).bfr > 50.0


def test_identify_keeps_the_reasons_of_rejected_attempts(two_mode):
    # at N = 1e5, seed 6 the first vetted selections fail in the gain
    # iteration and the second attempt succeeds
    data = simulate(two_mode.model, SimConfig(seed=6, length=100_000))
    cfg = IdentConfig(n_x=3, p=(0.5, 0.5))
    _, diag = identify(data, cfg)
    assert diag["search_attempts"] == 2
    assert diag["rejected_attempts"] == [
        "NotFullRankError: step 6 (innovation conversion): no stabilizing "
        "solution: closed-loop mean-square radius 1.1530 >= 1 at Newton step 3"]
    _, again = identify(data, cfg)
    assert again == diag
    # a first-try success carries no such entry
    _, first_try = identify(simulate(two_mode.model, SimConfig(seed=0, length=100_000)),
                            cfg)
    assert first_try["search_attempts"] == 1
    assert "rejected_attempts" not in first_try
    # at N = 1e4 seed 0 takes 3 attempts and seed 25 takes 4; the attempt
    # that converts uses the selections of resolve_selections at its skip
    for seed, attempts in ((0, 3), (25, 4)):
        data = simulate(two_mode.model, SimConfig(seed=seed, length=10_000))
        _, diag = identify(data, cfg)
        assert diag["search_attempts"] == attempts
        assert len(diag["rejected_attempts"]) == attempts - 1
        cov = empirical_covariances(data, (0.5, 0.5), enumerate_words(2, 8))
        sel, sel_bar, found = resolve_selections(cov, 3, 3, "search", "search",
                                                 skip=attempts - 1)
        assert diag["selection"] == sel.to_jsonable() == found["selection_found"]
        assert diag["selection_bar"] == sel_bar.to_jsonable() == found["selection_bar_found"]


def test_search_exhaustion_is_a_typed_error_naming_its_step(two_mode, scalar):
    # N = 1e3, seed 9: attempts 0, 1 and 3 fail in step 6, and attempts 2 and
    # 4 find too few vetted joint selections among their 202 and 204 candidates
    data = simulate(two_mode.model, SimConfig(seed=9, length=1000))
    with pytest.raises(NoSelectionFoundError) as err:
        identify(data, IdentConfig(n_x=3, p=(0.5, 0.5)))
    stage = "step 5 (joint realization)"
    assert err.value.stage == stage
    assert str(err.value) == (
        f"{stage}: 204 full-rank selection(s) examined, none usable; more data or an "
        "explicit selection is needed")
    # the scalar system's Hankels have rank 1: a rank-2 input part has no candidate
    cov = exact_covariances(scalar.model, 6)
    with pytest.raises(NoSelectionFoundError) as err:
        resolve_selections(cov, 2, 2, "search", "search")
    assert err.value.stage == "step 2 (input-part realization)"
    assert "0 full-rank selection(s) examined, none usable" in str(err.value)


def test_a_step_2_failure_ends_the_attempts(scalar, monkeypatch):
    # a rank-2 input part of the scalar system has no candidate at any
    # attempt: the realization and identify raise the first attempt's
    # step-2 failure after one search, with no retry
    cov = exact_covariances(scalar.model, 6)
    realize = sys.modules["slsid.realize"]
    searched, search = [], realize.iter_full_rank_selections
    monkeypatch.setattr(realize, "iter_full_rank_selections",
                        lambda *args: searched.append(args) or search(*args))
    monkeypatch.setattr(sys.modules["slsid.identify"], "empirical_covariances",
                        lambda *args: cov)
    data = simulate(scalar.model, SimConfig(seed=0, length=100))
    for run in (lambda: covariance_realization(cov, 2, 2, "search", "search"),
                lambda: identify(data, IdentConfig(n_x=2, p=(1.0,)))):
        searched.clear()
        with pytest.raises(NoSelectionFoundError) as err:
            run()
        assert err.value.stage == "step 2 (input-part realization)"
        assert "0 full-rank selection(s) examined, none usable" in str(err.value)
        assert len(searched) == 1


def test_identify_checks_explicit_selections_before_estimating(two_mode, monkeypatch):
    data = simulate(two_mode.model, SimConfig(seed=7, length=500))

    def no_estimate(*args, **kwargs):
        raise AssertionError("estimated before the selections were checked")

    # slsid.identify names the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["slsid.identify"], "empirical_covariances",
                        no_estimate)
    wide = Selection(two_mode.sel.alpha, two_mode.sel.beta, n_modes=2, n_y=2, n_cols=3)
    cases = [
        (dict(p=(0.3, 0.3, 0.4)), "selection has 2 modes but p has 3 entries"),
        (dict(selection=wide), "selection has n_y = 2 but the data has n_y = 1"),
        (dict(selection=two_mode.sel_bar),
         "selection has 1 columns but needs n_u + n_y = 2"),
        (dict(selection_bar=two_mode.sel),
         "selection_bar has 2 columns but needs n_u = 1"),
        # a selection of n = 3 used to realize a 3-state model for any n_x
        (dict(n_x=4), "selection has n = 3 but n_x = 4"),
        (dict(n_x=2), "selection has n = 3 but n_x = 2"),
        (dict(n_bar=5), "selection_bar has n = 3 but n_bar = 5"),
    ]
    for change, message in cases:
        fields = dict(n_x=3, selection=two_mode.sel, selection_bar=two_mode.sel_bar)
        fields.update(change)
        with pytest.raises(DimensionError) as err:
            identify(data, IdentConfig(**fields))
        assert str(err.value) == message
        assert err.value.stage is None


def test_identify_rejects_short_data(two_mode):
    data = Dataset(y=[[0.0], [0.0]], u=[[0.0], [0.0]], q=[1, 1])
    with pytest.raises(InsufficientDataError):
        identify(data, IdentConfig(n_x=1))


def test_identify_rejects_missing_modes():
    data = Dataset(y=np.random.default_rng(0).normal(size=(50, 1)),
                   u=np.zeros((50, 1)), q=[1, 3] * 25)
    with pytest.raises(InvalidProbabilityError):
        identify(data, IdentConfig(n_x=1))


def test_identify_refuses_modes_outside_p():
    # the estimator's check, the one identify relies on
    data = Dataset(y=np.random.default_rng(0).normal(size=(50, 1)),
                   u=np.ones((50, 1)), q=[1, 3] * 25)
    with pytest.raises(DimensionError, match="^data uses mode 3 but p has 2 entries$"):
        identify(data, IdentConfig(n_x=1, p=(0.5, 0.5)))


@pytest.mark.parametrize("spec", [3, 0.5, True, np.float64(2.0)])
def test_resolve_p_names_a_p_that_is_not_a_vector(spec):
    # a bare number or bool was taken as the one-entry vector [1.0]
    data = Dataset(y=np.zeros((4, 1)), u=np.zeros((4, 1)), q=[1, 2, 1, 2])
    with pytest.raises(InvalidProbabilityError,
                       match=re.escape(f"or a vector of numbers, got {spec!r}")):
        resolve_p(spec, data)


def test_empirical_p_counts_the_modes_without_widening_them(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=4, length=100_000))
    wide = np.random.default_rng(0).integers(1, 201, 5000)
    for d in (data, Dataset(y=np.zeros((5000, 1)), u=np.zeros((5000, 1)), q=wide)):
        counts = np.bincount(d.q)[1:].astype(float)
        assert resolve_p("empirical", d).tobytes() == (counts / counts.sum()).tobytes()
    resolve_p("empirical", data)  # lazy imports
    tracemalloc.start()
    try:
        resolve_p("empirical", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 modes widened to intp would take 800 kB; one comparison's
    # mask takes 100 kB
    assert data.q.dtype == np.int8 and peak < 200_000


def test_ident_config_validation(two_mode):
    with pytest.raises(DimensionError):
        IdentConfig(n_x=0)
    with pytest.raises(DimensionError, match="n_bar must be >= 1, got 0"):
        IdentConfig(n_x=1, n_bar=0)
    # the counts follow SimConfig's rule: a fraction, a bool or a non-number
    # is refused by name, and an integral float is taken as an int
    for name, value in (("n_x", 2.5), ("n_x", True), ("n_x", "3"), ("n_x", float("nan")),
                        ("n_bar", 2.5), ("n_bar", False)):
        with pytest.raises(DimensionError, match=f"{name} must be an integer, got"):
            IdentConfig(**{"n_x": 1, name: value})
    cfg = IdentConfig(n_x=3.0, n_bar=2.0)
    assert (cfg.n_x, cfg.n_bar) == (3, 2)
    assert type(cfg.n_x) is int and type(cfg.n_bar) is int
    # the numerics and the estimator are fixed, not fields
    for name in ("fp_tol", "fp_max_iter", "search_budget", "rank_tol", "estimator"):
        with pytest.raises(TypeError, match=name):
            IdentConfig(n_x=1, **{name: 1})
    data = simulate(two_mode.model, SimConfig(seed=30, length=200))
    with pytest.raises(InvalidProbabilityError):
        identify(data, IdentConfig(n_x=3, selection=two_mode.sel,
                                   selection_bar=two_mode.sel_bar, p="oracle"))


def test_resolve_selections_passthrough(two_mode, two_mode_cov):
    sel, sel_bar, diag = resolve_selections(two_mode_cov, 3, 3,
                                            two_mode.sel, two_mode.sel_bar)
    assert sel is two_mode.sel and sel_bar is two_mode.sel_bar
    assert diag == {}


def _stable_hit(table, n, n_cols, n_modes, skip):
    """The (skip+1)-th full-rank candidate whose A family is mean-square stable."""
    accepted = 0
    for cand in iter_full_rank_selections(table, n, table.shape[0], n_cols, n_modes):
        try:
            m = ho_kalman(cand, table, np.zeros(table.shape))
        except SingularHankelError:
            continue
        if stability_margin(m.A, np.ones(n_modes)) < 1.0:
            if accepted == skip:
                return cand
            accepted += 1
    raise AssertionError("no stable hit")


def _eager_search(cov, n, skip):
    # every table value computed up front by its per-word formula
    D = cov.p.shape[0]
    words = cov.lambda_yu.words()
    psi = WordIndexedMatrixTable.from_pairs(
        (cov.n_y, cov.n_u), ((w, np.linalg.solve(cov.q_u, cov.lambda_yu[w].T).T) for w in words))
    sel_bar = _stable_hit(psi, n, cov.n_u, D, skip)
    m_psi = ho_kalman(sel_bar, psi, psi[EMPTY_WORD])
    P = input_state_second_moment(m_psi, cov.q_u, cov.p)
    C, Dm = m_psi.C, m_psi.Dmat
    lam_dd = {}
    for w in words[1:]:
        s = w.letters[0] - 1
        core = (m_psi.A[s] @ P[s] @ C.T) / cov.p[s] + m_psi.B[s] @ cov.q_u @ Dm.T
        lam_dd[w] = C @ matrix_product_along_word(m_psi.A, Word(w.letters[1:])) @ core
    M = WordIndexedMatrixTable.from_pairs(
        (cov.n_y, cov.n_u + cov.n_y),
        ((w, np.hstack([psi[w], cov.lambda_yy[w] - lam_dd[w]])) for w in words[1:]))
    sel = _stable_hit(M, n, cov.n_u + cov.n_y, D, skip)
    return sel, sel_bar


def test_a_search_realization_builds_no_word_index_per_attempt(two_mode, monkeypatch):
    # N = 1e4, seed 25 takes four attempts.  Psi reads Lambda^{y,u}'s own
    # index, and every attempt's Lambda^{yd,yd} and joint table read
    # Lambda^{y,y}'s: the realization builds no index
    data = simulate(two_mode.model, SimConfig(seed=25, length=10_000))
    cov = empirical_covariances(data, (0.5, 0.5), enumerate_words(2, 8))
    realize, algebra = sys.modules["slsid.realize"], sys.modules["slsid.algebra"]
    built, made = [], {"psi_uy": [], "lambda_ydyd": [], "ho_kalman": []}

    def spy(name, pick):
        real = getattr(realize, name)

        def wrapper(*args):
            out = real(*args)
            made[name].append(pick(args, out))
            return out
        monkeypatch.setattr(realize, name, wrapper)

    spy("psi_uy", lambda args, out: out)
    spy("lambda_ydyd", lambda args, out: out[0])
    spy("ho_kalman", lambda args, out: args[1])
    index_of = algebra._index_of
    monkeypatch.setattr(algebra, "_index_of", lambda words: built.append(len(words))
                        or index_of(words))
    _, diag = covariance_realization(cov, 3, 3, "search", "search")
    assert diag["search_attempts"] == 4 and built == []
    assert [psi.index is cov.lambda_yu.index for psi in made["psi_uy"]] == [True]
    assert len(made["lambda_ydyd"]) == 4
    assert all(t.index is cov.lambda_yy.index for t in made["lambda_ydyd"])
    # Ho-Kalman reads Psi at sel_bar and the joint table at sel
    assert {id(t.index) for t in made["ho_kalman"]} == {id(cov.lambda_yu.index),
                                                        id(cov.lambda_yy.index)}
    # a Lambda^{y,y} word that Lambda^{y,u} lacks: one index over the joint
    # words, for the whole realization
    extra = WordIndexedMatrixTable.from_pairs(
        (1, 1), list(cov.lambda_yy.items()) + [(Word((1,) * 9), [[0.0]])])
    cov.lambda_yy = extra
    made = {name: [] for name in made}
    built.clear()
    assert covariance_realization(cov, 3, 3, "search", "search")[1] == diag
    assert built == [len(extra) - 1]
    assert len({id(t.index) for t in made["lambda_ydyd"]}) == 1


def test_a_search_builds_each_realization_s_operator_once(two_mode_cov, ms_builds,
                                                         monkeypatch):
    # the search vets every realization by its mean-square radius; the
    # input-part moments (steps 3-4) and the gain solve's check (step 6)
    # read the vetted realizations' operators.  The other builds are one
    # closed loop per gain step and the returned model's validation
    realize = sys.modules["slsid.realize"]
    real, made = realize.ho_kalman, []

    def recording(*args):
        made.append(real(*args))
        return made[-1]
    monkeypatch.setattr(realize, "ho_kalman", recording)
    _, diag = covariance_realization(two_mode_cov, 3, 3, "search", "search")
    assert [sum(A is m.A for A, _ in ms_builds) for m in made] == [1] * len(made)
    assert len(ms_builds) == len(made) + diag["kq_iterations"] + 1


def test_the_gain_solve_stops_where_no_newton_step_exists(two_mode, ms_builds, monkeypatch):
    # N = 5000, seed 5, bundled selections: the gain solve's closed loop is
    # not mean-square stable at Newton step 1, so the stabilizing solution
    # does not exist.  The solve names it there and solves no Lyapunov
    # equation on that closed loop
    realize = sys.modules["slsid.realize"]
    real, solved = realize._lyapunov_mean, []

    def recording(mean_square, const, label):
        solved.append((mean_square[1], label))
        return real(mean_square, const, label)
    monkeypatch.setattr(realize, "_lyapunov_mean", recording)
    data = simulate(two_mode.model, SimConfig(seed=5, length=5000))
    cfg = IdentConfig(n_x=3, selection=two_mode.sel, selection_bar=two_mode.sel_bar,
                      p=(0.5, 0.5))
    with pytest.raises(NotFullRankError) as info:
        identify(data, cfg)
    assert str(info.value) == (
        "step 6 (innovation conversion): no stabilizing solution: closed-loop "
        "mean-square radius 1.0607 >= 1 at Newton step 1")
    # the last operator built is that closed loop's
    assert f"{ms_builds[-1][1]:.4f}" == "1.0607"
    assert [label for _, label in solved].count("closed-loop family") == 1
    assert all(rho < 1.0 for rho, _ in solved)


@pytest.mark.parametrize("case", ["2e4-0", "2e4-1", "2e4-2", "2e4-3", "1e5-6", "exact"])
def test_search_reads_the_values_an_eager_search_reads(two_mode, two_mode_cov, case):
    # the search tables compute values on first read; an eager search over
    # fully built tables must find the same selections
    if case == "exact":
        cov = two_mode_cov
    else:
        N, seed = case.split("-")
        data = simulate(two_mode.model, SimConfig(seed=int(seed), length=int(float(N))))
        cov = empirical_covariances(data, (0.5, 0.5), enumerate_words(2, 8))
    for skip in range(SEARCH_ATTEMPTS):
        sel, sel_bar, _ = resolve_selections(cov, 3, 3, "search", "search", skip=skip)
        assert (sel, sel_bar) == _eager_search(cov, 3, skip)


def test_resolve_selections_search_on_oracle(two_mode, two_mode_cov):
    sel, sel_bar, diag = resolve_selections(two_mode_cov, 3, 3,
                                            "search", "search")
    assert sel.n == 3 and sel_bar.n == 3
    assert "selection_found" in diag and "selection_bar_found" in diag
    model, _ = covariance_realization(two_mode_cov, 3, 3, sel, sel_bar)
    find_isomorphism(model, two_mode.model, tol=1e-6)


# ---------------------------------------------------------------- validation


def test_validate_model_report_fields(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=40, length=800))
    report = validate_model(two_mode.model, data, exclude=10,
                            keep_predictions=True)
    assert report.n_excluded == 10
    assert report.n_compared == 790
    assert report.predictions.shape == (800, 1)
    assert set(report.whiteness) == {1, 2}
    assert report.runtime_seconds > 0.0
    obj = report.to_jsonable()
    assert "runtime_seconds" not in obj
    assert set(obj["whiteness"]) == {"1", "2"}


def test_validate_model_prefers_clean_channel(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=41, length=3000))
    with_clean = validate_model(two_mode.model, data)
    stripped = Dataset(y=data.y, u=data.u, q=data.q)
    against_noisy = validate_model(two_mode.model, stripped)
    explicit = validate_model(two_mode.model, Dataset(y=data.y, u=data.u, q=data.q,
                                                      y_clean=data.y_clean))
    assert with_clean.bfr == pytest.approx(explicit.bfr)
    # scoring against the noisy output can only look worse
    assert against_noisy.bfr < with_clean.bfr


def test_validate_model_exclude_bounds(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=42, length=50))
    with pytest.raises(InsufficientDataError):
        validate_model(two_mode.model, data, exclude=49)


def test_validate_model_rejects_negative_exclude(two_mode):
    # a negative exclude would score only the last samples and report more
    # compared samples than the data holds
    data = simulate(two_mode.model, SimConfig(seed=42, length=200))
    with pytest.raises(DimensionError, match="exclude must be >= 0, got -5"):
        validate_model(two_mode.model, data, exclude=-5)
    assert validate_model(two_mode.model, data, exclude=0).n_compared == 200


# ---------------------------------------------------------------- consistency


def test_consistency_experiment_keeps_the_failure_reason(two_mode):
    cfg = IdentConfig(n_x=3, selection=two_mode.sel,
                      selection_bar=two_mode.sel_bar, p=(0.5, 0.5))
    result = consistency_experiment(two_mode.model, [1000], [0, 1], cfg)
    assert [row["failed"] for row in result.rows] == [True, True]
    assert result.rows[0]["reason"].startswith(
        "NonConvergenceError: steps 3-4 (noise-part covariances): input-part "
        "realization is not mean-square stable")
    assert result.rows[1]["reason"] == (
        "NotFullRankError: step 6 (innovation conversion): no stabilizing "
        "solution: closed-loop mean-square radius 2.1259 >= 1 at Newton step 0")


# ---------------------------------------------------------------- removed parameters


@pytest.mark.parametrize("func, name", [
    (consistency_experiment, "use_oracle"),
    (consistency_experiment, "word_len"),
    (consistency_experiment, "sim_template"),
    (consistency_experiment, "markov_block"),
    (validate_model, "y_ref"),
    (ValidationReport.to_jsonable, "include_runtime"),
    (empirical_covariances, "modes"),
    (least_squares_covariances, "words_y"),
    (least_squares_covariances, "modes"),
    (lambda_ydyd, "modes"),
    (numerical_rank, "tol_factor"),
    (reach_obs_ranks, "depth"),
    (reach_obs_ranks, "tol_factor"),
    (associated_slss, "return_state"),
    (WordIndexedMatrixTable, "entries"),
])
def test_removed_parameters_are_gone(func, name):
    # each had one value on every program path; that value is now fixed
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        func(**{name: None})


def test_associated_slss_needs_q_u(two_mode):
    m = two_mode.model
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'q_u'"):
        associated_slss(associated_dlss(m), m.p, {1: np.eye(1), 2: np.eye(1)})
