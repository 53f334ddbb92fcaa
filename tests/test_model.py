import numpy as np
import pytest

from slsid import (
    DeterministicModel,
    DimensionError,
    InnovationModel,
    ModelInvalidError,
    NotIsomorphicError,
    SwitchedModel,
    Word,
    associated_dlss,
    enumerate_words,
    find_isomorphism,
    markov_parameter,
    model_from_dict,
    stability_margin,
    transform_model,
)

from oracles import reach_obs_ranks


def scalar_switched(a=0.5, f=1.0):
    one = np.array([[1.0]])
    return SwitchedModel(A=(np.array([[a]]),), B=(one,), K=(one,),
                         C=one, Dmat=one, F=np.array([[f]]),
                         p=(1.0,), Q_u=one, Q_v=(one,))


# ---------------------------------------------------------------- validation


def test_validate_accepts_reference_model(two_mode):
    assert two_mode.model.validate() is two_mode.model


def test_validate_rejects_unstable_model():
    with pytest.raises(ModelInvalidError) as err:
        scalar_switched(a=1.05).validate()
    assert "not stationary" in str(err.value)


def test_validate_rejects_bad_probabilities():
    m = scalar_switched()
    bad = SwitchedModel(A=m.A, B=m.B, K=m.K, C=m.C, Dmat=m.Dmat, F=m.F,
                        p=(0.7,), Q_u=m.Q_u, Q_v=m.Q_v)
    with pytest.raises(ModelInvalidError):
        bad.validate()


def test_validate_rejects_indefinite_noise_covariance():
    m = scalar_switched()
    bad = SwitchedModel(A=m.A, B=m.B, K=m.K, C=m.C, Dmat=m.Dmat, F=m.F,
                        p=m.p, Q_u=m.Q_u, Q_v=(np.array([[-1.0]]),))
    with pytest.raises(ModelInvalidError) as err:
        bad.validate()
    assert "Q_v[1]" in str(err.value)


def test_innovation_form_requires_identity_f():
    m = scalar_switched(f=2.0)
    bad = InnovationModel(A=m.A, B=m.B, K=m.K, C=m.C, Dmat=m.Dmat, F=m.F,
                          p=m.p, Q_u=m.Q_u, Q_v=m.Q_v)
    with pytest.raises(ModelInvalidError):
        bad.validate()


def test_model_dimensions(two_mode):
    m = two_mode.model
    assert (m.n_modes, m.n_x, m.n_u, m.n_y, m.n_n) == (2, 3, 1, 1, 1)


# ---------------------------------------------------------------- stability


def test_stability_margin_hand_values():
    assert stability_margin((np.array([[0.8]]),), (1.0,)) == pytest.approx(0.64)
    got = stability_margin((np.array([[0.6]]), np.array([[1.2]])), (0.5, 0.5))
    assert got == pytest.approx(0.5 * 0.36 + 0.5 * 1.44)


def test_reference_model_is_mean_square_stable(two_mode):
    assert stability_margin(two_mode.model.A, two_mode.model.p) < 1.0


# ---------------------------------------------------------------- markov


def test_markov_parameter_hand_composition(two_mode):
    d = associated_dlss(two_mode.model)
    assert np.array_equal(markov_parameter(d, Word(())), d.Dmat)
    # w = (2, 1): first letter picks B_2, the remaining letters act in order
    want = d.C @ d.A[0] @ d.B[1]
    assert np.allclose(markov_parameter(d, Word((2, 1))), want)
    want = d.C @ d.A[1] @ d.A[0] @ d.B[0]
    assert np.allclose(markov_parameter(d, Word((1, 1, 2))), want)


def test_markov_parameters_are_isomorphism_invariant(two_mode):
    rng = np.random.default_rng(5)
    d = associated_dlss(two_mode.model)
    words = list(enumerate_words(2, 3))
    for _ in range(5):
        T = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        moved = associated_dlss(transform_model(two_mode.model, T))
        for w in words:
            assert np.allclose(markov_parameter(moved, w), markov_parameter(d, w),
                               atol=1e-8)


def test_reach_obs_ranks_minimal(two_mode):
    d = associated_dlss(two_mode.model)
    reach, obs = reach_obs_ranks(d)
    assert reach == 3 and obs == 3


# ---------------------------------------------------------------- isomorphism


def test_transform_round_trip(two_mode):
    rng = np.random.default_rng(1)
    T = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    moved = transform_model(two_mode.model, T)
    back = transform_model(moved, np.linalg.inv(T))
    for s in range(2):
        assert np.allclose(back.A[s], two_mode.model.A[s], atol=1e-10)
        assert np.allclose(back.K[s], two_mode.model.K[s], atol=1e-10)
    assert np.allclose(back.C, two_mode.model.C, atol=1e-10)
    # Q_v, D, F, p are basis independent
    assert np.array_equal(moved.Q_v[0], two_mode.model.Q_v[0])
    assert np.array_equal(moved.Dmat, two_mode.model.Dmat)


def test_find_isomorphism_recovers_alignment(two_mode):
    rng = np.random.default_rng(2)
    T = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    moved = transform_model(two_mode.model, T)
    got = find_isomorphism(moved, two_mode.model, tol=1e-6)
    realigned = transform_model(moved, got)
    for s in range(2):
        assert np.allclose(realigned.A[s], two_mode.model.A[s], atol=1e-7)
        assert np.allclose(realigned.B[s], two_mode.model.B[s], atol=1e-7)


def test_find_isomorphism_builds_no_operator_for_validated_models(two_mode, ms_builds):
    # validation built each model's mean-square operator; the isomorphism's
    # state moments read it
    model = model_from_dict(two_mode.model.to_dict()).validate()
    T = np.random.default_rng(2).normal(size=(3, 3)) + 3.0 * np.eye(3)
    moved = transform_model(model, T).validate()
    assert len(ms_builds) == 2
    find_isomorphism(moved, model, tol=1e-6)
    assert len(ms_builds) == 2


def test_find_isomorphism_rejects_different_dynamics(two_mode):
    A = list(two_mode.model.A)
    A[0] = A[0] + 0.05
    other = InnovationModel.from_parts(
        tuple(A), two_mode.model.B, two_mode.model.K, two_mode.model.C,
        two_mode.model.Dmat, two_mode.model.p, two_mode.model.Q_u,
        two_mode.model.Q_v)
    with pytest.raises(NotIsomorphicError) as err:
        find_isomorphism(two_mode.model, other)
    assert err.value.residuals  # names the offending matrices


def test_find_isomorphism_rejects_dimension_and_p_mismatch(two_mode, scalar):
    with pytest.raises(DimensionError):
        find_isomorphism(two_mode.model, scalar.model)
    skewed = InnovationModel.from_parts(
        two_mode.model.A, two_mode.model.B, two_mode.model.K,
        two_mode.model.C, two_mode.model.Dmat, (0.4, 0.6),
        two_mode.model.Q_u, two_mode.model.Q_v)
    with pytest.raises(NotIsomorphicError):
        find_isomorphism(two_mode.model, skewed)


# ---------------------------------------------------------------- serialization


def test_model_dict_round_trip(two_mode):
    back = model_from_dict(two_mode.model.to_dict())
    assert isinstance(back, InnovationModel)
    for s in range(2):
        assert np.array_equal(back.A[s], two_mode.model.A[s])
        assert np.array_equal(back.Q_v[s], two_mode.model.Q_v[s])
    assert np.array_equal(back.p, two_mode.model.p)


@pytest.mark.parametrize("layout", [
    lambda fam: [m.tolist() for m in fam],   # nested lists, as JSON has them
    lambda fam: tuple(np.array(m) for m in fam),
    np.array,
], ids=["lists", "tuple", "array"])
def test_families_are_read_only_mode_stacks(two_mode, layout):
    m = two_mode.model
    built = InnovationModel.from_parts(layout(m.A), layout(m.B), layout(m.K), m.C, m.Dmat,
                                       m.p, m.Q_u, layout(m.Q_v))
    d = DeterministicModel(A=layout(m.A), B=layout(m.B), C=m.C, Dmat=m.Dmat)
    for fam, want in ((built.A, m.A), (built.B, m.B), (built.K, m.K), (built.Q_v, m.Q_v),
                      (d.A, m.A), (d.B, m.B)):
        assert isinstance(fam, np.ndarray) and fam.dtype == float
        assert fam.shape == want.shape and fam.ndim == 3 and len(fam) == 2
        assert fam.tobytes() == want.tobytes()
        assert not fam.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        built.A[0][0, 0] = 1.0
    assert [a.shape for a in built.A] == [(3, 3), (3, 3)]


@pytest.mark.parametrize("name, family", [
    ("A", [np.eye(3), np.eye(2)]),          # ragged
    ("K", []),                              # empty
    ("Q_v", [[["x"]], [[1.0]]]),            # not numeric
    ("B", [1.0, 2.0]),                      # numbers, not matrices
])
def test_a_malformed_family_is_named(two_mode, name, family):
    m = two_mode.model
    parts = dict(A=m.A, B=m.B, K=m.K, C=m.C, Dmat=m.Dmat, p=m.p, Q_u=m.Q_u, Q_v=m.Q_v)
    parts[name] = family
    with pytest.raises(ModelInvalidError, match=f"^{name} "):
        InnovationModel.from_parts(**parts)
    if name in ("A", "B"):
        with pytest.raises(ModelInvalidError, match=f"^{name} "):
            DeterministicModel(**{"A": m.A, "B": m.B, "C": m.C, "Dmat": m.Dmat, name: family})


def test_deterministic_dict_round_trip(two_mode):
    d = associated_dlss(two_mode.model)
    back = model_from_dict(d.to_dict())
    assert isinstance(back, DeterministicModel)
    assert np.array_equal(back.B[1], d.B[1])
    assert np.array_equal(back.Dmat, d.Dmat)
