import numpy as np
import pytest

from slsid import (
    Dataset,
    DimensionError,
    InnovationModel,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
    SimConfig,
    load_series_csv,
    sample_switching,
    simulate,
)


# ---------------------------------------------------------------- switching


def test_sample_switching_range_and_determinism():
    rng = np.random.Generator(np.random.Philox(42))
    q = sample_switching((0.5, 0.5), 1000, rng)
    assert q.min() >= 1 and q.max() <= 2
    rng2 = np.random.Generator(np.random.Philox(42))
    assert np.array_equal(q, sample_switching((0.5, 0.5), 1000, rng2))


def test_sample_switching_frequencies():
    rng = np.random.Generator(np.random.Philox(0))
    q = sample_switching((0.2, 0.3, 0.5), 50000, rng)
    freq = np.bincount(q)[1:] / q.size
    assert np.max(np.abs(freq - (0.2, 0.3, 0.5))) < 0.01


def test_sample_switching_rejects_bad_p():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidProbabilityError):
        sample_switching((0.5, 0.6), 10, rng)
    with pytest.raises(InvalidProbabilityError):
        sample_switching((1.0, 0.0), 10, rng)


# ---------------------------------------------------------------- simulate


def test_simulate_shapes_and_determinism(two_mode):
    cfg = SimConfig(seed=9, length=300)
    data = simulate(two_mode.model, cfg)
    assert len(data) == 300
    assert data.y.shape == (300, 1)
    assert data.u.shape == (300, 1)
    assert data.q.shape == (300,)
    assert data.y_clean.shape == (300, 1)
    assert np.isfinite(data.y).all()
    again = simulate(two_mode.model, cfg)
    assert np.array_equal(data.y, again.y)
    assert np.array_equal(data.q, again.q)
    other = simulate(two_mode.model, SimConfig(seed=10, length=300))
    assert not np.array_equal(data.y, other.y)


def _uniform_cfg(q_u, **kwargs):
    # input bounds whose implied variance (high - low)^2 / 12 matches q_u
    h = float(np.sqrt(3.0 * q_u))
    return SimConfig(input_low=-h, input_high=h, **kwargs)


def test_simulate_zero_state_start_without_burn_in(scalar):
    data = simulate(scalar.model, _uniform_cfg(scalar.q_u, seed=3, length=50,
                                               burn_in=0))
    # x(0) = 0, so the noise-free output at t = 0 is D u(0)
    assert data.y_clean[0, 0] == pytest.approx(scalar.d * data.u[0, 0])


def test_simulate_clean_channel_tracks_y_when_noise_vanishes(scalar):
    tiny = InnovationModel.from_parts(
        (np.array([[scalar.a]]),), (np.array([[scalar.b]]),),
        (np.array([[scalar.k]]),), np.array([[scalar.c]]),
        np.array([[scalar.d]]), (1.0,), np.array([[scalar.q_u]]),
        (np.array([[1e-14]]),))
    data = simulate(tiny, _uniform_cfg(scalar.q_u, seed=4, length=400))
    assert np.max(np.abs(data.y - data.y_clean)) < 1e-5


def test_simulate_uniform_input_bounds_and_qu_consistency(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=5, length=2000))
    assert data.u.min() >= -1.0 and data.u.max() <= 1.0
    with pytest.raises(ModelInvalidError):
        simulate(two_mode.model,
                 SimConfig(seed=5, length=100, input_low=-2.0, input_high=2.0))


def test_simulate_refuses_unstable_model(scalar):
    bad = InnovationModel.from_parts(
        (np.array([[1.3]]),), (np.array([[1.0]]),), (np.array([[0.1]]),),
        np.array([[1.0]]), np.array([[0.0]]), (1.0,),
        np.array([[1.0 / 3.0]]), (np.array([[1.0]]),))
    with pytest.raises(ModelInvalidError):
        simulate(bad, SimConfig(seed=1, length=10))


def test_simulate_mode_frequencies_follow_p(two_mode):
    data = simulate(two_mode.model, SimConfig(seed=6, length=30000))
    freq = np.bincount(data.q)[1:] / len(data)
    assert np.max(np.abs(freq - 0.5)) < 0.01


# ---------------------------------------------------------------- config


def test_sim_config_validation():
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=0)
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=10, burn_in=-1)
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=10, input_dist="poisson")
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=10, input_low=1.0, input_high=-1.0)


def test_sim_config_json_round_trip():
    cfg = SimConfig(seed=7, length=123, burn_in=10, input_low=-2.0,
                    input_high=2.0)
    assert SimConfig.from_jsonable(cfg.to_jsonable()) == cfg


# ---------------------------------------------------------------- dataset


def test_dataset_validation_and_immutability():
    with pytest.raises(DimensionError):
        Dataset(y=[[1.0], [2.0]], u=[[0.0]], q=[1, 1])
    with pytest.raises(DimensionError):
        Dataset(y=[[1.0]], u=[[0.0]], q=[0])
    data = Dataset(y=[[1.0], [2.0]], u=[[0.0], [0.0]], q=[1, 2])
    with pytest.raises(ValueError):
        data.y[0, 0] = 5.0


@pytest.mark.parametrize("series, row", [("y", 2), ("u", 0), ("y_clean", 1)])
def test_dataset_rejects_non_finite_values(series, row):
    cols = {"y": [[1.0], [2.0], [3.0]], "u": [[4.0], [5.0], [6.0]],
            "y_clean": [[0.5], [1.5], [2.5]]}
    cols[series][row][0] = np.nan if series != "u" else -np.inf
    with pytest.raises(InsufficientDataError,
                       match=rf"^{series} holds a non-finite value at row {row} "):
        Dataset(q=[1, 2, 1], t0=10, **cols)


def test_dataset_slice():
    data = Dataset(y=[[1.0], [2.0], [3.0]], u=[[4.0], [5.0], [6.0]],
                   q=[1, 2, 1], y_clean=[[0.5], [1.5], [2.5]])
    part = data.slice(1, 3)
    assert len(part) == 2
    assert part.t0 == 1
    assert part.y[0, 0] == 2.0
    assert part.y_clean[1, 0] == 2.5


def test_csv_round_trip(tmp_path, two_mode):
    data = simulate(two_mode.model, SimConfig(seed=8, length=64, burn_in=50))
    path = tmp_path / "data.csv"
    clean = tmp_path / "data_clean.csv"
    data.to_csv(path)
    data.clean_to_csv(clean)
    back = Dataset.from_csv(path, clean_path=clean)
    # repr() serialization preserves doubles exactly
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.u, data.u)
    assert np.array_equal(back.q, data.q)
    assert np.array_equal(back.y_clean, data.y_clean)
    assert np.array_equal(load_series_csv(clean), data.y_clean)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,mode,u_1,y_1\n0,1,0.0,0.0\n")
    with pytest.raises(DimensionError):
        Dataset.from_csv(path)
