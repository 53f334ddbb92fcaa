import json
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    Dataset,
    DimensionError,
    InnovationModel,
    InsufficientDataError,
    InvalidProbabilityError,
    ModelInvalidError,
    SimConfig,
    SwitchedModel,
    load_series_csv,
    predict,
    sample_switching,
    simulate,
    stability_margin,
)
from slsid.simulate import (
    CSV_BLOCK_ROWS,
    _chunk_length,
    _dataset_dtype,
    _draw_input,
    _parse_rows,
    _read_csv,
    affine_scan,
    write_csv,
)
from slsid.cli import main

from oracles import repr_write_csv, row_major_scan, searchsorted_switching


# ---------------------------------------------------------------- switching


def test_sample_switching_range_and_determinism():
    rng = np.random.Generator(np.random.Philox(42))
    q = sample_switching((0.5, 0.5), 1000, rng)
    assert q.min() >= 1 and q.max() <= 2
    rng2 = np.random.Generator(np.random.Philox(42))
    assert np.array_equal(q, sample_switching((0.5, 0.5), 1000, rng2))
    assert q.dtype == np.int8
    assert sample_switching(np.full(200, 0.005), 10, rng).dtype == np.int16


@pytest.mark.parametrize("T", [0, 1, 1000])
@pytest.mark.parametrize("D", [1, 2, 3, 127, 128, 200])
def test_sample_switching_maps_draws_to_modes_like_a_binary_search(D, T):
    p = np.random.default_rng(D).dirichlet(np.ones(D))
    got = sample_switching(p, T, np.random.Generator(np.random.Philox(T)))
    want = searchsorted_switching(p, T, np.random.Generator(np.random.Philox(T)))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sample_switching_puts_a_draw_on_an_edge_in_the_upper_mode():
    p = np.array([0.25, 0.5, 0.25])
    edges = np.cumsum(p)
    draws = np.array([0.0, np.nextafter(edges[0], 0), edges[0], edges[1],
                      np.nextafter(edges[1], 1), np.nextafter(1.0, 0)])
    rng = mock.Mock(random=lambda T: draws[:T])
    want = searchsorted_switching(p, draws.size, rng)
    assert want.tolist() == [1, 1, 2, 3, 3, 3]
    assert sample_switching(p, draws.size, rng).tobytes() == want.tobytes()


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


def test_simulate_zero_state_start_without_burn_in(scalar):
    data = simulate(scalar.model, SimConfig(seed=3, length=50, burn_in=0))
    # x(0) = 0, so the noise-free output at t = 0 is D u(0)
    assert data.y_clean[0, 0] == pytest.approx(scalar.d * data.u[0, 0])


def test_simulate_clean_channel_tracks_y_when_noise_vanishes(scalar):
    tiny = InnovationModel.from_parts(
        (np.array([[scalar.a]]),), (np.array([[scalar.b]]),),
        (np.array([[scalar.k]]),), np.array([[scalar.c]]),
        np.array([[scalar.d]]), (1.0,), np.array([[scalar.q_u]]),
        (np.array([[1e-14]]),))
    data = simulate(tiny, SimConfig(seed=4, length=400))
    assert np.max(np.abs(data.y - data.y_clean)) < 1e-5


def _two_input_model(q_u):
    return InnovationModel.from_parts(
        (np.array([[0.5]]),), (np.array([[1.0, 0.5]]),), (np.array([[0.3]]),),
        np.array([[1.0]]), np.array([[0.0, 0.0]]), (1.0,), q_u, (np.array([[1.0]]),))


def test_simulate_uniform_input_bounds_and_qu_consistency(two_mode, tmp_path):
    # Q_u = I/3 draws u = 2 r - 1 from the stream's next uniforms, the bits
    # that every simulation of the reference system is set up from
    cfg = SimConfig(seed=5, length=2000)
    data = simulate(two_mode.model, cfg)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    total = cfg.burn_in + cfg.length
    sample_switching(two_mode.p, total, rng)
    r = rng.random((total, 1))
    assert data.u.tobytes() == (2.0 * r - 1.0)[cfg.burn_in:].tobytes()
    # each channel's bounds follow its own second moment
    u = simulate(_two_input_model(np.diag([1.0 / 3.0, 4.0 / 3.0])), cfg).u
    assert np.all(np.abs(u) <= [1.0, 2.0]) and np.abs(u[:, 1]).max() > 1.9
    # independent channels cannot have correlated second moments
    coupled = _two_input_model(np.array([[1.0 / 3.0, 0.1], [0.1, 4.0 / 3.0]]))
    with pytest.raises(ModelInvalidError, match="diagonal Q_u"):
        simulate(coupled, cfg)
    assert len(simulate(coupled, SimConfig(seed=5, length=100, input_dist="gaussian"))) == 100
    (tmp_path / "model.json").write_text(json.dumps(coupled.to_dict()))
    (tmp_path / "sim.json").write_text(
        json.dumps({"model": "model.json", "sim": {"seed": 5, "length": 100}}))
    assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "out")]) == 2


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


# ---------------------------------------------------------------- chunked scan


def _loop_simulate(model, cfg):
    """Reference simulator: the same draws, then the state recursion one
    sample at a time."""
    model.validate()
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    total = cfg.burn_in + cfg.length
    q = sample_switching(model.p, total, rng)
    u = _draw_input(model, cfg, total, rng)
    chol = [np.linalg.cholesky(model.Q_v[s] / model.p[s]) for s in range(model.n_modes)]
    g = rng.standard_normal((total, model.n_n))
    v = np.empty_like(g)
    for s in range(model.n_modes):
        mask = q == s + 1
        v[mask] = g[mask] @ chol[s].T
    A = [np.asarray(a) for a in model.A]
    B = [np.asarray(b) for b in model.B]
    K = [np.asarray(k) for k in model.K]
    C, Dmat, F = model.C, model.Dmat, model.F
    x = np.zeros(model.n_x)
    y = np.empty((total, model.n_y))
    y_clean = np.empty((total, model.n_y))
    for t in range(total):
        s = q[t] - 1
        noise_free = C @ x + Dmat @ u[t]
        y_clean[t] = noise_free
        y[t] = noise_free + F @ v[t]
        x = A[s] @ x + B[s] @ u[t] + K[s] @ v[t]
    lo = cfg.burn_in
    return Dataset(y=y[lo:], u=u[lo:], q=q[lo:], t0=0, y_clean=y_clean[lo:])


def _loop_predict(m, data):
    """Reference one-step predictor, one sample at a time."""
    closed = [np.asarray(m.A[s] - m.K[s] @ m.C) for s in range(m.n_modes)]
    B = [np.asarray(b) for b in m.B]
    K = [np.asarray(k) for k in m.K]
    C, Dm = m.C, m.Dmat
    yhat = np.empty((len(data), m.n_y))
    x = np.zeros(m.n_x)
    for t in range(len(data)):
        s = data.q[t] - 1
        feed = Dm @ data.u[t]
        yhat[t] = C @ x + feed
        x = closed[s] @ x + B[s] @ data.u[t] + K[s] @ (data.y[t] - feed)
    return yhat


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want))


def _scaled(family, p, rho):
    return [np.sqrt(rho / stability_margin(family, p)) * a for a in family]


def _chunk_edges(L):
    """T = m - 1, m, m + 1 for the smallest multiple m of the chunk length L
    whose neighbours are cut into chunks of L too: the last chunk is one step
    short, full, or a single step."""
    m = next(m for m in range(L, 64 * L * L, L)
             if _chunk_length(m - 1) == _chunk_length(m + 1) == L)
    return [m - 1, m, m + 1]


# T = 1, 2, then the chunk edges of the smallest chunk length (16) and of the
# next two, then any length
_SCAN_LENGTHS = (st.sampled_from([1, 2] + [T for L in (16, 17, 18) for T in _chunk_edges(L)])
                 | st.integers(3, 3000))


def _random_systems(rng, D, n_x, n_u, n_y, rho):
    """A generator and an innovation model with the same B, K, C and D, the
    generator's A and the predictor's A - K C both scaled to rho."""
    p = rng.dirichlet(np.ones(D))
    B = [rng.normal(size=(n_x, n_u)) for _ in range(D)]
    K = [rng.normal(size=(n_x, n_y)) for _ in range(D)]
    C = rng.normal(size=(n_y, n_x))
    Dm = rng.normal(size=(n_y, n_u))
    G = [rng.normal(size=(n_y, n_y)) for _ in range(D)]
    Q_v = [p[s] * (G[s] @ G[s].T + 0.1 * np.eye(n_y)) for s in range(D)]
    Q_u = np.eye(n_u) / 3.0
    A = _scaled([rng.normal(size=(n_x, n_x)) for _ in range(D)], p, rho)
    gen = SwitchedModel(A=A, B=B, K=K, C=C, Dmat=Dm, F=rng.normal(size=(n_y, n_y)),
                        p=p, Q_u=Q_u, Q_v=Q_v)
    closed = _scaled([rng.normal(size=(n_x, n_x)) for _ in range(D)], p, rho)
    m = InnovationModel.from_parts([closed[s] + K[s] @ C for s in range(D)], B, K,
                                   C, Dm, p, Q_u, Q_v)
    return gen, m


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 3), n_x=st.integers(1, 4),
       n_u=st.integers(1, 2), n_y=st.integers(1, 2), rho=st.floats(0.05, 0.95),
       T=_SCAN_LENGTHS)
def test_scan_matches_the_loop(seed, D, n_x, n_u, n_y, rho, T):
    gen, m = _random_systems(np.random.default_rng(seed), D, n_x, n_u, n_y, rho)
    cfg = SimConfig(seed=seed, length=T, burn_in=0)
    data, want = simulate(gen, cfg), _loop_simulate(gen, cfg)
    assert np.array_equal(data.q, want.q) and np.array_equal(data.u, want.u)
    _assert_close(data.y_clean, want.y_clean)
    _assert_close(data.y, want.y)
    _assert_close(predict(m, data), _loop_predict(m, data))


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 4), n=st.integers(1, 5),
       n_out=st.integers(1, 3), widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       T=_SCAN_LENGTHS)
def test_scan_keeps_the_bits_of_the_row_major_scan(seed, D, n, n_out, widths, T):
    # D = n = 1 makes pass 1's products matrix-vector, and a last chunk of
    # one step makes pass 3's; T = 1 is one chunk and no pass 1
    rng = np.random.default_rng(seed)
    q = sample_switching(rng.dirichlet(np.ones(D)), T, rng)
    M = rng.normal(size=(D, n, n)) * 0.3 / np.sqrt(n)
    inputs = [(rng.normal(size=(T, m)), rng.normal(size=(D, n, m)),
               rng.normal(size=(n_out, m)) if rng.random() < 0.6 else None) for m in widths]
    C = rng.normal(size=(n_out, n))
    assert affine_scan(q, M, C, inputs).tobytes() == row_major_scan(q, M, C, inputs).tobytes()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_stays_at_the_loop_level(two_mode):
    cfg = SimConfig(seed=1, length=100_000)
    simulate(two_mode.model, SimConfig(seed=1, length=100))  # lazy imports
    peak = _peak_bytes(simulate, two_mode.model, cfg)
    assert peak <= 1.1 * _peak_bytes(_loop_simulate, two_mode.model, cfg)
    data = simulate(two_mode.model, cfg)
    # the (T, n_y) predictions are 0.8 MB; the chunk states add O(sqrt(T))
    assert _peak_bytes(predict, two_mode.model, data) < 2e6


def test_scan_memory_stays_at_the_loop_level_for_a_mimo_system():
    gen, m = _random_systems(np.random.default_rng(3), D=3, n_x=4, n_u=2, n_y=2, rho=0.8)
    cfg = SimConfig(seed=1, length=100_000)
    simulate(gen, SimConfig(seed=1, length=100))  # lazy imports
    assert _peak_bytes(simulate, gen, cfg) <= 1.1 * _peak_bytes(_loop_simulate, gen, cfg)
    data = simulate(gen, cfg)
    # the (T, 2) predictions are 1.6 MB and the stacked map's chunk buffers
    # O(sqrt(T)); one (T, n_x) state or (T, n_u + n_y) input stack adds 3.2 MB
    assert _peak_bytes(predict, m, data) < 3.2e6


def test_simulate_retains_three_float_series_and_one_byte_per_mode(two_mode):
    cfg = SimConfig(seed=1, length=100_000)
    m = two_mode.model
    simulate(m, SimConfig(seed=1, length=100))  # lazy imports
    tracemalloc.start()
    try:
        data = simulate(m, cfg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # y, u and y_clean are views of float64 arrays and q of an int8 one, all
    # of burn_in + length rows; an int64 q would add 0.8 MB
    rows = cfg.burn_in + cfg.length
    assert data.q.dtype == np.int8
    assert retained <= rows * (8 * (2 * m.n_y + m.n_u) + 1) + 50_000


# ---------------------------------------------------------------- config


def test_sim_config_validation():
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=0)
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=10, burn_in=-1)
    with pytest.raises(DimensionError):
        SimConfig(seed=0, length=10, input_dist="poisson")


@pytest.mark.parametrize("field, value, text", [
    ("length", 2000.5, "length must be an integer, got 2000.5"),
    ("length", "2000", "length must be an integer, got '2000'"),
    ("length", float("nan"), "length must be an integer, got nan"),
    ("burn_in", 99.9, "burn_in must be an integer, got 99.9"),
    ("burn_in", -1.0, "burn_in must be >= 0, got -1.0"),
    ("burn_in", None, "burn_in must be an integer, got None"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", 0.5, "seed must be an integer, got 0.5"),
    ("seed", True, "seed must be an integer, got True"),
])
def test_sim_config_names_a_malformed_field(field, value, text):
    kwargs = {"seed": 0, "length": 10, field: value}
    with pytest.raises(DimensionError, match=f"^{re.escape(text)}$"):
        SimConfig(**kwargs)


def test_sim_config_takes_integral_floats_as_ints(two_mode):
    cfg = SimConfig(seed=4.0, length=1e3, burn_in=np.float64(100.0))
    assert cfg == SimConfig(seed=4, length=1000, burn_in=100)
    assert all(type(getattr(cfg, name)) is int for name in ("seed", "length", "burn_in"))
    again = simulate(two_mode.model, SimConfig(seed=4, length=1000, burn_in=100))
    assert np.array_equal(simulate(two_mode.model, cfg).y, again.y)


def test_sim_config_json_round_trip():
    cfg = SimConfig(seed=7, length=123, burn_in=10, input_dist="gaussian")
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


def test_dataset_rejects_non_integral_modes():
    cols = dict(y=np.zeros((4, 1)), u=np.zeros((4, 1)))
    with pytest.raises(DimensionError,
                       match=r"^mode series holds the non-integral value 1\.7 at row 0 \(t = 0\)$"):
        Dataset(q=[1.7, 2.2, 1.0, 2.9], **cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match=r"value nan at row 2 \(t = 12\)$"):
            Dataset(q=[1.0, 2.0, np.nan, 1.0], t0=10, **cols)
    # integral floats are modes
    data = Dataset(q=[1.0, 2.0, 2.0, 1.0], **cols)
    assert data.q.dtype.kind == "i" and data.q.tolist() == [1, 2, 2, 1]


@pytest.mark.parametrize("mode, dtype", [(127, np.int8), (128, np.int16), (40000, np.int32)])
@pytest.mark.parametrize("given", ["int64", "unsigned", "float"])
def test_dataset_holds_modes_in_the_smallest_signed_type(mode, dtype, given):
    q = {"int64": np.array([1, mode]),
         "unsigned": np.array([1, mode], dtype=np.min_scalar_type(mode)),  # uint8 up to 255
         "float": np.array([1.0, mode])}[given]
    data = Dataset(y=np.zeros((2, 1)), u=np.zeros((2, 1)), q=q)
    assert data.q.dtype == dtype and data.q.dtype.kind == "i"
    assert data.q.tolist() == [1, mode]


def test_dataset_keeps_a_compact_mode_series_and_rejects_what_int64_cannot_hold():
    q = np.array([1, 2, 2], dtype=np.int8)
    assert Dataset(y=np.zeros((3, 1)), u=np.zeros((3, 1)), q=q).q is q
    # the checks read the input's own values, so no mode wraps into range
    for bad in (np.array([1, 2**64 - 1], dtype=np.uint64), np.array([1.0, 1e30])):
        text = f"mode series holds the mode {bad[1]}, beyond int64"
        with pytest.raises(DimensionError, match=f"^{re.escape(text)}$"):
            Dataset(y=np.zeros((2, 1)), u=np.zeros((2, 1)), q=bad)


def test_every_dataset_of_the_reference_system_holds_int8_modes(tmp_path, two_mode):
    data = simulate(two_mode.model, SimConfig(seed=0, length=500))
    data.to_csv(tmp_path / "data.csv")
    for d in (data, data.slice(10, 20), Dataset.from_csv(tmp_path / "data.csv"),
              Dataset(y=data.y, u=data.u, q=data.q.tolist())):
        assert d.q.dtype == np.int8


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


def _loop_to_csv(data, path):
    """Reference per-row dataset writer."""
    header = ["t", "q"]
    header += [f"u_{i + 1}" for i in range(data.n_u)]
    header += [f"y_{i + 1}" for i in range(data.n_y)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(len(data)):
            row = [str(data.t0 + t), str(int(data.q[t]))]
            row += [repr(float(v)) for v in data.u[t]]
            row += [repr(float(v)) for v in data.y[t]]
            fh.write(",".join(row) + "\n")


def _loop_clean_to_csv(data, path):
    """Reference per-row clean-channel writer."""
    header = ["t"] + [f"y_{i + 1}" for i in range(data.n_y)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(len(data)):
            row = [str(data.t0 + t)] + [repr(float(v)) for v in data.y_clean[t]]
            fh.write(",".join(row) + "\n")


def _edge_dataset(n=10):
    """n rows cycling through float edge cases (signed zero, subnormals,
    extremes, inexact decimals, and the writer's repr rows: a value in
    [1e-5, 1e-4) and 1e16) in every float column."""
    edge = np.resize([-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0,
                      -5e-324, -1.7976931348623157e308, 0.1, 1e22, 3.5e-05, 1e16], n)
    u = np.column_stack([edge, edge[::-1]])
    return Dataset(y=edge[:, None], u=u, q=np.resize([1, 2, 3], n), t0=-3,
                   y_clean=-edge[:, None])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_B = CSV_BLOCK_ROWS


@pytest.mark.parametrize("case", [pytest.param(10, id="edge"), 0, 1, _B - 1, _B, _B + 1,
                                  2 * _B + 3, "simulated"])
def test_csv_writer_bytes_and_exact_read_back(tmp_path, two_mode, case):
    # the writer formats CSV_BLOCK_ROWS rows at a time: lengths on both
    # sides of one and two blocks give the per-row writer's bytes
    if case == "simulated":
        data = simulate(two_mode.model, SimConfig(seed=11, length=50_000))
    else:
        data = _edge_dataset(case)
    data.to_csv(tmp_path / "data.csv")
    data.clean_to_csv(tmp_path / "data_clean.csv")
    _loop_to_csv(data, tmp_path / "ref.csv")
    _loop_clean_to_csv(data, tmp_path / "ref_clean.csv")
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert ((tmp_path / "data_clean.csv").read_bytes()
            == (tmp_path / "ref_clean.csv").read_bytes())
    if not len(data):
        with pytest.raises(DimensionError, match="has no rows"):
            Dataset.from_csv(tmp_path / "data.csv")
        return
    back = Dataset.from_csv(tmp_path / "data.csv", clean_path=tmp_path / "data_clean.csv")
    assert back.t0 == data.t0
    assert np.array_equal(back.q, data.q)
    for name in ("y", "u", "y_clean"):
        assert _same_bits(getattr(back, name), getattr(data, name))
    assert _same_bits(load_series_csv(tmp_path / "data_clean.csv"), data.y_clean)


# the writer's layout boundaries (1e-4, 1e16 and the largest double below
# it), the values on both sides of them, and what repr prints but orjson
# does not: signed zero, subnormals, nan and +-inf (predictions.csv's cells)
_FLOAT_EDGES = np.array([1e-4, np.nextafter(1e-4, 0), 1e16, 9999999999999998.0, 1.5e-5,
                         -3.1e-5, 1e-7, 2.5e17, 1e22, 1.7976931348623157e308, 0.0, -0.0,
                         5e-324, 2.2250738585072009e-308, np.nan, np.inf, -np.inf])


def _float_bits(rng, n, exponents=(0, 2048)):
    """n doubles of uniform random sign and mantissa bits, biased exponent in range."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(*exponents, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


_COLUMNS = {
    "bits": _float_bits,
    # 2^-14 <= |x| < 2^54: the band orjson formats as repr does, [1e-4, 1e16),
    # and a little on each side
    "bits_in_band": lambda rng, n: _float_bits(rng, n, (1023 - 14, 1023 + 54)),
    "below_1e-4": lambda rng, n: rng.uniform(1e-5, 1e-4, n) * rng.choice([-1, 1], n),
    "from_1e16": lambda rng, n: 10.0 ** rng.uniform(16, 308, n) * rng.choice([-1, 1], n),
    "edges": lambda rng, n: rng.choice(_FLOAT_EDGES, n),
    "normal": lambda rng, n: rng.normal(size=n),
    "int8": lambda rng, n: rng.integers(-128, 128, n).astype(np.int8),
    "int16": lambda rng, n: rng.integers(-2**15, 2**15, n).astype(np.int16),
    "int64": lambda rng, n: rng.integers(-2**63, 2**63 - 1, n, endpoint=True),
}


@settings(deadline=None, max_examples=150)
@given(n=st.sampled_from([0, 1, _B - 1, _B, _B + 1]), seed=st.integers(0, 2**32 - 1),
       t0=st.integers(-2**40, 2**40),
       kinds=st.lists(st.sampled_from([*_COLUMNS, "transposed"]), min_size=1, max_size=6))
def test_csv_writer_gives_the_repr_writers_bytes(tmp_path_factory, n, seed, t0, kinds):
    # orjson's digits are repr's, its layout only in the band; every other
    # row is formatted by repr, so the bytes are the repr writer's, whose
    # t column is given whole
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "transposed":  # two strided float columns of one array
            columns += [*np.column_stack([_float_bits(rng, n), rng.normal(size=n)]).T]
        else:
            columns.append(_COLUMNS[kind](rng, n))
    header = ["t"] + [f"c_{k}" for k in range(len(columns))]
    path = tmp_path_factory.mktemp("csv")
    write_csv(path / "got.csv", header, columns, t0=t0)
    repr_write_csv(path / "want.csv", header, [t0 + np.arange(n), *columns])
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


def _repr_rows_at_block_edges(rng):
    # a different out-of-band cell in each of three float columns, at the
    # first and last row of a block and in a one-row last block
    n = 2 * _B + 1
    columns = [rng.normal(size=n) for _ in range(3)]
    for row, value in zip([0, _B - 1, _B, 2 * _B], [1.5e-5, 1e16, np.nan, -np.inf]):
        columns[row % 3][row] = value
    return columns


def _repr_block(rng):
    # every row of the first block is out of band, one row of the second
    column = rng.uniform(1e-5, 1e-4, _B + 7)
    column[_B:] = rng.normal(size=7)
    column[_B + 3] = 2.5e17
    return [rng.normal(size=_B + 7), column]


def _ints_between_floats(rng):
    n = _B + 2
    floats = [rng.normal(size=n) for _ in range(3)]
    floats[1][[0, 5, _B - 1, _B + 1]] = [3.5e-5, -1e22, np.nan, 0.0]
    floats[2] = floats[2].astype(np.float32)  # its 1e-4 is below 1e-4 as a double
    floats[2][[3, _B + 1]] = [1e-4, -1e-7]
    return [floats[0], rng.integers(-128, 128, n).astype(np.int8), floats[1],
            rng.integers(-2**63, 2**63 - 1, n, endpoint=True), floats[2]]


@pytest.mark.parametrize("make", [_repr_rows_at_block_edges, _repr_block, _ints_between_floats],
                         ids=lambda make: make.__name__[1:])
def test_csv_writer_patches_its_repr_rows_in_place(tmp_path, make):
    # each out-of-band row is rewritten by repr on its own line of its block
    columns = make(np.random.default_rng(0))
    n = len(columns[0])
    header = ["t"] + [f"c_{k}" for k in range(len(columns))]
    write_csv(tmp_path / "got.csv", header, columns, t0=-_B)
    repr_write_csv(tmp_path / "want.csv", header, [np.arange(-_B, n - _B), *columns])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_round_trip_memory_stays_at_the_block_level(tmp_path, two_mode):
    data = simulate(two_mode.model, SimConfig(seed=11, length=50_000))
    path, clean = tmp_path / "data.csv", tmp_path / "data_clean.csv"
    data.to_csv(path)
    data.clean_to_csv(clean)
    Dataset.from_csv(path, clean_path=clean)  # lazy imports
    # measured 0.37 MB to write (a block's arrays and text) and 2.80 MB to
    # read (the parsed rows beside the dataset's arrays); holding the whole
    # text took 11.5 and 8.1 MB
    assert _peak_bytes(data.to_csv, path) < 1.5e6
    assert _peak_bytes(Dataset.from_csv, path, clean) < 4e6


def test_csv_writer_memory_does_not_grow_with_the_rows(tmp_path):
    # the writer makes t block by block, so no column of N rows is built
    rng = np.random.default_rng(0)

    def peak(n):
        data = Dataset(y=rng.normal(size=(n, 1)), u=rng.normal(size=(n, 1)),
                       q=rng.integers(1, 3, n), t0=-5, y_clean=rng.normal(size=(n, 1)))
        data.to_csv(tmp_path / "data.csv")  # lazy imports
        return max(_peak_bytes(data.to_csv, tmp_path / "data.csv"),
                   _peak_bytes(data.clean_to_csv, tmp_path / "data_clean.csv"))

    assert abs(peak(200_000) - peak(50_000)) < 0.1e6


_BLANK = st.sampled_from(["", " ", "\t", " \t "])


def _outcome(read):
    try:
        rows = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return rows.dtype, rows.tobytes()


@settings(deadline=None, max_examples=60)
@given(n_rows=st.sampled_from([1, 2, 9, _B - 1, _B, _B + 1]), seed=st.integers(0, 2**32 - 1),
       blanks=st.lists(st.tuples(st.one_of(st.just(_B), st.integers(0, _B + 2)), _BLANK),
                       max_size=4),
       bad=st.sampled_from([None, "ragged", "abc", "1.5"]),
       eol=st.sampled_from(["\n", "\r\n"]), final_eol=st.booleans())
def test_csv_reader_paths_agree(tmp_path_factory, n_rows, seed, blanks, bad, eol, final_eol):
    # the streaming np.loadtxt read and the line-list fallback give the same
    # rows, or the same error; without a whitespace-only line or a bad cell
    # the fallback never runs
    rng = np.random.default_rng(seed)
    q = rng.integers(1, 3, n_rows)
    u, y = (rng.normal(size=(2, n_rows)) * 10.0 ** rng.integers(-300, 300, (2, n_rows))).tolist()
    lines = [f"{k - 7},{q[k]},{u[k]!r},{y[k]!r}" for k in range(n_rows)]
    if bad is not None:
        k = min(_B, n_rows - 1)
        lines[k] = {"ragged": f"{k - 7},{q[k]},{u[k]!r}",
                    "abc": f"{k - 7},{q[k]},abc,{y[k]!r}",
                    "1.5": f"{k - 7},1.5,{u[k]!r},{y[k]!r}"}[bad]
    for at, text in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), text)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(eol.join(["t,q,u_1,y_1", *lines]).encode() + (eol.encode() if final_eol
                                                                    else b""))

    def fallback():
        with open(path) as fh:
            fh.readline()
            lines = list(filter(str.strip, fh))
        return _parse_rows(lines, _dataset_dtype(["t", "q", "u_1", "y_1"]))

    streamed = bad is None and not any(text for _, text in blanks)
    with mock.patch.object(sys.modules["slsid.simulate"], "_parse_rows",
                           wraps=_parse_rows) as slow:
        got = _outcome(lambda: _read_csv(path, _dataset_dtype)[1])
    assert slow.called != streamed
    assert got == _outcome(fallback)


def test_csv_reader_hands_loadtxt_the_path(tmp_path):
    # given a path, np.loadtxt's C reader pulls the text in chunks; given an
    # open file, it walks the file one Python line at a time
    path = tmp_path / "data.csv"
    path.write_text("t,q,u_1,y_1\n5,1,0.5,1.5\n6,2,-0.5,2.5\n")
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(sys.modules["slsid.simulate"], "_parse_rows") as slow:
        _, rows = _read_csv(path, _dataset_dtype)
    assert [call.args[0] for call in loadtxt.call_args_list] == [path]
    assert not slow.called
    assert rows["t"].tolist() == [5, 6] and rows["v"].tolist() == [[0.5, 1.5], [-0.5, 2.5]]


def test_csv_reader_skips_whitespace_only_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,q,u_1,y_1\n   \n5,1,0.5,1.5\n\t\n6,2,-0.5,2.5\n \n")
    data = Dataset.from_csv(path)
    assert data.t0 == 5
    assert np.array_equal(data.q, [1, 2])
    assert np.array_equal(data.u[:, 0], [0.5, -0.5])
    assert np.array_equal(data.y[:, 0], [1.5, 2.5])
    clean = tmp_path / "clean.csv"
    clean.write_text("t,y_1\n  \n5,1.25\n\n6,2.25\n")
    assert np.array_equal(load_series_csv(clean), [[1.25], [2.25]])


def test_csv_reader_header_only(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,q,u_1,y_1,y_2\n  \n")
    clean = tmp_path / "clean.csv"
    clean.write_text("t,y_1,y_2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="has no rows"):
            Dataset.from_csv(path)
        empty = load_series_csv(clean)
    assert empty.shape == (0, 2)


@pytest.mark.parametrize("body, match", [
    ("0,1,0.5,1.5\n1,1,0.5\n", "columns"),
    ("0,1,0.5,1.5\n1,1,0.5,1.5,7\n", "columns"),
    ("0,1,0.5,1.5\n1,1,abc,1.5\n", "abc"),
    ("0,1,0.5,1.5\n1,1.5,0.5,1.5\n", "1.5"),
    ("0.5,1,0.5,1.5\n", "0.5"),
    ("0,1,0.5,#1.5\n", "#1.5"),
])
def test_csv_reader_rejects_malformed_rows(tmp_path, body, match):
    path = tmp_path / "data.csv"
    path.write_text("t,q,u_1,y_1\n" + body)
    with pytest.raises(ValueError, match=match):
        Dataset.from_csv(path)


@pytest.mark.parametrize("bad, reason", [
    ("3,1,0.5", "requires 4 columns but 3 were found at row 3"),
    ("3,1,0.5,1.5,7", "requires 4 columns but 5 were found at row 3"),
    ("3,1,abc,1.5", "'abc' to float64 at row 3, column 3"),
    ("3,1.5,0.5,1.5", "'1.5' to int64 at row 3, column 2"),
])
@pytest.mark.parametrize("n_rows", [4, 9, 4000])
def test_csv_reader_names_the_data_row(tmp_path, bad, reason, n_rows):
    # the row is 0-based over the data lines, blank lines not counted, and
    # only the first bad row is named
    rows = [f"{t},1,0.5,1.5" for t in range(n_rows)]
    rows[3] = rows[n_rows - 1] = bad
    rows.insert(1, "   ")
    path = tmp_path / "data.csv"
    path.write_text("t,q,u_1,y_1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as err:
        Dataset.from_csv(path)
    assert str(err.value).endswith(reason)


def test_series_reader_rejects_malformed_rows(tmp_path):
    path = tmp_path / "clean.csv"
    path.write_text("t,y_1\n0,1.5\n1,2.5,3.5\n")
    with pytest.raises(ValueError):
        load_series_csv(path)
    path.write_text("t,y_1\n0,1.5\n1.5,2.5\n")
    with pytest.raises(ValueError):
        load_series_csv(path)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,mode,u_1,y_1\n0,1,0.0,0.0\n")
    with pytest.raises(DimensionError):
        Dataset.from_csv(path)


@pytest.mark.parametrize("ts, text", [
    ((5, 6, 8, 9), "t goes from 6 to 8 at row 2; t must step by one"),   # a gap
    ((5, 6, 6, 7), "t goes from 6 to 6 at row 2; t must step by one"),   # a repeat
    ((5, 6, 7, 5), "t goes from 7 to 5 at row 3; t must step by one"),
])
def test_csv_reader_rejects_t_that_does_not_step_by_one(tmp_path, ts, text):
    # a lost or doubled row would shift every lagged product after it; the
    # row is 0-based over the data lines, blank lines not counted
    path = tmp_path / "data.csv"
    path.write_text("t,q,u_1,y_1\n\n" + "".join(f"{t},1,0.5,1.5\n" for t in ts))
    with pytest.raises(DimensionError, match=re.escape(text)):
        Dataset.from_csv(path)
    path.write_text("t,y_1\n  \n" + "".join(f"{t},1.5\n" for t in ts))
    with pytest.raises(DimensionError, match=re.escape(text)):
        load_series_csv(path)


@pytest.mark.parametrize("kind, header", [
    *[("dataset", h) for h in ["t,q,y_1,u_1", "t,q,u_2,y_1", "t,q,u_1", "q,t,u_1,y_1",
                               "t,q,u_1,y_1,u_2", "t,y_1"]],
    *[("series", h) for h in ["t,y_2", "t", "t,q,y_1", "y_1,t", "t,y_1,u_1"]],
])
def test_csv_reader_takes_columns_only_in_their_order(tmp_path, kind, header):
    # cells are read by position, so a header in another order would swap columns
    path = tmp_path / "data.csv"
    cells = ["0", "1", "5.0", "6.0", "7.0"][:header.count(",") + 1]
    path.write_text(header + "\n" + ",".join(cells) + "\n")
    read = {"dataset": Dataset.from_csv, "series": load_series_csv}[kind]
    with pytest.raises(DimensionError, match=re.escape(f"unexpected header {header}; want")):
        read(path)


def test_csv_reader_rejects_a_shifted_clean_channel(tmp_path):
    data = _edge_dataset()
    data.to_csv(tmp_path / "data.csv")
    Dataset(y=data.y, u=data.u, q=data.q, t0=data.t0 + 1,
            y_clean=data.y_clean).clean_to_csv(tmp_path / "shifted.csv")
    with pytest.raises(DimensionError, match="starts at t = -2, the dataset at t = -3"):
        Dataset.from_csv(tmp_path / "data.csv", clean_path=tmp_path / "shifted.csv")
