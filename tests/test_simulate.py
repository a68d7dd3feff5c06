import hashlib
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ahrskit
from ahrskit.benchmark import benchmark_records
from ahrskit.geometry import (EulerAngles, _dcm_entries, euler_to_quat, quat_multiply,
                              Quaternion, quat_to_dcm, quat_to_euler, rotvec_to_quat)
from ahrskit.pipeline import AttitudeEstimate, Estimates
from ahrskit.simulate import (AccelModel, GyroModel, MagModel, Segment,
                              SensorLog, SensorRecord, TrajectorySpec, simulate,
                              truth_array)

from test_golden import golden_records

QUIET = (GyroModel(), AccelModel(), MagModel())


def markov_records():
    """60 s with Markov drift from a non-zero initial attitude."""
    traj = TrajectorySpec((Segment(20.0, (0.2, -0.1, 0.05)),
                           Segment(40.0, (-0.05, 0.1, -0.3), (0.5, -1.0, 0.2))),
                          initial_attitude=EulerAngles(0.4, -0.3, 2.0))
    gm = GyroModel(bias=(0.01, -0.02, 0.005), tau=0.5, sigma_markov=1e-3,
                   sigma_white=1e-3)
    return simulate(traj, gm, AccelModel(sigma_white=0.01), MagModel(sigma_white=0.002),
                    rate=100.0, seed=3)


def field_records():
    """Several segments under a non-default gravity and field direction."""
    traj = TrajectorySpec((Segment(1.0, (0.0, 0.0, 0.0)),
                           Segment(2.0, (0.3, 0.0, 0.0), (1.0, 0.0, 0.0)),
                           Segment(1.5, (0.0, -0.4, 0.6)),
                           Segment(0.5, (1.0, 1.0, -1.0), (0.0, 2.0, -3.0))),
                          initial_attitude=EulerAngles(-0.2, 0.1, 5.0))
    return simulate(traj, GyroModel(sigma_white=0.002), AccelModel(0.02, gravity=9.78),
                    MagModel((0.3, -0.2, 0.9), sigma_white=0.003), rate=400.0, seed=8)


def records_digest(log):
    """sha256 of the float64 bytes of the t, gyro, accel, mag and truth columns."""
    h = hashlib.sha256()
    for column in (log.t, log.gyro, log.accel, log.mag, truth_array(log)):
        h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    return h.hexdigest()


# Digests of the simulator's output. `test_matches_per_sample_reference`
# holds that output bit for bit to the per-sample float arithmetic of
# `reference_simulate`, so they pin that arithmetic as well.
SIMULATED = {
    "golden": (golden_records,
               "7d62584fa714656c80f8abf30a0b2f251bf8fd0e1ebc9d7ae1c605415b23c291"),
    "markov": (markov_records,
               "a1b265e343b3c42147e5bd179e3390524fa7acfeb2eed03c91fe17d6c12ce589"),
    "field": (field_records,
              "26141c0c0bcf01b3624f6a36b4c06a284635fd11067e3cfbad94b15d1ebec25d"),
}


@pytest.mark.parametrize("name", sorted(SIMULATED))
def test_output_bit_identical(name):
    make, digest = SIMULATED[name]
    assert records_digest(make()) == digest


def reference_simulate(traj, gyro_model, accel_model, mag_model, rate, seed):
    """The simulator one sample at a time, in plain float arithmetic: one
    DCM per sample, each mag component its field-weighted sum of a DCM
    column, summed left to right, and no BLAS product."""
    dt = 1.0 / rate
    steps_per_seg = [round(seg.duration * rate) for seg in traj.segments]
    n_total = sum(steps_per_seg)
    rng = np.random.default_rng(seed)
    markov_w = rng.normal(0.0, gyro_model.sigma_markov * math.sqrt(dt), (n_total, 3))
    gyro_w = rng.normal(0.0, gyro_model.sigma_white * math.sqrt(rate), (n_total, 3))
    accel_w = rng.normal(0.0, accel_model.sigma_white * math.sqrt(rate), (n_total, 3))
    mag_w = rng.normal(0.0, mag_model.sigma_white * math.sqrt(rate), (n_total, 3))
    bias0 = np.asarray(gyro_model.bias, dtype=float)
    f0, f1, f2 = mag_model.field_ned
    markov_decay = 1.0 - dt / gyro_model.tau
    q = euler_to_quat(traj.initial_attitude)
    drift = np.zeros(3)
    records = []
    for seg, n_steps in zip(traj.segments, steps_per_seg):
        omega = np.asarray(seg.rate, dtype=float)
        lin_acc = np.asarray(seg.accel, dtype=float)
        step_quat = rotvec_to_quat(omega * dt)
        for _ in range(n_steps):
            q = quat_multiply(q, step_quat)
            cbn = quat_to_dcm(q)
            k = len(records)
            gyro = omega + bias0 + drift + gyro_w[k]
            drift = markov_decay * drift + markov_w[k]
            accel = -accel_model.gravity * cbn[2, :] + lin_acc + accel_w[k]
            mag = f0 * cbn[0] + f1 * cbn[1] + f2 * cbn[2] + mag_w[k]
            records.append(SensorRecord((k + 1) * dt, gyro, accel, mag, quat_to_euler(q)))
    return SensorLog.of(records)


small = st.floats(-3.0, 3.0)
triples = st.tuples(small, small, small)
segments = st.builds(Segment, st.floats(0.02, 0.3), triples,
                     st.one_of(st.just((0.0, 0.0, 0.0)), triples))
densities = st.one_of(st.just(0.0), st.floats(1e-6, 0.1))


@settings(deadline=None, max_examples=60)
@given(st.lists(segments, min_size=1, max_size=4), triples,
       st.builds(GyroModel, st.tuples(*[st.floats(-0.1, 0.1)] * 3), st.floats(1e-3, 100.0),
                 densities, densities),
       st.builds(AccelModel, densities, st.floats(1.0, 20.0)),
       st.builds(MagModel, triples.filter(lambda f: math.hypot(f[0], f[1]) > 0.1),
                 densities),
       st.floats(50.0, 500.0), st.integers(0, 2 ** 32))
def test_matches_per_sample_reference(segs, attitude, gm, am, mm, rate, seed):
    traj = TrajectorySpec(segs, EulerAngles(*attitude))
    out = simulate(traj, gm, am, mm, rate, seed)
    ref = reference_simulate(traj, gm, am, mm, rate, seed)
    assert records_digest(out) == records_digest(ref)
    assert all(type(r.t) is float and type(r.truth) is EulerAngles for r in out)


def test_one_dcm_call_per_simulate(monkeypatch):
    """The DCM, accel and mag synthesis runs over the whole log at once."""
    calls = []

    def counted(*q):
        calls.append(q)
        return _dcm_entries(*q)

    # the package exports the function `simulate` under its module's name
    monkeypatch.setattr(importlib.import_module("ahrskit.simulate"), "_dcm_entries", counted)
    assert len(golden_records()) > 1
    assert len(calls) <= 1


def test_peak_memory_is_bounded_by_the_table():
    """The log is written in place into its one table: no step holds a
    second copy of it or of its noise."""
    benchmark_records(seed=11)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        log = benchmark_records(seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * log.table.nbytes, peak / log.table.nbytes


def test_per_sample_values_keep_their_types():
    """The hot paths build their NamedTuples with tuple.__new__; the
    values must still be of the named types, not plain tuples."""
    assert type(rotvec_to_quat((0.1, 0.0, 0.0))) is Quaternion
    assert type(quat_to_euler(rotvec_to_quat((0.1, -0.2, 0.3)))) is EulerAngles
    assert type(quat_to_euler(euler_to_quat((0.0, math.pi / 2, 0.0)))) is EulerAngles
    estimate = Estimates(np.arange(22.0).reshape(2, 11))[1]
    assert type(estimate) is AttitudeEstimate
    assert type(estimate.euler) is EulerAngles and type(estimate.q) is Quaternion
    assert type(estimate.gyro_bias) is tuple and type(estimate.t) is float
    assert estimate == (11.0, (12.0, 13.0, 14.0), (15.0, 16.0, 17.0, 18.0),
                        (19.0, 20.0, 21.0))


def test_import_loads_no_scipy():
    """NumPy is the only dependency, and importing scipy.signal would add
    over a second to every process that imports ahrskit."""
    src = str(Path(ahrskit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, ahrskit\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_noiseless_static_level_output():
    traj = TrajectorySpec((Segment(1.0, (0.0, 0.0, 0.0)),))
    records = simulate(traj, *QUIET, rate=100.0, seed=0)
    assert len(records) == 100
    for rec in records:
        np.testing.assert_array_equal(rec.gyro, np.zeros(3))
        np.testing.assert_allclose(rec.accel, [0.0, 0.0, -9.81], atol=1e-12)
        np.testing.assert_allclose(rec.mag, MagModel().field_ned, atol=1e-12)
        np.testing.assert_allclose(rec.truth, (0.0, 0.0, 0.0), atol=0.0)


def test_timestamps_strictly_increasing_and_spaced():
    traj = TrajectorySpec((Segment(0.5, (0.1, 0.0, 0.0)),
                           Segment(0.5, (0.0, 0.2, 0.0))))
    records = simulate(traj, *QUIET, rate=250.0, seed=0)
    t = np.array([r.t for r in records])
    assert np.all(np.diff(t) > 0.0)
    np.testing.assert_allclose(np.diff(t), 0.004, rtol=1e-9)
    assert t[-1] == pytest.approx(1.0)


def test_same_seed_bit_identical_different_seed_differs():
    traj = TrajectorySpec((Segment(2.0, (0.05, -0.02, 0.1)),))
    noisy = (GyroModel(sigma_white=0.01, sigma_markov=1e-4),
             AccelModel(sigma_white=0.02), MagModel(sigma_white=0.005))
    a = simulate(traj, *noisy, rate=100.0, seed=42)
    b = simulate(traj, *noisy, rate=100.0, seed=42)
    c = simulate(traj, *noisy, rate=100.0, seed=43)
    for ra, rb in zip(a, b):
        assert ra.t == rb.t
        np.testing.assert_array_equal(ra.gyro, rb.gyro)
        np.testing.assert_array_equal(ra.accel, rb.accel)
        np.testing.assert_array_equal(ra.mag, rb.mag)
    assert any(not np.array_equal(ra.gyro, rc.gyro) for ra, rc in zip(a, c))


def test_replaying_truth_rates_reproduces_truth_attitude():
    traj = TrajectorySpec(
        (Segment(0.8, (0.4, 0.0, 0.0)), Segment(0.7, (0.0, -0.3, 0.2)),
         Segment(0.5, (0.0, 0.0, 1.0))),
        initial_attitude=EulerAngles(0.1, -0.05, 0.7))
    records = simulate(traj, *QUIET, rate=200.0, seed=0)
    q = euler_to_quat(traj.initial_attitude)
    t_prev = 0.0
    for rec in records:
        q = quat_multiply(q, rotvec_to_quat(rec.gyro * (rec.t - t_prev)))
        np.testing.assert_allclose(quat_to_euler(q), rec.truth, atol=1e-9)
        t_prev = rec.t


def test_gyro_bias_and_markov_drift_enter_measurement():
    bias = (0.02, -0.01, 0.005)
    records = simulate(TrajectorySpec((Segment(1.0, (0.0, 0.0, 0.0)),)),
                       GyroModel(bias=bias), AccelModel(), MagModel(),
                       rate=100.0, seed=0)
    for rec in records:
        np.testing.assert_allclose(rec.gyro, bias, atol=1e-15)


def test_markov_drift_stationary_variance():
    # Ornstein-Uhlenbeck oracle: var = sigma^2 * tau / 2
    tau, sigma, rate, duration = 0.5, 1e-3, 100.0, 600.0
    gm = GyroModel(tau=tau, sigma_markov=sigma)
    records = simulate(TrajectorySpec((Segment(duration, (0.0, 0.0, 0.0)),)),
                       gm, AccelModel(), MagModel(), rate=rate, seed=123)
    drift = np.array([r.gyro for r in records])
    burn = int(5.0 * tau * rate)
    measured = drift[burn:].var(axis=0).mean()
    assert measured == pytest.approx(sigma ** 2 * tau / 2.0, rel=0.10)


def test_linear_acceleration_adds_in_body_frame():
    traj = TrajectorySpec((Segment(0.5, (0.0, 0.0, 0.0), (3.0, 0.0, 0.0)),))
    records = simulate(traj, *QUIET, rate=100.0, seed=0)
    for rec in records:
        np.testing.assert_allclose(rec.accel, [3.0, 0.0, -9.81], atol=1e-12)


def test_mag_follows_attitude():
    yaw = math.pi / 2.0
    traj = TrajectorySpec((Segment(0.1, (0.0, 0.0, 0.0)),),
                          initial_attitude=EulerAngles(0.0, 0.0, yaw))
    records = simulate(traj, *QUIET, rate=100.0, seed=0)
    m = MagModel().field_ned
    # at yaw 90 deg the body x axis points east: north component moves to -y
    np.testing.assert_allclose(records[0].mag, [m[1], -m[0], m[2]], atol=1e-12)


@settings(deadline=None)
@given(triples.filter(lambda f: math.hypot(f[0], f[1]) > 0.1))
@example((-0.59, -0.48, 0.5))
def test_field_is_normalised_on_floats(f):
    """The stored field is the plain-float normalisation of the given one,
    bit for bit, with no BLAS norm."""
    x, y, z = f
    norm = math.sqrt(x * x + y * y + z * z)
    field_ned = MagModel(f).field_ned
    assert [v.hex() for v in field_ned] == [v.hex() for v in (x / norm, y / norm, z / norm)]
    assert all(type(v) is float for v in field_ned)


def test_truth_array_helper():
    records = simulate(TrajectorySpec((Segment(0.1, (0.0, 0.0, 0.0)),)),
                       *QUIET, rate=100.0, seed=0)
    out = truth_array(records)
    assert out.shape == (10, 3)
    with pytest.raises(ValueError):
        truth_array(SensorLog(records.table[:, :10]))


def assert_same_record(a, b):
    assert type(a) is type(b) is SensorRecord
    assert a.t == b.t and a.truth == b.truth
    for field in ("gyro", "accel", "mag"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestSensorLog:
    """`SensorLog`: read-only tables that read as a sequence of `SensorRecord`s."""

    @pytest.fixture(scope="class")
    def log(self):
        # 3 250 rows: iteration crosses the 1 024-row conversion chunks
        return golden_records()

    def test_simulate_returns_a_log(self, log):
        assert isinstance(log, SensorLog) and len(log) == 3250
        assert ahrskit.SensorLog is SensorLog and "SensorLog" in ahrskit.__all__

    def test_columns_are_read_only_for_good(self, log):
        for column in (log.table, log.t, log.gyro, log.accel, log.mag, log.truth,
                       log[5].gyro):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
            with pytest.raises(ValueError):
                column.flags.writeable = True

    def test_index_matches_iteration(self, log):
        listed = list(log)
        n = len(listed)
        for i in (0, 1, 1023, 1024, 1025, 2048, n - 1, -1, -n):
            assert_same_record(log[i], listed[i])
        assert_same_record(log[-1], listed[n - 1])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                log[i]
        with pytest.raises(TypeError):
            log[1.0]

    @pytest.mark.parametrize("part", [slice(None, 5), slice(-3, None), slice(1, 3000, 7),
                                      slice(None, None, -1), slice(5, 5)])
    def test_slices_are_logs(self, log, part):
        listed = list(log)
        sliced = log[part]
        assert isinstance(sliced, SensorLog)
        assert len(sliced) == len(listed[part])
        for a, b in zip(sliced, listed[part], strict=True):
            assert_same_record(a, b)
        assert np.shares_memory(sliced.gyro, log.gyro) or not len(sliced)

    def test_elements_follow_the_columns(self, log):
        listed = list(log)
        assert log.t.tolist() == [r.t for r in listed]
        for field in ("gyro", "accel", "mag"):
            np.testing.assert_array_equal(getattr(log, field),
                                          [getattr(r, field) for r in listed])
        assert log.truth.tolist() == [list(r.truth) for r in listed]
        for r in (*listed[:3], log[1500], log[-1]):
            assert type(r.t) is float and type(r.truth) is EulerAngles
            assert all(type(v) is float for v in r.truth)
            assert type(r.gyro) is np.ndarray and r.gyro.shape == (3,)

    def test_tables_are_checked(self):
        for width in (10, 13):
            log = SensorLog(np.zeros((3, width)))
            assert len(log) == 3 and log.table.shape == (3, width)
            assert (log.truth is None) == (width == 10)
        for table in (np.zeros((3, 9)), np.zeros((3, 11)), np.zeros((3, 12)),
                      np.zeros((3, 10), dtype=np.float32), np.zeros(10)):
            with pytest.raises(ValueError, match=r"\(N, 10\) or \(N, 13\) float64"):
                SensorLog(table)

    def test_one_table_in_csv_column_order(self, log):
        assert log.table.shape == (3250, 13)
        columns = (log.t[:, None], log.gyro, log.accel, log.mag, log.truth)
        for column in columns:
            assert np.shares_memory(column, log.table)
        assert np.hstack(columns).tobytes() == log.table.tobytes()
        assert log[100:200].table.tobytes() == log.table[100:200].tobytes()

    def test_of_records_round_trips_bit_for_bit(self, log):
        back = SensorLog.of(list(log))
        assert records_digest(back) == records_digest(log)
        for a, b in ((back.t, log.t), (back.gyro, log.gyro), (back.accel, log.accel),
                     (back.mag, log.mag), (back.truth, log.truth)):
            assert a.tobytes() == b.tobytes()
        bare = SensorLog.of([r._replace(truth=None) for r in log])
        assert bare.truth is None and bare.t.tobytes() == log.t.tobytes()
        assert len(SensorLog.of([])) == 0

    @pytest.mark.parametrize("bare", [[3], [0], list(range(1, 10))],
                             ids=["one", "first", "all-but-first"])
    def test_of_rejects_partial_truth(self, log, bare):
        mixed = list(log[:10])
        for i in bare:
            mixed[i] = mixed[i]._replace(truth=None)
        with pytest.raises(ValueError, match="^truth must be present for all "
                                             "records or none$"):
            SensorLog.of(mixed)


class TestValidation:
    def test_rejects_non_positive_rate(self):
        traj = TrajectorySpec((Segment(1.0, (0.0, 0.0, 0.0)),))
        with pytest.raises(ValueError):
            simulate(traj, *QUIET, rate=0.0, seed=0)

    def test_rejects_empty_trajectory(self):
        with pytest.raises(ValueError):
            TrajectorySpec(())

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            TrajectorySpec((Segment(0.0, (0.0, 0.0, 0.0)),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["rate", "accel"])
    def test_rejects_non_finite_segment_rate_or_accel(self, field, bad):
        with pytest.raises(ValueError, match="rates and accelerations must be finite"):
            TrajectorySpec((Segment(1.0, (0.0, 0.0, 0.0))._replace(**{field: (0.0, bad, 0.0)}),))

    def test_rejects_segment_shorter_than_sample(self):
        traj = TrajectorySpec((Segment(0.001, (0.0, 0.0, 0.0)),))
        with pytest.raises(ValueError):
            simulate(traj, *QUIET, rate=100.0, seed=0)

    def test_rejects_vertical_only_field(self):
        with pytest.raises(ValueError):
            MagModel(field_ned=(0.0, 0.0, 1.0))

    def test_rejects_negative_densities(self):
        with pytest.raises(ValueError):
            GyroModel(sigma_white=-0.1)
        with pytest.raises(ValueError):
            AccelModel(sigma_white=-0.1)
