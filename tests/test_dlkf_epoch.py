"""The fused dlkf epoch against the chain of layers it fuses.

`pipeline._dlkf_step` runs a whole epoch inline on local floats.
`composed_dlkf_step` below is the same epoch written as calls to
layers: the gyro step of `test_propagation.propagate`, `quat_to_euler`,
`test_dlkf.time_update`, `accel_roll_pitch` and `accel_update`,
`mag_yaw` and `mag_update`, then `test_dlkf.apply_correction`; it
converts the corrected attitude with `quat_to_euler` before the hook,
so a run of it stops at the first attitude whose angles fail, and
returns that attitude and the bias. It was the library's own form of
the epoch before the fusion and stays here as its reference. On any log
the two must give the same estimate bytes, the same x and P bytes at
every epoch (signed zeros included), and the same error for a bad
sample.
"""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ahrskit import pipeline
from ahrskit.benchmark import matched_noise_config, mems_models, static_records
from ahrskit.dlkf import FilterState, accel_update, mag_update
from ahrskit.fasteuler import accel_roll_pitch, mag_yaw
from ahrskit.geometry import EulerAngles, quat_to_euler
from ahrskit.pipeline import PipelineConfig, run_pipeline
from ahrskit.simulate import Segment, SensorLog, TrajectorySpec, simulate
from test_dlkf import apply_correction, time_update
from test_propagation import propagate


def composed_dlkf_step(cfg, q0, bias_seed, on_epoch):
    q, bias = q0, bias_seed
    fs = FilterState.initial()
    r0, r1 = cfg.noise.Ra_nominal

    def step(row, dt, mag_due):
        nonlocal q, bias, fs
        q = propagate(q, row[1:4], dt, bias)
        est = quat_to_euler(q)

        fs = time_update(fs, q, dt, cfg.noise)
        meas = accel_roll_pitch(row[4:7], cfg.noise)
        if meas is not None:
            roll, pitch, gamma2 = meas
            fs = accel_update(fs, (roll - est.roll, pitch - est.pitch),
                              (gamma2 * r0, gamma2 * r1))
        if mag_due:
            # tilt-compensate with the accel angles only while the
            # accel is fully trusted; a gated or de-weighted sample
            # would leak its linear-acceleration error into heading
            tilt = meas if meas is not None and meas[2] <= 1.0 else (est.roll, est.pitch)
            yaw_meas = mag_yaw(row[7:10], tilt[0], tilt[1])
            if yaw_meas is not None:
                fs = mag_update(fs, yaw_meas - est.yaw, cfg.noise.Rm)
        q, bias, fs = apply_correction(q, bias, fs, est)
        quat_to_euler(q)
        if on_epoch is not None:
            on_epoch(row[0], fs)
        return (*q, *bias)

    return step


def run_with(make_step, log, cfg):
    """(estimate bytes, per-epoch (t, x, P) bytes, error message or None)
    of a run of `cfg.algorithm` with the given step factory."""
    epochs = []

    def record(t, fs):
        epochs.append(np.array((t, *fs._x, *fs._p)).tobytes())

    with patch.dict(pipeline._STEPS, {cfg.algorithm: make_step}):
        try:
            table = run_pipeline(log, cfg, on_epoch=record).table.tobytes()
        except ValueError as exc:
            return None, epochs, str(exc)
    return table, epochs, None


def assert_fused_matches_composed(log, cfg):
    fused = run_with(pipeline._dlkf_step, log, cfg)
    composed = run_with(composed_dlkf_step, log, cfg)
    assert fused[2] == composed[2]
    assert fused[1] == composed[1]
    assert fused[0] == composed[0]
    return fused


HALF_PI = 0.5 * math.pi
# pitches outside, inside and at the edge of the 1e-6 rad gimbal-lock tolerance
pitches = st.one_of(st.floats(-1.5, 1.5),
                    st.sampled_from([HALF_PI - 1e-5, HALF_PI - 1e-7, HALF_PI,
                                     -HALF_PI + 1e-7, -HALF_PI]))
rates = st.tuples(*[st.floats(-0.5, 0.5)] * 3)
segments = st.builds(Segment, st.sampled_from([0.2, 0.6]), rates,
                     st.tuples(st.floats(-3.0, 3.0), st.just(0.0), st.just(0.0)))
GYRO, ACCEL, MAG = slice(1, 4), slice(4, 7), slice(7, 10)


@st.composite
def faulty_logs(draw):
    """A short simulated log at combined roll and pitch: a static 0.2 s
    start, then manoeuvres, with gaps (some longer than tau_g), NaN,
    infinite and zero sensor rows, and accel rows scaled to gamma^2 > 1
    or out of the norm gate."""
    traj = TrajectorySpec((Segment(0.2, (0.0, 0.0, 0.0)),
                           *draw(st.lists(segments, max_size=3))),
                          EulerAngles(draw(st.floats(-3.1, 3.1)), draw(pitches),
                                      draw(st.floats(0.0, 6.28))))
    gm, am, mm = mems_models(gyro_bias=draw(rates), noisy=draw(st.booleans()))
    log = simulate(traj, gm, am, mm, draw(st.sampled_from([50.0, 250.0])),
                   draw(st.integers(0, 2**16)))
    table = log.table.copy()
    rows = st.integers(1, len(table) - 1)
    for i, gap in draw(st.lists(st.tuples(rows, st.sampled_from([0.03, 0.7, 3.0])),
                                max_size=2)):
        table[i:, 0] += gap
    for i, field, value in draw(st.lists(
            st.tuples(rows, st.sampled_from([ACCEL, ACCEL, MAG, MAG, GYRO]),
                      st.sampled_from([math.nan, math.inf, 0.0, -0.0])), max_size=3)):
        table[i, field] = value
    for i, factor in draw(st.lists(st.tuples(rows, st.sampled_from([1.02, 1.2])),
                                   max_size=4)):
        table[i, ACCEL] *= factor
    return SensorLog(table)


@settings(deadline=None, max_examples=150)
@given(faulty_logs(), st.sampled_from([0.0, 5.0, 50.0]), st.sampled_from([0.5, 100.0]),
       st.sampled_from([1.0, 10.0, 60.0, 1000.0]), st.sampled_from([0.0, 0.1]),
       st.lists(st.floats(0.5, 2.0), min_size=8, max_size=8, unique=True))
def test_fused_epoch_matches_layer_chain_bit_for_bit(log, lambda_a, tau_g, mag_rate,
                                                     align_s, factors):
    # six distinct Q variances and two distinct Ra_nominal variances, so
    # that a variance applied to the wrong state changes the result
    matched = matched_noise_config(250.0)
    noise = replace(matched, lambda_a=lambda_a, tau_g=tau_g,
                    Q=[v * f for v, f in zip(matched.Q, factors)],
                    Ra_nominal=[v * f for v, f in zip(matched.Ra_nominal, factors[6:])])
    cfg = PipelineConfig(noise=noise, mag_rate_hz=mag_rate, align_duration_s=align_s)
    table, epochs, error = assert_fused_matches_composed(log, cfg)
    event(f"error: {error and error.split(': ', 1)[-1].split(',')[0]}")
    if table is not None:
        pitch = np.frombuffer(table).reshape(-1, 11)[:, 2]
        event(f"gimbal lock: {bool((HALF_PI - np.abs(pitch) < 1e-6).any())}")


def static_table():
    """A copy of the table of a noise-free 1 s static log at 250 Hz."""
    return static_records(duration=1.0, gyro_bias=(0.01, -0.02, 0.005), noisy=False,
                          seed=4).table.copy()


def test_error_on_a_non_finite_gyro_sample():
    table = static_table()
    table[100, 2] = math.nan  # gyro y
    _, epochs, error = assert_fused_matches_composed(
        SensorLog(table), PipelineConfig(noise=matched_noise_config(250.0),
                                         align_duration_s=0.0))
    assert len(epochs) == 99
    assert error.startswith("sample 100 (t=0.404): gyro sample must be finite, got (")


def test_error_on_an_accel_variance_that_overflows():
    table = static_table()
    table[120, ACCEL] *= 1.02  # | ||f|| - g | of 0.2 m/s^2, so gamma^2 = 10
    noise = replace(matched_noise_config(250.0), Ra_nominal=(1.7e308, 1.7e308),
                    lambda_a=50.0)
    _, epochs, error = assert_fused_matches_composed(
        SensorLog(table), PipelineConfig(noise=noise, align_duration_s=0.0))
    assert len(epochs) == 119
    assert error == "sample 120 (t=0.484): ra must be two finite variances > 0, " \
                    "got (inf, inf)"


def test_error_on_a_covariance_that_overflows():
    # a finite process noise near the largest float overflows P within a
    # few steps; the time update after it finds its inputs not finite
    noise = replace(matched_noise_config(250.0), Q=(1e308,) * 6)
    _, epochs, error = assert_fused_matches_composed(
        SensorLog(static_table()), PipelineConfig(noise=noise, align_duration_s=0.0))
    assert epochs and error.endswith(": time_update inputs must be finite")


def test_error_on_a_covariance_that_overflows_within_one_step():
    # the last sample comes 1e300 s after the one before, and its gyro
    # reads the bias estimate, so the attitude stands still; from finite
    # inputs the time update overflows P, the roll update turns it NaN,
    # and the pitch update finds its innovation variance NaN. Without a
    # mag sample no yaw update could report it instead. The fused epoch
    # runs roll, pitch and yaw through one update body, so this case
    # reaches the `s > 0` check that all three share.
    table = static_records(duration=1.0, noisy=False, seed=0,
                           attitude=EulerAngles(0.3, 0.2, 1.0)).table.copy()
    cfg = PipelineConfig(noise=matched_noise_config(250.0), align_duration_s=0.2)
    table[-1, GYRO] = run_pipeline(SensorLog(table[:-1]), cfg).gyro_bias[-1]
    table[-1, 0] = 1e300
    table[-1, MAG] = math.nan
    _, _, error = assert_fused_matches_composed(SensorLog(table), cfg)
    assert error == "sample 249 (t=1e+300): innovation variance must be > 0, got nan"


def test_error_on_a_correction_that_turns_the_attitude_nan():
    # a process noise near the largest float on roll alone: with the
    # accel gated at sample 100, P's roll variance grows to about
    # 1.7e308, and the time update of sample 101 overflows it to inf.
    # The roll gain inf/inf turns the roll error NaN, while the pitch
    # update finds a finite variance, so the corrected attitude is NaN.
    # The run stops at that sample, before its hook, also when it is
    # the last, as when each step converted its own attitude.
    base = matched_noise_config(250.0)
    cfg = PipelineConfig(noise=replace(base, Q=(1.7e308, *base.Q[1:])),
                         align_duration_s=0.0)
    for n_samples in (250, 102):
        table = static_table()[:n_samples]
        table[100, ACCEL] = math.nan
        _, epochs, error = assert_fused_matches_composed(SensorLog(table), cfg)
        assert len(epochs) == 100
        assert error == "sample 101 (t=0.40800000000000003): yaw must be finite, got nan"


def test_signed_zeros_of_an_uncorrected_epoch_reach_on_epoch():
    # a step longer than tau_g makes d < 0, so the time update turns the
    # bias error states' zeros into -0.0; with no measurement that epoch,
    # no correction resets them, and the hook sees them as they are
    table = static_table()
    table[10:, 0] += 3.0
    table[10, ACCEL] = table[10, MAG] = math.nan
    noise = replace(matched_noise_config(250.0), tau_g=0.5)
    _, epochs, error = assert_fused_matches_composed(
        SensorLog(table), PipelineConfig(noise=noise, align_duration_s=0.0))
    assert error is None
    x = np.frombuffer(epochs[9])[1:7]  # sample 10: the first estimate is sample 1's
    assert not x.any() and np.signbit(x).tolist() == [False] * 3 + [True] * 3
