"""The fused cf and gyro-only steps against the layers they fuse.

`complementary._cf_step` and `pipeline._gyro_only_step` run a step
inline on local floats and return the new attitude and bias; the driver
converts the attitudes to Euler angles after its loop. The composed
steps below are the same steps written as calls to the reference
layers, `test_complementary.cf_update` and `test_propagation.propagate`,
and convert each new attitude with `quat_to_euler` at its sample, so a
run of theirs stops at the first attitude whose angles fail. They were
the library's own form of these steps before the fusion and stay here
as the reference. On any log the two must give the same estimate bytes
and the same error for a bad sample.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ahrskit import pipeline
from ahrskit.benchmark import matched_noise_config, static_records
from ahrskit.geometry import EulerAngles, quat_to_euler
from ahrskit.pipeline import PipelineConfig
from ahrskit.simulate import SensorLog
from test_complementary import cf_update
from test_dlkf_epoch import GYRO, HALF_PI, faulty_logs, run_with
from test_propagation import propagate

NO_MAG = (0.0, 0.0, 0.0)


def composed_cf_step(cfg, q0, bias_seed, on_epoch):
    q, bias = q0, (0.0, 0.0, 0.0)

    def step(row, dt, mag_due):
        nonlocal q, bias
        q, bias = cf_update(q, bias, row[1:4], row[4:7], row[7:10] if mag_due else NO_MAG,
                            dt, cfg.cf_kp, cfg.cf_ki)
        quat_to_euler(q)
        return (*q, *bias)

    return step


def composed_gyro_only_step(cfg, q0, bias_seed, on_epoch):
    q = q0

    def step(row, dt, mag_due):
        nonlocal q
        q = propagate(q, row[1:4], dt)
        quat_to_euler(q)
        return (*q, 0.0, 0.0, 0.0)

    return step


COMPOSED = {"cf": composed_cf_step, "gyro-only": composed_gyro_only_step}


def assert_fused_matches_composed(log, cfg):
    """(estimate bytes, error message or None) of the fused step, after
    checking that the composed step gives the same."""
    fused = run_with(pipeline._STEPS[cfg.algorithm], log, cfg)
    composed = run_with(COMPOSED[cfg.algorithm], log, cfg)
    assert fused[2] == composed[2]
    assert fused[0] == composed[0]
    return fused[0], fused[2]


@settings(deadline=None, max_examples=150)
@given(faulty_logs(), st.sampled_from(sorted(COMPOSED)),
       st.sampled_from([0.0, 1.0, 20.0]), st.sampled_from([0.0, 0.05, 5.0]),
       st.sampled_from([1.0, 10.0, 1000.0]), st.sampled_from([0.0, 0.1]),
       st.sampled_from([False, False, False, True]))
def test_fused_steps_match_layers_bit_for_bit(log, algorithm, kp, ki, mag_rate, align_s,
                                             late_last):
    if late_last:  # a last step of about 1e300 s overflows the gyro increment
        table = log.table.copy()
        table[-1, 0] = 1e300
        log = SensorLog(table)
    cfg = PipelineConfig(algorithm=algorithm, noise=matched_noise_config(250.0),
                         cf_kp=kp, cf_ki=ki, mag_rate_hz=mag_rate,
                         align_duration_s=align_s)
    table, error = assert_fused_matches_composed(log, cfg)
    event(f"error: {error and error.split(': ', 1)[-1].split(',')[0]}")
    if table is not None:
        pitch = np.frombuffer(table).reshape(-1, 11)[:, 2]
        event(f"gimbal lock: {bool((HALF_PI - np.abs(pitch) < 1e-6).any())}")


def static_table(attitude=EulerAngles(0.0, 0.0, 0.0)):
    """A copy of the table of a noise-free 1 s static log at 250 Hz."""
    return static_records(duration=1.0, gyro_bias=(0.01, -0.02, 0.005), noisy=False,
                          seed=4, attitude=attitude).table.copy()


def cfg_for(algorithm):
    return PipelineConfig(algorithm=algorithm, noise=matched_noise_config(250.0),
                          align_duration_s=0.0)


def test_error_on_a_non_finite_gyro_sample():
    for algorithm in COMPOSED:
        table = static_table()
        table[100, 2] = math.nan  # gyro y
        _, error = assert_fused_matches_composed(SensorLog(table), cfg_for(algorithm))
        assert error.startswith("sample 100 (t=0.404): gyro sample must be finite, got (")


def test_error_on_a_step_of_1e300_seconds():
    for algorithm in COMPOSED:
        table = static_table()
        table[-1, 0] = 1e300
        _, error = assert_fused_matches_composed(SensorLog(table), cfg_for(algorithm))
        assert error == "sample 249 (t=1e+300): rotation angle is not finite, got inf"


def test_zero_accel_and_mag_skip_their_error_terms():
    # with both directions unusable the cf step is the gyro step with
    # the bias it has integrated so far, here none
    table = static_table()
    table[:, 4:10] = 0.0
    table[::2, 4:10] = -0.0
    cf, error = assert_fused_matches_composed(SensorLog(table), cfg_for("cf"))
    gyro_only, _ = assert_fused_matches_composed(SensorLog(table), cfg_for("gyro-only"))
    assert error is None and cf == gyro_only


def test_rows_at_gimbal_lock():
    # aligned on a static log at pitch 90 deg, with a gyro that reads
    # zero: every row takes the gimbal-lock branch
    table = static_table(EulerAngles(0.3, HALF_PI, 1.0))
    table[:, GYRO] = 0.0
    for algorithm in COMPOSED:
        cfg = replace(cfg_for(algorithm), align_duration_s=0.2)
        estimates, error = assert_fused_matches_composed(SensorLog(table), cfg)
        rows = np.frombuffer(estimates).reshape(-1, 11)
        assert error is None and (rows[:, 1] == 0.0).all()
        assert (HALF_PI - rows[:, 2] < 1e-6).all()
