"""The cf step and the gyro-only column path against the layers they fuse.

`complementary._cf_step` runs a step inline on local floats and returns
the new attitude and bias; `run_pipeline` converts the attitudes to Euler
angles after its loop. Gyro-only has no per-row step: its entry in
`pipeline._STEPS` is None, and `pipeline._dead_reckoning` takes the
rotation increments by the column and chains the products. The composed
steps below are the same estimators written as calls to the reference
layers, `test_complementary.cf_update` and `test_propagation.propagate`,
run through `run_pipeline`'s per-row loop, and convert each new attitude
with `quat_to_euler` at its sample, so a run of theirs stops at the
first attitude whose angles fail. They were the library's own form of
these steps before the fusion and stay here as the reference. On any
log the two must give the same estimate bytes and the same error for a
bad sample, and `test_the_two_sides_run_different_code` checks that the
comparison runs the library's code on one side and the reference on the
other.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ahrskit import complementary, pipeline, propagation
from ahrskit.benchmark import matched_noise_config, static_records
from ahrskit.geometry import EulerAngles, Quaternion, quat_to_euler
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


def sides(algorithm):
    """The two `pipeline._STEPS` entries a comparison runs: the library's
    own (None for gyro-only, which runs by the column) and the composed
    reference step, which runs through the per-row loop."""
    return pipeline._STEPS[algorithm], COMPOSED[algorithm]


def assert_fused_matches_composed(log, cfg):
    """(estimate bytes, error message or None) of the library's run,
    after checking that the composed step gives the same."""
    fused, composed = (run_with(entry, log, cfg) for entry in sides(cfg.algorithm))
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


def codes_run(entry, log, cfg):
    """The code objects of the Python functions that a `run_with` of
    `entry` calls."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    try:
        run_with(entry, log, cfg)
    finally:
        sys.setprofile(None)
    return seen


def step_code(make_step, cfg):
    return make_step(cfg, Quaternion.identity(), (0.0, 0.0, 0.0), None).__code__


@pytest.mark.parametrize("algorithm", sorted(COMPOSED))
def test_the_two_sides_run_different_code(algorithm):
    """Every comparison in this file runs the library's code on one side
    and the composed reference on the other: were both sides the same
    code, they would agree on every log and show nothing."""
    cfg = cfg_for(algorithm)
    library, reference = (codes_run(entry, SensorLog(static_table()), cfg)
                          for entry in sides(algorithm))
    composed = step_code(COMPOSED[algorithm], cfg)
    under_test = {"cf": step_code(complementary._cf_step, cfg),
                  "gyro-only": propagation._chain.__code__}[algorithm]
    assert composed in reference and composed not in library
    assert under_test in library and under_test not in reference


def long_table():
    """A copy of the table of a noise-free 5 s static log at 250 Hz, and
    the number of its rows that a 0.2 s alignment takes: the rows after
    them span two `_CHUNK`s of 1 024."""
    table = static_records(duration=5.0, gyro_bias=(0.01, -0.02, 0.005), noisy=False,
                           seed=4).table.copy()
    return table, int(np.searchsorted(table[:, 0], table[0, 0] + 0.2, "right"))


ALIGNED = replace(cfg_for("gyro-only"), align_duration_s=0.2)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("row", [0, 1023, 1024, -1])
def test_where_a_non_finite_gyro_is_reported(row, value):
    # rows after the alignment, on both sides of the edge between the
    # first two chunks of the column path
    table, n_align = long_table()
    i = range(n_align, len(table))[row]
    table[i, 1 + i % 3] = value
    _, error = assert_fused_matches_composed(SensorLog(table), ALIGNED)
    assert error.startswith(f"sample {i} (t={table[i, 0]}): gyro sample must be finite, got (")


@pytest.mark.parametrize("first, second", [(500, 1100), (1030, 1100), (1023, 1024)])
def test_the_earlier_of_two_faults_is_reported(first, second):
    table, n_align = long_table()
    first, second = n_align + first, n_align + second
    table[first, 2] = 1e300  # a finite rate whose increment overflows
    table[second, 3] = math.nan
    _, error = assert_fused_matches_composed(SensorLog(table), ALIGNED)
    assert error == f"sample {first} (t={table[first, 0]}): rotation angle is not finite, got inf"
    table[first, 2], table[second, 2] = math.nan, 1e300
    _, error = assert_fused_matches_composed(SensorLog(table), ALIGNED)
    assert error.startswith(f"sample {first} (t={table[first, 0]}): gyro sample must be finite")


@pytest.mark.filterwarnings("error")
def test_error_on_a_time_jump_that_overflows_dt():
    # each timestamp is finite and follows the one before, but the step
    # from -1.7e308 to 1.7e308 overflows to inf; with a zero gyro every
    # other step, though of about 1e303 s, turns the attitude by nothing
    table, _ = long_table()
    table[:, GYRO] = 0.0
    table[:700, 0] = np.linspace(-1.71e308, -1.7e308, 700)
    table[700:, 0] = np.linspace(1.7e308, 1.71e308, len(table) - 700)
    _, error = assert_fused_matches_composed(SensorLog(table), cfg_for("gyro-only"))
    assert error == "sample 700 (t=1.7e+308): dt must be positive and finite, got inf"
