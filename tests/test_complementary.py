"""The cf baseline: the reference writing of its step, and the
properties of the Mahony PI feedback checked on it.

`cf_update` below is the step that `complementary._cf_step` runs inline,
written as a function of the attitude and bias: the same arithmetic in
the same operand order, so `tests/test_fused_steps.py` holds the two
equal bit for bit. A NumPy oracle checks it to 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahrskit.benchmark import matched_noise_config, static_records
from ahrskit.complementary import _cf_step
from ahrskit.geometry import (EulerAngles, Quaternion, _dcm_entries, euler_to_quat,
                              quat_to_dcm, quat_to_euler, wrap_pi)
from ahrskit.pipeline import PipelineConfig, run_pipeline
from test_golden import RATE, estimate_digest, golden_records
from test_propagation import propagate

# identity attitude, zero gyro bias
START = Quaternion.identity()
NO_BIAS = (0.0, 0.0, 0.0)


def cf_update(q, bias, gyro, accel, mag, dt, kp, ki):
    """One fusion step with gains kp and ki (1/s) from attitude `q` and
    bias `bias`; returns the new (q, bias). An accel or mag whose norm is
    zero or not finite skips that error term."""
    # cij is row i, column j of C_b^n
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = _dcm_entries(*q)
    ex = ey = ez = 0.0

    ax, ay, az = float(accel[0]), float(accel[1]), float(accel[2])
    an = math.sqrt(ax * ax + ay * ay + az * az)
    if 0.0 < an < math.inf:
        ax, ay, az = ax / an, ay / an, az / an
        ex = c21 * az - c22 * ay
        ey = c22 * ax - c20 * az
        ez = c20 * ay - c21 * ax

    mx, my, mz = float(mag[0]), float(mag[1]), float(mag[2])
    mn = math.sqrt(mx * mx + my * my + mz * mz)
    if 0.0 < mn < math.inf:
        mx, my, mz = mx / mn, my / mn, mz / mn
        h0 = c00 * mx + c01 * my + c02 * mz
        h1 = c10 * mx + c11 * my + c12 * mz
        h2 = c20 * mx + c21 * my + c22 * mz
        r0 = math.hypot(h0, h1)
        px = c00 * r0 + c20 * h2
        py = c01 * r0 + c21 * h2
        pz = c02 * r0 + c22 * h2
        ex += my * pz - mz * py
        ey += mz * px - mx * pz
        ez += mx * py - my * px

    bx, by, bz = bias
    bx -= ki * ex * dt
    by -= ki * ey * dt
    bz -= ki * ez * dt
    q = propagate(q, gyro, dt, (bx - kp * ex, by - kp * ey, bz - kp * ez))
    return q, (bx, by, bz)


def run_static(q, bias, records, kp, ki):
    t_prev = 0.0
    for rec in records:
        q, bias = cf_update(q, bias, rec.gyro, rec.accel, rec.mag, rec.t - t_prev, kp, ki)
        t_prev = rec.t
    return q, bias


def test_zero_gains_degenerate_to_pure_propagation():
    rng = np.random.default_rng(40)
    cf = prop = START
    bias = NO_BIAS
    for _ in range(500):
        gyro = rng.normal(scale=1.0, size=3)
        cf, bias = cf_update(cf, bias, gyro, rng.normal(size=3), rng.normal(size=3), 0.004,
                             kp=0.0, ki=0.0)
        prop = propagate(prop, gyro, 0.004)
    assert cf == prop
    np.testing.assert_array_equal(bias, NO_BIAS)


def test_consistent_measurements_are_fixed_point():
    attitude = EulerAngles(0.25, -0.15, 1.0)
    records = static_records(duration=1.0, noisy=False, seed=0, attitude=attitude)
    q, bias = run_static(euler_to_quat(attitude), NO_BIAS, records, kp=2.0, ki=0.1)
    np.testing.assert_allclose(q, euler_to_quat(attitude), atol=1e-9)
    np.testing.assert_allclose(bias, 0.0, atol=1e-12)


def test_initial_roll_error_decays_within_five_seconds():
    # first-order error dynamics with kp = 1 give tau ~ 1 s
    records = static_records(duration=5.0, noisy=False, seed=0)
    q, _ = run_static(euler_to_quat(EulerAngles(math.radians(10.0), 0.0, 0.0)), NO_BIAS,
                      records, kp=1.0, ki=0.0)
    assert abs(math.degrees(quat_to_euler(q).roll)) < 1.0


def test_integral_action_shrinks_steady_state_bias_error():
    bias = (0.01, 0.0, 0.0)
    records = static_records(duration=40.0, gyro_bias=bias, noisy=False, seed=0)
    err = {}
    for ki in (0.0, 0.05):
        q, _ = run_static(START, NO_BIAS, records, kp=1.0, ki=ki)
        err[ki] = abs(wrap_pi(quat_to_euler(q).roll))
    assert err[0.05] < err[0.0]


def test_zero_ki_leaves_the_bias_bit_for_bit():
    # the integral adds ki * e * dt = +-0.0, and b - (+-0.0) == b for a
    # bias that is not -0.0
    rng = np.random.default_rng(42)
    for bias in ((0.0, 0.0, 0.0), tuple(rng.normal(scale=0.01, size=3).tolist())):
        q, out = START, bias
        for _ in range(200):
            q, out = cf_update(q, out, rng.normal(size=3), rng.normal(size=3),
                               rng.normal(size=3), 0.004, kp=1.0, ki=0.0)
            assert np.array(out).tobytes() == np.array(bias).tobytes()


def test_zero_ki_run_is_bit_identical():
    # the digest of the golden log's cf run at ki = 0, pinned when
    # the cf step still skipped the integral at ki = 0
    cfg = PipelineConfig(algorithm="cf", cf_ki=0.0, noise=matched_noise_config(RATE))
    assert estimate_digest(run_pipeline(golden_records(), cfg)) == \
        "d7614f322e8f507719779319488670c1987360c9335240733960bb6acb156985"


def test_norm_preserved():
    rng = np.random.default_rng(41)
    q, bias = START, NO_BIAS
    for _ in range(2000):
        q, bias = cf_update(q, bias, rng.normal(size=3), rng.normal(size=3),
                            rng.normal(size=3), 0.004, kp=1.0, ki=0.05)
        assert abs(q.norm() - 1.0) < 1e-9


def test_zero_norm_sensors_skip_their_terms():
    q, _ = cf_update(START, NO_BIAS, (0.1, 0.0, 0.0), (0.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0), 0.01, kp=1.0, ki=0.05)
    np.testing.assert_allclose(q, propagate(START, (0.1, 0.0, 0.0), 0.01), atol=1e-12)


def test_rejects_bad_inputs():
    # the step rejects a step length the gyro step rejects; the gains
    # are checked once, by the run's config
    step = _cf_step(PipelineConfig(algorithm="cf"), START, NO_BIAS, None)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        step((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -9.81, 1.0, 0.0, 0.0), 0.0, True)
    for kp, ki in ((-1.0, 0.05), (math.nan, 0.05), (math.inf, 0.05),
                   (1.0, -1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="CF gains must be finite and >= 0"):
            PipelineConfig(algorithm="cf", cf_kp=kp, cf_ki=ki)


def _cf_update_numpy(q, bias, gyro, accel, mag, dt, kp, ki):
    """Reference: the filter step on NumPy vectors, with the DCM from
    `quat_to_dcm`, which `cf_update` writes out on floats."""
    accel = np.asarray(accel, dtype=float)
    mag = np.asarray(mag, dtype=float)

    cbn = quat_to_dcm(q)
    err = np.zeros(3)

    an = np.linalg.norm(accel)
    if an > 0.0:
        meas = accel / an
        pred = -cbn[2, :]
        err += np.cross(meas, pred)

    mn = np.linalg.norm(mag)
    if mn > 0.0:
        meas = mag / mn
        h = cbn @ meas
        ref = np.array([np.hypot(h[0], h[1]), 0.0, h[2]])
        pred = cbn.T @ ref
        err += np.cross(meas, pred)

    bias = np.array(bias)
    if ki > 0.0:
        bias = bias - ki * err * dt
    return propagate(q, gyro, dt, bias - kp * err), bias


unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit)


@st.composite
def sensor_vectors(draw, scale):
    """A sensor 3-vector: random, exactly zero, or with one NaN."""
    v = [c * scale for c in draw(vec3)]
    kind = draw(st.sampled_from(["random", "zero", "nan"]))
    if kind == "zero":
        return np.zeros(3)
    if kind == "nan":
        v[draw(st.integers(0, 2))] = math.nan
    return np.array(v)


@settings(deadline=None, max_examples=300)
@given(st.tuples(unit, unit, unit, unit),
       st.tuples(*[st.floats(-0.1, 0.1)] * 3),
       st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       sensor_vectors(9.81), sensor_vectors(0.5),
       st.floats(1e-4, 0.1), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_matches_numpy_oracle(q, bias, gyro, accel, mag, dt, kp, ki):
    n = math.sqrt(sum(c * c for c in q))
    assume(n > 0.1)
    q = Quaternion(*(c / n for c in q))
    q_out, b_out = cf_update(q, bias, gyro, accel, mag, dt, kp, ki)
    q_ref, b_ref = _cf_update_numpy(q, bias, gyro, accel, mag, dt, kp, ki)
    # q and -q are one rotation; near w = 0 rounding may pick either sign
    q_out, q_ref = np.array(q_out), np.array(q_ref)
    assert min(np.abs(q_out - q_ref).max(), np.abs(q_out + q_ref).max()) <= 1e-12
    np.testing.assert_allclose(b_out, b_ref, rtol=0.0, atol=1e-14)
    assert type(b_out) is tuple and len(b_out) == 3
    assert all(type(b) is float for b in b_out)
