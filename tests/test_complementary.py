import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahrskit.benchmark import static_records
from ahrskit.complementary import cf_update
from ahrskit.geometry import (EulerAngles, Quaternion, euler_to_quat,
                              quat_to_dcm, quat_to_euler, wrap_pi)
from ahrskit.propagation import PropagatorState, propagate


def run_static(prop, records, kp, ki):
    t_prev = 0.0
    for rec in records:
        prop = cf_update(prop, rec.gyro, rec.accel, rec.mag, rec.t - t_prev, kp, ki)
        t_prev = rec.t
    return prop


def test_zero_gains_degenerate_to_pure_propagation():
    rng = np.random.default_rng(40)
    cf = prop = PropagatorState.initial()
    for _ in range(500):
        gyro = rng.normal(scale=1.0, size=3)
        cf = cf_update(cf, gyro, rng.normal(size=3), rng.normal(size=3), 0.004,
                       kp=0.0, ki=0.0)
        prop = propagate(prop, gyro, 0.004)
    assert cf.q == prop.q
    np.testing.assert_array_equal(cf.bias, prop.bias)


def test_consistent_measurements_are_fixed_point():
    attitude = EulerAngles(0.25, -0.15, 1.0)
    records = static_records(duration=1.0, noisy=False, seed=0, attitude=attitude)
    prop = PropagatorState.initial(euler_to_quat(attitude))
    out = run_static(prop, records, kp=2.0, ki=0.1)
    np.testing.assert_allclose(out.q, prop.q, atol=1e-9)
    np.testing.assert_allclose(out.bias, 0.0, atol=1e-12)


def test_initial_roll_error_decays_within_five_seconds():
    # first-order error dynamics with kp = 1 give tau ~ 1 s
    records = static_records(duration=5.0, noisy=False, seed=0)
    prop = PropagatorState.initial(euler_to_quat(EulerAngles(math.radians(10.0), 0.0, 0.0)))
    out = run_static(prop, records, kp=1.0, ki=0.0)
    assert abs(math.degrees(quat_to_euler(out.q).roll)) < 1.0


def test_integral_action_shrinks_steady_state_bias_error():
    bias = (0.01, 0.0, 0.0)
    records = static_records(duration=40.0, gyro_bias=bias, noisy=False, seed=0)
    err = {}
    for ki in (0.0, 0.05):
        out = run_static(PropagatorState.initial(), records, kp=1.0, ki=ki)
        err[ki] = abs(wrap_pi(quat_to_euler(out.q).roll))
    assert err[0.05] < err[0.0]


def test_norm_preserved():
    rng = np.random.default_rng(41)
    prop = PropagatorState.initial()
    for _ in range(2000):
        prop = cf_update(prop, rng.normal(size=3), rng.normal(size=3),
                         rng.normal(size=3), 0.004, kp=1.0, ki=0.05)
        assert abs(prop.q.norm() - 1.0) < 1e-9


def test_zero_norm_sensors_skip_their_terms():
    out = cf_update(PropagatorState.initial(), (0.1, 0.0, 0.0), (0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0), 0.01, kp=1.0, ki=0.05)
    ref = propagate(PropagatorState.initial(), (0.1, 0.0, 0.0), 0.01)
    np.testing.assert_allclose(out.q, ref.q, atol=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cf_update(PropagatorState.initial(), (0, 0, 0), (0, 0, -9.81), (1, 0, 0), 0.0,
                  kp=1.0, ki=0.05)
    with pytest.raises(ValueError, match="gains must be non-negative"):
        cf_update(PropagatorState.initial(), (0, 0, 0), (0, 0, -9.81), (1, 0, 0), 0.004,
                  kp=-1.0, ki=0.05)


def _cf_update_numpy(prop, gyro, accel, mag, dt, kp, ki):
    """Reference: the filter step on NumPy vectors, with the DCM from
    `quat_to_dcm`, which `cf_update` writes out on floats."""
    accel = np.asarray(accel, dtype=float)
    mag = np.asarray(mag, dtype=float)

    cbn = quat_to_dcm(prop.q)
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

    bias = prop.bias
    if ki > 0.0:
        bias = bias - ki * err * dt
    q = propagate(PropagatorState(prop.q, bias - kp * err), gyro, dt).q
    return PropagatorState(q, bias)


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
    prop = PropagatorState(Quaternion(*(c / n for c in q)), np.array(bias))
    out = cf_update(prop, gyro, accel, mag, dt, kp, ki)
    ref = _cf_update_numpy(prop, gyro, accel, mag, dt, kp, ki)
    # q and -q are one rotation; near w = 0 rounding may pick either sign
    q_out, q_ref = np.array(out.q), np.array(ref.q)
    assert min(np.abs(q_out - q_ref).max(), np.abs(q_out + q_ref).max()) <= 1e-12
    np.testing.assert_allclose(out.bias, ref.bias, rtol=0.0, atol=1e-14)
    assert isinstance(out.bias, np.ndarray) and out.bias.shape == (3,)
