import math

import numpy as np
import pytest

from ahrskit.benchmark import static_records
from ahrskit.complementary import cf_update
from ahrskit.geometry import EulerAngles, euler_to_quat, quat_to_euler, wrap_pi
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
