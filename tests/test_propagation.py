import math

import numpy as np
import pytest

from ahrskit.geometry import Quaternion, quat_multiply, quat_to_euler, rotvec_to_quat
from ahrskit.propagation import _propagated

START = Quaternion.identity()


def propagate(q, gyro, dt, bias=(0.0, 0.0, 0.0)):
    """`q` advanced by one gyro sample over dt seconds, less `bias`: the
    gyro step every estimator takes, on a Quaternion and a 3-vector."""
    return Quaternion(*_propagated(*q, float(gyro[0]), float(gyro[1]), float(gyro[2]),
                                   *bias, dt))


def test_zero_rate_zero_bias_is_identity():
    assert propagate(START, (0.0, 0.0, 0.0), 0.004) == START


def test_one_normalisation_per_step():
    # the step is bit for bit quat_multiply(q, rotvec_to_quat(increment)):
    # the product's normalisation is the only one, as rotvec_to_quat
    # leaves its quaternion unnormalised
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = Quaternion(*rng.normal(size=4)).normalized()
        gyro, bias = rng.normal(scale=2.0, size=3), tuple(rng.normal(scale=0.1, size=3))
        dt = float(rng.uniform(1e-4, 0.5))
        increment = [(float(g) - b) * dt for g, b in zip(gyro, bias)]
        assert propagate(q, gyro, dt, bias) == quat_multiply(q, rotvec_to_quat(increment))


def test_single_step_quarter_yaw():
    e = quat_to_euler(propagate(START, (0.0, 0.0, math.pi / 2.0), 1.0))
    assert e.yaw == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert e.roll == pytest.approx(0.0, abs=1e-12)
    assert e.pitch == pytest.approx(0.0, abs=1e-12)


def test_bias_exactly_cancels_rate():
    assert propagate(START, (0.1, 0.0, 0.0), 0.01, bias=(0.1, 0.0, 0.0)) == START


def test_many_small_steps_equal_one_large_step_same_axis():
    rate = (0.0, 0.7, 0.0)
    n, dt = 500, 0.002
    q = START
    for _ in range(n):
        q = propagate(q, rate, dt)
    np.testing.assert_allclose(q, propagate(START, rate, n * dt), atol=1e-9)


def test_norm_preserved_over_many_random_steps():
    rng = np.random.default_rng(20)
    q = START
    for _ in range(10_000):
        q = propagate(q, rng.normal(scale=2.0, size=3), 0.004)
        assert abs(q.norm() - 1.0) < 1e-9


def test_uncompensated_bias_drifts_at_bias_rate():
    # the error the filter exists to estimate: b rad/s of attitude drift
    b = 0.05
    q = START
    for _ in range(2500):  # 10 s at 250 Hz
        q = propagate(q, (0.0, 0.0, b), 0.004)
    assert quat_to_euler(q).yaw == pytest.approx(b * 10.0, abs=1e-6)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_rejects_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        propagate(START, (0.0, 0.0, 0.0), dt)


def test_rejects_non_finite_gyro():
    with pytest.raises(ValueError):
        propagate(START, (math.nan, 0.0, 0.0), 0.01)
