import math

import numpy as np
import pytest

from ahrskit.geometry import Quaternion, quat_multiply, quat_to_euler, rotvec_to_quat
from ahrskit.propagation import PropagatorState, propagate

# identity attitude, zero gyro bias
START = PropagatorState(Quaternion.identity(), (0.0, 0.0, 0.0))


def test_zero_rate_zero_bias_is_identity():
    state = START
    out = propagate(state, (0.0, 0.0, 0.0), 0.004)
    assert out.q == state.q


def test_one_normalisation_per_step():
    # the step is bit for bit quat_multiply(q, rotvec_to_quat(increment)):
    # the product's normalisation is the only one, as rotvec_to_quat
    # leaves its quaternion unnormalised
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = Quaternion(*rng.normal(size=4)).normalized()
        gyro, bias = rng.normal(scale=2.0, size=3), tuple(rng.normal(scale=0.1, size=3))
        dt = float(rng.uniform(1e-4, 0.5))
        out = propagate(PropagatorState(q, bias), gyro, dt)
        increment = [(float(g) - b) * dt for g, b in zip(gyro, bias)]
        assert out.q == quat_multiply(q, rotvec_to_quat(increment))
        assert type(out.q) is Quaternion and out.bias is bias


def test_single_step_quarter_yaw():
    state = START
    out = propagate(state, (0.0, 0.0, math.pi / 2.0), 1.0)
    e = quat_to_euler(out.q)
    assert e.yaw == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert e.roll == pytest.approx(0.0, abs=1e-12)
    assert e.pitch == pytest.approx(0.0, abs=1e-12)


def test_bias_exactly_cancels_rate():
    state = PropagatorState(Quaternion.identity(), (0.1, 0.0, 0.0))
    out = propagate(state, (0.1, 0.0, 0.0), 0.01)
    assert out.q == state.q


def test_many_small_steps_equal_one_large_step_same_axis():
    rate = (0.0, 0.7, 0.0)
    n, dt = 500, 0.002
    state = START
    for _ in range(n):
        state = propagate(state, rate, dt)
    single = propagate(START, rate, n * dt)
    np.testing.assert_allclose(state.q, single.q, atol=1e-9)


def test_norm_preserved_over_many_random_steps():
    rng = np.random.default_rng(20)
    state = START
    for _ in range(10_000):
        state = propagate(state, rng.normal(scale=2.0, size=3), 0.004)
        assert abs(state.q.norm() - 1.0) < 1e-9


def test_uncompensated_bias_drifts_at_bias_rate():
    # the error the filter exists to estimate: b rad/s of attitude drift
    b = 0.05
    state = START
    for _ in range(2500):  # 10 s at 250 Hz
        state = propagate(state, (0.0, 0.0, b), 0.004)
    assert quat_to_euler(state.q).yaw == pytest.approx(b * 10.0, abs=1e-6)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_rejects_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        propagate(START, (0.0, 0.0, 0.0), dt)


def test_rejects_non_finite_gyro():
    with pytest.raises(ValueError):
        propagate(START, (math.nan, 0.0, 0.0), 0.01)
