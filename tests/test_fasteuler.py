import math

import numpy as np
import pytest

from ahrskit.dlkf import NoiseConfig
from ahrskit.fasteuler import accel_roll_pitch, mag_yaw
from ahrskit.geometry import EulerAngles, euler_to_quat, quat_to_dcm, wrap_yaw

CFG = NoiseConfig(gravity=9.81, accel_gate=0.5)


def specific_force(roll, pitch, yaw=0.0, g=9.81):
    """Body-frame gravity reaction -C_n^b (0, 0, g) at the given attitude."""
    cbn = quat_to_dcm(euler_to_quat(EulerAngles(roll, pitch, yaw)))
    return -cbn.T @ np.array([0.0, 0.0, g])


def body_field(roll, pitch, yaw, declination=0.0, down=0.8):
    """Body-frame field C_n^b m_n with horizontal direction `declination`."""
    m_n = np.array([math.cos(declination), math.sin(declination), down])
    cbn = quat_to_dcm(euler_to_quat(EulerAngles(roll, pitch, yaw)))
    return cbn.T @ m_n


def brute_force_yaw(roll, pitch, m_body, m_n):
    """Oracle: grid-search the yaw minimizing the body-field residual,
    then refine with a parabolic fit (the residual is sinusoidal)."""
    psi = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    c, s = np.cos(psi), np.sin(psi)
    # C_n^b(psi) m_n = A @ Rz(-psi) m_n with A = (Ry Rx)^T
    a = quat_to_dcm(euler_to_quat(EulerAngles(roll, pitch, 0.0))).T
    v = np.stack([c * m_n[0] + s * m_n[1], -s * m_n[0] + c * m_n[1],
                  np.full_like(c, m_n[2])])
    resid = ((a @ v) - np.asarray(m_body)[:, None])
    cost = np.sum(resid * resid, axis=0)
    i = int(np.argmin(cost))
    step = psi[1] - psi[0]
    y0, y1, y2 = cost[i - 1], cost[i], cost[(i + 1) % len(cost)]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    return wrap_yaw(psi[i] + offset * step)


class TestAccelRollPitch:
    def test_level_gravity_only(self):
        assert accel_roll_pitch((0.0, 0.0, -9.81), CFG) == (0.0, 0.0, 1.0)

    def test_thirty_degree_roll_literal_values(self):
        out = accel_roll_pitch((0.0, -4.905, -8.4957), CFG)
        assert out is not None
        assert out[0] == pytest.approx(math.pi / 6.0, abs=1e-4)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degree_pitch_literal_values(self):
        out = accel_roll_pitch((4.905, 0.0, -8.4957), CFG)
        assert out is not None
        assert out[1] == pytest.approx(math.pi / 6.0, abs=1e-4)
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_gate_rejects_low_norm(self):
        # ||a|| = 4.243, far from gravity
        assert accel_roll_pitch((3.0, 0.0, -3.0), CFG) is None

    def test_zero_vector_rejected(self):
        assert accel_roll_pitch((0.0, 0.0, 0.0), CFG) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, bad):
        assert accel_roll_pitch((bad, 0.0, -9.81), CFG) is None

    def test_roll_round_trip(self):
        rng = np.random.default_rng(10)
        for roll in rng.uniform(math.radians(-80.0), math.radians(80.0), 1000):
            out = accel_roll_pitch(specific_force(roll, 0.0), CFG)
            assert out is not None
            assert out[0] == pytest.approx(roll, abs=1e-9)

    def test_pitch_round_trip_at_zero_roll(self):
        # the pitch expression is exact only at zero roll
        rng = np.random.default_rng(11)
        for pitch in rng.uniform(math.radians(-80.0), math.radians(80.0), 1000):
            out = accel_roll_pitch(specific_force(0.0, pitch), CFG)
            assert out is not None
            assert out[1] == pytest.approx(pitch, abs=1e-9)

    def test_gate_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            offset = rng.uniform(-CFG.accel_gate, CFG.accel_gate)
            a = direction * (CFG.gravity + offset)
            assert accel_roll_pitch(a, CFG) is not None
            closer = direction * (CFG.gravity + rng.uniform(0.0, 1.0) * offset)
            assert accel_roll_pitch(closer, CFG) is not None


class TestMagYaw:
    def test_level_field_north(self):
        assert mag_yaw((1.0, 0.0, 0.0), 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_level_field_minus_east_is_quarter_turn(self):
        assert mag_yaw((0.0, -1.0, 0.0), 0.0, 0.0) == pytest.approx(math.pi / 2.0,
                                                                    abs=1e-12)

    def test_level_field_east_wraps_to_three_quarters(self):
        assert mag_yaw((0.0, 1.0, 0.0), 0.0, 0.0) == pytest.approx(
            3.0 * math.pi / 2.0, abs=1e-12)

    def test_zero_field_skipped(self):
        assert mag_yaw((0.0, 0.0, 0.0), 0.1, -0.2) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_skipped(self, bad):
        assert mag_yaw((0.2, bad, 0.4), 0.1, -0.2) is None

    def test_magnitude_invariance(self):
        a = mag_yaw((0.3, -0.1, 0.7), 0.05, -0.1)
        b = mag_yaw((30.0, -10.0, 70.0), 0.05, -0.1)
        assert a == pytest.approx(b, abs=1e-12)

    def test_yaw_round_trip_against_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        m_limit = math.radians(60.0)
        for _ in range(200):
            roll = rng.uniform(-m_limit, m_limit)
            pitch = rng.uniform(-m_limit, m_limit)
            yaw = rng.uniform(0.0, 2.0 * math.pi)
            dec = rng.uniform(-math.pi, math.pi)
            down = rng.uniform(-1.5, 1.5)
            m_b = body_field(roll, pitch, yaw, dec, down)
            measured = mag_yaw(m_b, roll, pitch)
            assert measured is not None
            # headings are referenced to the field's horizontal direction
            assert measured == pytest.approx(wrap_yaw(yaw - dec), abs=1e-6)
            m_n = np.array([math.cos(dec), math.sin(dec), down])
            oracle = brute_force_yaw(roll, pitch, m_b, m_n)
            assert measured == pytest.approx(wrap_yaw(oracle - dec), abs=1e-6)


class TestFastEuler:
    """Accel roll/pitch feeding mag tilt compensation, as the dlkf step
    chains them."""

    def test_full_pass_level(self):
        rp = accel_roll_pitch((0.0, 0.0, -9.81), CFG)
        assert rp == (0.0, 0.0, 1.0)
        yaw = mag_yaw((0.5, 0.0, 0.866), rp[0], rp[1])
        assert yaw == pytest.approx(0.0, abs=1e-12)

    def test_gated_accel_with_fallback_keeps_yaw(self):
        assert accel_roll_pitch((3.0, 0.0, -3.0), CFG) is None
        # the estimate's tilt stands in for the gated accelerometer
        yaw = mag_yaw((0.5, 0.0, 0.866), 0.0, 0.0)
        assert yaw == pytest.approx(0.0, abs=1e-12)
