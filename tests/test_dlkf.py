import copy
import math
import pickle
import re
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ahrskit.benchmark import static_records
from ahrskit.dlkf import (_COLS, _ROWS, _UNPACK, _ZERO_X, FilterState, NoiseConfig,
                          _packed, accel_update, mag_update)
from ahrskit.fasteuler import accel_roll_pitch
from ahrskit.geometry import (Quaternion, _dcm_entries, euler_to_quat, EulerAngles,
                              quat_to_euler, wrap_pi, wrap_yaw)
from ahrskit.pipeline import PipelineConfig, run_pipeline

# The filter's time update and feedback correction as functions of a
# FilterState: the reference writings that `tests/test_dlkf_epoch.py`
# composes into an epoch and pins `pipeline._dlkf_step` to, bit for bit.
# `_dlkf_step`'s comment derives the time update.


def time_update(fs, q, dt, cfg):
    """`fs` propagated one step of dt seconds at attitude `q`."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    c20, c21, c22 = _dcm_entries(*q)[6:]
    sin_pitch = -c20
    cos_pitch = math.hypot(c21, c22)
    if cos_pitch < 1e-6:
        cos_pitch = 1e-6
    sin_roll = c21 / cos_pitch
    cos_roll = c22 / cos_pitch
    tan_pitch = sin_pitch / cos_pitch
    # G's first column is (-dt, 0, 0)
    g00, g01, g02 = -dt, -sin_roll * tan_pitch * dt, -cos_roll * tan_pitch * dt
    g11, g12 = -cos_roll * dt, sin_roll * dt
    g21, g22 = -sin_roll / cos_pitch * dt, -cos_roll / cos_pitch * dt
    d = 1.0 - dt / cfg.tau_g

    x0, x1, x2, x3, x4, x5 = fs._x
    (a00, a01, a02, b00, b01, b02, a11, a12, b10, b11, b12,
     a22, b20, b21, b22, c00, c01, c02, c11, c12, c22) = fs._p
    m00 = b00 + g00 * c00 + g01 * c01 + g02 * c02
    m01 = b01 + g00 * c01 + g01 * c11 + g02 * c12
    m02 = b02 + g00 * c02 + g01 * c12 + g02 * c22
    m10 = b10 + g11 * c01 + g12 * c02
    m11 = b11 + g11 * c11 + g12 * c12
    m12 = b12 + g11 * c12 + g12 * c22
    m20 = b20 + g21 * c01 + g22 * c02
    m21 = b21 + g21 * c11 + g22 * c12
    m22 = b22 + g21 * c12 + g22 * c22
    x = (x0 + g00 * x3 + g01 * x4 + g02 * x5, x1 + g11 * x4 + g12 * x5,
         x2 + g21 * x4 + g22 * x5, d * x3, d * x4, d * x5)
    q0, q1, q2, q3, q4, q5 = cfg.Q
    p = (a00 + g00 * b00 + g01 * b01 + g02 * b02 + m00 * g00 + m01 * g01 + m02 * g02
         + q0,
         a01 + g00 * b10 + g01 * b11 + g02 * b12 + m01 * g11 + m02 * g12,
         a02 + g00 * b20 + g01 * b21 + g02 * b22 + m01 * g21 + m02 * g22,
         d * m00, d * m01, d * m02,
         a11 + g11 * b11 + g12 * b12 + m11 * g11 + m12 * g12 + q1,
         a12 + g11 * b21 + g12 * b22 + m11 * g21 + m12 * g22,
         d * m10, d * m11, d * m12,
         a22 + g21 * b21 + g22 * b22 + m21 * g21 + m22 * g22 + q2,
         d * m20, d * m21, d * m22,
         d * c00 * d + q3, d * c01 * d, d * c02 * d,
         d * c11 * d + q4, d * c12 * d, d * c22 * d + q5)
    # a non-finite input leaves a non-finite output; only then look at
    # the inputs, as an overflow is no error of theirs
    if not math.isfinite(sum(p, sum(x))) and not all(
            map(math.isfinite, (*fs._x, *fs._p, *q, dt))):
        raise ValueError("time_update inputs must be finite")
    return _packed(x, p)


def apply_correction(q, bias, fs, est):
    """The error state of `fs` fed back and reset: (q, bias, fs) after.

    `est` are the Euler angles of `q`. The attitude errors add to them
    (the measurements are Euler-angle differences, so this is the
    consistent feedback), the bias errors to the bias accumulator, and
    the covariance is kept.
    """
    dx = fs._x
    if not any(dx):
        return q, bias, fs
    q = euler_to_quat((wrap_pi(est.roll + dx[0]), est.pitch + dx[1],
                       wrap_yaw(est.yaw + dx[2])))
    bx, by, bz = bias
    return q, (bx + dx[3], by + dx[4], bz + dx[5]), _packed(_ZERO_X, fs._p)


def random_pd(rng, n=6, floor=0.1):
    a = rng.normal(size=(n, n))
    return a @ a.T + floor * np.eye(n)


def joint_update(x, P, z, R):
    """Oracle: one Kalman update with the stacked 3-row angle observation."""
    H = np.hstack([np.eye(3), np.zeros((3, 3))])
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    x_new = x + K @ (z - H @ x)
    ikh = np.eye(6) - K @ H
    P_new = ikh @ P @ ikh.T + K @ R @ K.T
    return x_new, 0.5 * (P_new + P_new.T)


def assert_valid_covariance(P):
    np.testing.assert_allclose(P, P.T, atol=1e-10)
    assert np.linalg.eigvalsh(P).min() >= -1e-10


class TestFilterState:
    @settings(deadline=None)
    @given(arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0)),
           st.floats(-12.0, 2.0), arrays(np.float64, 6, elements=st.floats(-1e3, 1e3)))
    def test_round_trips_bit_for_bit(self, a, exponent, x):
        P = (a @ a.T + 0.01 * np.eye(6)) * 10.0 ** exponent
        P = np.triu(P) + np.triu(P, 1).T  # symmetric to the last bit
        fs = FilterState(x, P)
        for got, want in ((fs.x, x), (fs.P, P)):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        fs.P[0, 0] = fs.x[0] = 99.0  # each read is a new array
        assert fs.P.tobytes() == P.tobytes() and fs.x.tobytes() == x.tobytes()

    def test_stores_the_symmetric_part(self):
        P = np.eye(6)
        P[0, 1], P[1, 0] = 1.0, 0.5
        out = FilterState(np.zeros(6), P).P
        assert out[0, 1] == out[1, 0] == 0.75

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError, match="6x6"):
            FilterState(np.zeros(6), np.eye(5))
        with pytest.raises(ValueError, match="6-vector"):
            FilterState(np.zeros(3), np.eye(6))

    def test_initial_is_one_degree_squared_identity(self):
        fs = FilterState.initial()
        np.testing.assert_array_equal(fs.x, np.zeros(6))
        np.testing.assert_array_equal(fs.P, np.eye(6) * (math.pi / 180.0) ** 2)


class TestTimeUpdate:
    def test_zero_state_is_fixed_point(self):
        fs = FilterState(np.zeros(6), np.eye(6))
        out = time_update(fs, Quaternion.identity(), 0.004, NoiseConfig())
        np.testing.assert_allclose(out.x, np.zeros(6), atol=0.0)

    def test_covariance_blocks_hand_computed(self):
        # P = I, Q = 0, level attitude, dt = 0.004, tau = 100:
        # top-left (1 + dt^2) I, bottom-right (1 - dt/tau)^2 I
        cfg = NoiseConfig(Q=(0.0,) * 6, tau_g=100.0)
        fs = FilterState(np.zeros(6), np.eye(6))
        out = time_update(fs, Quaternion.identity(), 0.004, cfg)
        np.testing.assert_allclose(np.diag(out.P)[:3], 1.000016 * np.ones(3),
                                   rtol=1e-12)
        np.testing.assert_allclose(np.diag(out.P)[3:], (1.0 - 4e-5) ** 2 * np.ones(3),
                                   rtol=1e-12)
        assert_valid_covariance(out.P)

    def test_bias_leaks_into_attitude_error(self):
        b = 0.02
        fs = FilterState(np.array([0.0, 0.0, 0.0, b, 0.0, 0.0]), np.eye(6))
        out = time_update(fs, Quaternion.identity(), 0.004, NoiseConfig())
        assert out.x[0] == pytest.approx(-b * 0.004, rel=1e-12)

    def test_transition_reduces_to_identity_coupling_when_level(self):
        # column k of the transition is the propagated unit state e_k
        cfg = NoiseConfig(Q=(0.0,) * 6, tau_g=50.0)
        trans = np.column_stack([
            time_update(FilterState(e, np.zeros((6, 6))), Quaternion.identity(),
                        0.01, cfg).x
            for e in np.eye(6)])
        np.testing.assert_allclose(trans[0:3, 3:6], -0.01 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(trans[3:6, 3:6], (1.0 - 0.01 / 50.0) * np.eye(3),
                                   atol=1e-15)
        assert np.all(trans[3:6, 0:3] == 0.0)

    def test_rejects_bad_inputs(self):
        fs = FilterState.initial()
        with pytest.raises(ValueError):
            time_update(fs, Quaternion.identity(), 0.0, NoiseConfig())
        with pytest.raises(ValueError):
            time_update(fs, Quaternion(*[np.nan] * 4), 0.01, NoiseConfig())


def adaptive_factor(accel, cfg):
    """Oracle: gamma^2 as the former dlkf.adaptive_factor computed it."""
    ax, ay, az = float(accel[0]), float(accel[1]), float(accel[2])
    gamma2 = cfg.lambda_a * abs(math.sqrt(ax * ax + ay * ay + az * az) - cfg.gravity)
    return max(1.0, min(cfg.gamma2_max, gamma2))


def gate_passes(accel, cfg):
    """Oracle: the norm gate as accel_roll_pitch applied it before it
    returned gamma^2 too."""
    ax, ay, az = float(accel[0]), float(accel[1]), float(accel[2])
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    return norm != 0.0 and abs(norm - cfg.gravity) <= cfg.accel_gate


components = st.one_of(st.floats(-25.0, 25.0),
                       st.sampled_from([0.0, math.nan, math.inf, -math.inf]))


class TestAdaptiveRa:
    """gamma^2, the accel-layer noise factor that accel_roll_pitch returns
    with every gate-passing sample. Offsets beyond the default 0.5 m/s^2
    gate need a wider gate to reach the factor at all."""

    def test_hover_returns_nominal(self):
        cfg = NoiseConfig(Ra_nominal=(0.5, 5.0), gravity=9.81)
        out = accel_roll_pitch((0.0, 0.0, -9.81), cfg)[2] * np.array(cfg.Ra_nominal)
        np.testing.assert_allclose(out, [0.5, 5.0], rtol=1e-12)

    def test_two_ms2_offset_with_weight_five(self):
        cfg = NoiseConfig(Ra_nominal=(0.5, 5.0), lambda_a=5.0, gravity=9.81,
                          accel_gate=2.5)
        out = accel_roll_pitch((0.0, 0.0, -11.81), cfg)[2] * np.array(cfg.Ra_nominal)
        np.testing.assert_allclose(out, [5.0, 50.0], rtol=1e-12)

    def test_monotone_in_norm_offset(self):
        cfg = NoiseConfig(accel_gate=30.0)
        offsets = np.linspace(0.0, 25.0, 60)
        factors = [accel_roll_pitch((0.0, 0.0, -(9.81 + d)), cfg)[2] for d in offsets]
        assert all(b >= a for a, b in zip(factors, factors[1:]))

    def test_clamped_to_ceiling_and_floor(self):
        cfg = NoiseConfig(lambda_a=5.0, gamma2_max=100.0, accel_gate=1e3)
        assert accel_roll_pitch((0.0, 0.0, -9.81), cfg)[2] == 1.0
        assert accel_roll_pitch((0.0, 0.0, -1000.0), cfg)[2] == 100.0

    def test_gate_and_factor_share_gravity(self):
        # one g centres both the norm gate and gamma^2; gate and weight
        # are set so that either one centred on 9.81 would reject or
        # de-weight a 9.78 sample
        cfg = NoiseConfig(gravity=9.78, accel_gate=0.02, lambda_a=50.0)
        assert accel_roll_pitch((0.0, 0.0, -9.78), cfg) == (0.0, 0.0, 1.0)
        assert accel_roll_pitch((0.0, 0.0, -9.81), cfg) is None
        wider = replace(cfg, accel_gate=0.05)
        assert accel_roll_pitch((0.0, 0.0, -9.81), wider)[2] > 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(components, components, components), st.floats(1.0, 20.0),
           st.floats(0.01, 20.0), st.floats(0.0, 100.0), st.floats(1.0, 1e3))
    def test_matches_former_gate_and_factor(self, accel, gravity, gate, lambda_a,
                                            gamma2_max):
        cfg = NoiseConfig(gravity=gravity, accel_gate=gate, lambda_a=lambda_a,
                          gamma2_max=gamma2_max)
        out = accel_roll_pitch(accel, cfg)
        assert (out is None) == (not gate_passes(accel, cfg))
        if out is not None:
            ax, ay, az = accel
            assert out == (math.atan2(-ay, -az), math.atan2(ax, -az),
                           adaptive_factor(accel, cfg))


class TestAccelUpdate:
    def test_zero_innovation_leaves_state(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=6)
        fs = FilterState(x, random_pd(rng))
        out = accel_update(fs, x[:2], (0.5, 5.0))
        np.testing.assert_allclose(out.x, x, atol=1e-12)
        assert np.all(np.diag(out.P)[:2] <= np.diag(fs.P)[:2] + 1e-12)

    def test_scalar_gain_with_nominal_noise(self):
        fs = FilterState(np.zeros(6), np.eye(6))
        out = accel_update(fs, (1.0, 0.0), (0.5, 5.0))
        assert out.x[0] == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert out.x[1] == pytest.approx(0.0, abs=1e-15)

    def test_measured_variances_never_increase(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            fs = FilterState(rng.normal(size=6), random_pd(rng))
            out = accel_update(fs, rng.normal(size=2), (0.3, 2.0))
            assert np.all(np.diag(out.P)[:3] <= np.diag(fs.P)[:3] + 1e-12)
            assert_valid_covariance(out.P)

    def test_rejects_non_pd_noise(self):
        fs = FilterState.initial()
        with pytest.raises(ValueError):
            accel_update(fs, (0.0, 0.0), (0.0, -1.0))

    def test_rejects_noise_that_is_not_two_variances(self):
        # the former 2x2 form, diagonal or not, is never read
        for ra in (np.diag([0.5, 5.0]), ((0.5, 0.0), (0.0, 5.0)),
                   [[0.5, 0.0], [0.0, 5.0]], np.eye(3), np.ones(3), (0.5,),
                   (0.5, 5.0, 1.0), 1.0, ("0.5", "5.0"), None,
                   # a one-element array compares like a number, but is none
                   np.ones((2, 1)), (np.array([0.5]), 5.0), (0.5, np.array([5.0]))):
            with pytest.raises(ValueError, match="^ra must be two finite variances > 0"):
                accel_update(FilterState.initial(), (0.0, 0.0), ra)

    def test_noise_as_array_or_nested_tuple_gives_one_update(self):
        # an array, list or tuple of the two variances: one update
        rng = np.random.default_rng(36)
        fs = FilterState(rng.normal(size=6), random_pd(rng))
        ref = accel_update(fs, (0.01, -0.02), (0.3, 2.0))
        for ra in (np.array([0.3, 2.0]), [0.3, 2.0]):
            out = accel_update(fs, (0.01, -0.02), ra)
            np.testing.assert_array_equal(out.x, ref.x)
            np.testing.assert_array_equal(out.P, ref.P)

    @pytest.mark.parametrize("z1", [("0.1", 0.0), (0.0, "0.1"), (b"0.1", 0.0),
                                    (None, 0.0), (0.0, np.array(0.1))],
                             ids=["str roll", "str pitch", "bytes", "None", "0-d array"])
    def test_rejects_innovation_that_is_not_a_real_number(self, z1):
        # float() would parse the string and make a real update of it
        with pytest.raises(ValueError, match="^innovation must be a real number"):
            accel_update(FilterState.initial(), z1, (0.5, 5.0))

    def test_rejects_singular_innovation_covariance(self):
        # a covariance that is not PSD can cancel Ra exactly
        ra = (0.5, 5.0)
        P = np.eye(6)
        P[:2, :2] = -np.diag(ra)
        with pytest.raises(ValueError, match="innovation variance must be > 0"):
            accel_update(FilterState(np.zeros(6), P), (0.0, 0.0), ra)

    @pytest.mark.parametrize("index", [0, 1])
    def test_innovation_wraps_across_180_degrees(self, index):
        # a difference of 2 pi - 0.02 is the angle -0.02 seen from the
        # other side of +-180 deg, so the update must be the same
        rng = np.random.default_rng(37)
        fs = FilterState(rng.normal(scale=0.01, size=6), random_pd(rng))
        z, wrapped = [0.01, -0.01], [0.01, -0.01]
        z[index], wrapped[index] = 2.0 * math.pi - 0.02, -0.02
        out, ref = accel_update(fs, z, (0.3, 2.0)), accel_update(fs, wrapped, (0.3, 2.0))
        np.testing.assert_allclose(out.x, ref.x, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(out.P, ref.P)

    def test_rejects_zero_roll_innovation_variance(self):
        # S = [[0, 1], [1, 6]] is regular, but the roll update divides by
        # s00 = 0; only a P that is not PSD does this
        ra = (0.5, 5.0)
        P = np.eye(6)
        P[0, 0] = -0.5
        P[0, 1] = P[1, 0] = 1.0
        with pytest.raises(ValueError, match="innovation variance must be > 0"):
            accel_update(FilterState(np.zeros(6), P), (0.0, 0.0), ra)

    @pytest.mark.parametrize("index", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("value", [1e-300, -0.1, math.nan])
    def test_rejects_noise_that_is_not_diagonal(self, index, value):
        # sequential scalar updates equal the joint update only for
        # uncorrelated roll and pitch noise: two variances, never a matrix
        Ra = np.diag([0.5, 5.0])
        Ra[index] = value
        for ra in (Ra, tuple(map(tuple, Ra.tolist()))):
            with pytest.raises(ValueError, match="^ra must be two finite variances"):
                accel_update(FilterState.initial(), (0.0, 0.0), ra)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, math.inf,
                                          np.array([0.5]), np.array([-1.0])])
    def test_rejects_variance_that_is_not_finite_and_positive(self, index, variance):
        ra = [0.5, 5.0]
        ra[index] = variance
        with pytest.raises(ValueError, match="^ra must be two finite variances > 0"):
            accel_update(FilterState.initial(), (0.0, 0.0), ra)

    def test_gain_sanity_under_inflated_noise(self):
        # de-weighted measurements never move the state more
        rng = np.random.default_rng(32)
        cfg = NoiseConfig()
        for _ in range(50):
            fs = FilterState(rng.normal(scale=0.01, size=6), random_pd(rng, floor=0.01))
            z = rng.normal(scale=0.1, size=2)
            dx_nom = accel_update(fs, z, cfg.Ra_nominal).x - fs.x
            inflated = tuple([cfg.gamma2_max * r for r in cfg.Ra_nominal])
            dx_inflated = accel_update(fs, z, inflated).x - fs.x
            assert np.linalg.norm(dx_inflated) <= np.linalg.norm(dx_nom) + 1e-15


class TestMagUpdate:
    def test_zero_innovation_leaves_state(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=6)
        fs = FilterState(x, random_pd(rng))
        out = mag_update(fs, x[2], 5.0)
        np.testing.assert_allclose(out.x, x, atol=1e-12)

    def test_scalar_gain(self):
        fs = FilterState(np.zeros(6), np.eye(6))
        out = mag_update(fs, 1.0, 5.0)
        assert out.x[2] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_innovation_wraps_across_north(self):
        # estimate 359 deg, measurement 1 deg: the residual is +2 deg
        fs = FilterState(np.zeros(6), np.eye(6))
        z2 = math.radians(1.0) - math.radians(359.0)
        out = mag_update(fs, z2, 5.0)
        assert out.x[2] == pytest.approx(math.radians(2.0) / 6.0, rel=1e-9)

    def test_rejects_non_positive_noise(self):
        with pytest.raises(ValueError):
            mag_update(FilterState.initial(), 0.0, 0.0)

    def test_rejects_infinite_noise(self):
        # an infinite Rm would make the gain zero and skip the update
        with pytest.raises(ValueError, match="finite and > 0"):
            mag_update(FilterState.initial(), 0.0, math.inf)

    @pytest.mark.parametrize("Rm", [np.array([5e-3]), np.ones(2), "5e-3", None])
    def test_rejects_noise_that_is_not_a_real_number(self, Rm):
        with pytest.raises(ValueError, match="^Rm must be finite and > 0"):
            mag_update(FilterState.initial(), 0.0, Rm)

    @pytest.mark.parametrize("z2", ["0.1", b"0.1", None, np.array(0.1)],
                             ids=["str", "bytes", "None", "0-d array"])
    def test_rejects_innovation_that_is_not_a_real_number(self, z2):
        with pytest.raises(ValueError, match="^innovation must be a real number"):
            mag_update(FilterState.initial(), z2, 1.0)

    def test_rejects_zero_innovation_variance(self):
        # p22 + Rm == 0, which only a P that is not PSD reaches, is a
        # ValueError like every other bad input, not a ZeroDivisionError
        P = np.eye(6)
        P[2, 2] = -5.0
        with pytest.raises(ValueError, match="innovation variance must be > 0"):
            mag_update(FilterState(np.zeros(6), P), 0.0, 5.0)


class TestSequentialEquivalence:
    def test_two_layers_match_joint_update(self):
        rng = np.random.default_rng(34)
        for _ in range(300):
            x = rng.normal(scale=0.1, size=6)
            P = random_pd(rng)
            z = rng.normal(scale=0.3, size=3)
            ra = rng.uniform(0.1, 5.0, 2)
            rm = rng.uniform(0.1, 5.0)
            step1 = accel_update(FilterState(x, P), z[:2], ra)
            step2 = mag_update(step1, z[2], rm)
            R = np.zeros((3, 3))
            R[:2, :2] = np.diag(ra)
            R[2, 2] = rm
            x_ref, p_ref = joint_update(x, P, z, R)
            np.testing.assert_allclose(step2.x, x_ref, atol=1e-9)
            np.testing.assert_allclose(step2.P, p_ref, atol=1e-9)


class TestApplyCorrection:
    def test_zero_state_is_noop(self):
        q, bias = Quaternion.identity(), (0.0, 0.0, 0.0)
        fs = FilterState(np.zeros(6), np.eye(6))
        out = apply_correction(q, bias, fs, quat_to_euler(q))
        assert out[0] is q and out[1] is bias and out[2] is fs

    def test_small_roll_correction(self):
        q = Quaternion.identity()
        fs = FilterState(np.array([0.01, 0.0, 0.0, 0.0, 0.0, 0.0]), np.eye(6))
        out_q, _, out_fs = apply_correction(q, (0.0, 0.0, 0.0), fs, quat_to_euler(q))
        e = quat_to_euler(out_q)
        assert e.roll == pytest.approx(0.01, abs=1e-6)
        assert e.pitch == pytest.approx(0.0, abs=1e-9)
        assert e.yaw == pytest.approx(0.0, abs=1e-9)
        assert np.all(out_fs.x == 0.0)
        np.testing.assert_array_equal(out_fs.P, fs.P)

    def test_correction_adds_to_euler_angles_at_any_attitude(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            e0 = EulerAngles(rng.uniform(-1.0, 1.0), rng.uniform(-0.9, 0.9),
                             rng.uniform(0.5, 5.5))
            delta = rng.normal(scale=0.02, size=3)
            q = euler_to_quat(e0)
            fs = FilterState(np.r_[delta, np.zeros(3)], np.eye(6))
            out_q, _, _ = apply_correction(q, (0.0, 0.0, 0.0), fs, quat_to_euler(q))
            e1 = quat_to_euler(out_q)
            assert wrap_pi(e1.roll - e0.roll) == pytest.approx(delta[0], abs=1e-9)
            assert e1.pitch - e0.pitch == pytest.approx(delta[1], abs=1e-9)
            assert wrap_pi(e1.yaw - e0.yaw) == pytest.approx(delta[2], abs=1e-9)

    def test_bias_feedback_accumulates(self):
        q = Quaternion.identity()
        fs = FilterState(np.array([0.0, 0.0, 0.0, 1e-3, 0.0, 0.0]), np.eye(6))
        out_q, out_bias, _ = apply_correction(q, (0.001, 0.0, 0.0), fs, quat_to_euler(q))
        assert out_bias[0] == pytest.approx(0.002, rel=1e-12)
        assert out_q == q


class TestNoiseConfig:
    def test_defaults_are_degree_denominated(self):
        cfg = NoiseConfig()
        d2r2 = (math.pi / 180.0) ** 2
        np.testing.assert_allclose(cfg.Ra_nominal, [0.5 * d2r2, 5.0 * d2r2])
        assert cfg.Rm == pytest.approx(5.0 * d2r2)
        np.testing.assert_allclose(cfg.Q[:3], 0.1e-4 * d2r2)
        np.testing.assert_allclose(cfg.Q[3:], 0.01e-4 * d2r2)

    def test_q_is_a_read_only_copy(self):
        # the variances are tuples of Python floats, whatever they came in
        Q = [1.0, 1.0, 1, 0, 0.0, np.float64(0.5)]
        cfg = NoiseConfig(Q=Q, Ra_nominal=np.array([0.5, 5.0]))
        Q[0] = 2.0
        for values in (cfg.Q, cfg.Ra_nominal):
            assert type(values) is tuple and {type(v) for v in values} == {float}
        assert cfg.Q == (1.0, 1.0, 1.0, 0.0, 0.0, 0.5)
        with pytest.raises(TypeError):
            cfg.Q[0] = 2.0
        for other in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert other == cfg and hash(other) == hash(cfg)

    @pytest.mark.parametrize("kwargs", [
        dict(Rm=0.0),
        dict(tau_g=-1.0),
        dict(lambda_a=-0.1),
        dict(gamma2_max=0.5),
        dict(Ra_nominal=np.diag([1.0, 0.0])),
        dict(Q=-np.eye(6)),
        dict(gravity=-1.0),
        dict(accel_gate=0.0),
        # the former matrix forms are never read, even positive semi-definite
        dict(Q=np.eye(6)),
        dict(Q=np.zeros((6, 6))),
        dict(Q=tuple(map(tuple, np.eye(6).tolist()))),
        dict(Q=np.diag([1e-9] * 6)[:, :1]),
        dict(Q=(1e-9,) * 5),
        dict(Q=(1e-9,) * 7),
        dict(Q=1e-9),
        dict(Q=("1e-9",) * 6),
        *[dict(Q=tuple(bad if i == k else 1e-9 for k in range(6)))
          for i in range(6) for bad in (-1e-12, math.nan, math.inf)],
        # not real numbers; a one-element array compares like one
        dict(Rm=np.array([5e-3])),
        dict(tau_g=np.array([100.0])),
        dict(gravity="9.81"),
    ])
    def test_validation(self, kwargs):
        (name, _), = kwargs.items()
        form = {"Q": "six finite variances >= 0, got ",
                "Ra_nominal": "two finite variances > 0, got "}.get(name, "")
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(form)}"):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize("Ra", [
        (-1.0, 5.0),
        (math.nan, 5.0),
        (0.5, math.inf),
        # a matrix, diagonal or not, is never read
        np.array([[0.5, 0.1], [0.1, 5.0]]),
        np.diag([0.5, 5.0]),
        ((0.5, 0.0), (0.0, 5.0)),
        np.eye(3),
        (0.0, 5.0),
        (0.5, 0.0),
        (0.5, -1.0),
        (math.inf, 5.0),
        (0.5, math.nan),
        (0.5,),
        (0.5, 5.0, 1.0),
        0.5,
    ])
    def test_ra_nominal_is_diagonal_with_finite_positive_variances(self, Ra):
        with pytest.raises(ValueError, match="^Ra_nominal must be two finite "
                                             "variances > 0"):
            NoiseConfig(Ra_nominal=Ra)


# The measurement layers as they were written before being spelled out
# over named floats: loops over the packed entries, with the same
# operations in the same order, so the written-out layers must match them
# bit for bit.
_columns = [itemgetter(*_UNPACK[k].tolist()) for k in range(3)]


def loop_observe(fs, i, z, r):
    x, p = fs._x, fs._p
    innov = wrap_pi(float(z) - x[i])
    h = _columns[i](p)
    s = h[i] + r
    gain = [hi / s for hi in h]
    x = tuple([xi + ki * innov for xi, ki in zip(x, gain)])
    p = tuple([pjk - gain[j] * h[k] for pjk, j, k in zip(p, _ROWS, _COLS)])
    return _packed(x, p)


def loop_accel_update(fs, z1, ra):
    r0, r1 = ra
    return loop_observe(loop_observe(fs, 0, z1[0], r0), 1, z1[1], r1)


def loop_mag_update(fs, z2, Rm):
    return loop_observe(fs, 2, z2, Rm)


def assert_same_state(out, ref):
    np.testing.assert_array_equal(out.x, ref.x)
    np.testing.assert_array_equal(out.P, ref.P)


factors = arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0))
nonzero = st.one_of(st.floats(-0.1, -1e-9), st.floats(1e-9, 0.1))


@settings(deadline=None)
@given(arrays(np.float64, 6, elements=nonzero), factors, st.floats(-8.0, -2.0),
       st.floats(1.0, 100.0), st.floats(0.1, 10.0), st.tuples(*[st.floats(-0.5, 0.5)] * 3))
def test_layers_match_loop_forms_bit_for_bit(x, a, exponent, gamma2, rm_factor, z):
    # random SPD P, so that every entry of P differs from the others and
    # a swapped index changes the result
    fs = FilterState(x, (a @ a.T + 0.01 * np.eye(6)) * 10.0 ** exponent)
    cfg = NoiseConfig()
    ra = tuple([gamma2 * r for r in cfg.Ra_nominal])
    rm = rm_factor * cfg.Rm
    assert_same_state(accel_update(fs, z[:2], ra), loop_accel_update(fs, z[:2], ra))
    assert_same_state(mag_update(fs, z[2], rm), loop_mag_update(fs, z[2], rm))


def test_closed_loop_bias_observability():
    """Noiseless static data with a constant injected bias: the closed
    loop recovers the bias through the error-state feedback alone (no
    alignment seeding), within 5% inside 30 s at 250/10 Hz."""
    bias = np.array([0.02, -0.01, 0.015])
    records = static_records(duration=30.0, gyro_bias=tuple(bias), noisy=False,
                             seed=0)
    estimates = run_pipeline(records, PipelineConfig(noise=NoiseConfig(),
                                                     align_duration_s=0.0))
    np.testing.assert_allclose(estimates.gyro_bias[-1], bias, rtol=0.05)
