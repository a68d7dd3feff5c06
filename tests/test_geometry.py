import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ahrskit.geometry import (GIMBAL_LOCK_TOL, EulerAngles, Quaternion, _euler_columns,
                              euler_to_quat, quat_multiply, quat_to_dcm, quat_to_euler,
                              rotvec_to_quat, wrap_pi, wrap_yaw)

SQ2 = math.sqrt(2.0) / 2.0


def rotation_zyx(roll, pitch, yaw):
    """Independent DCM oracle: explicit Rz @ Ry @ Rx product."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def random_attitudes(n, rng, max_pitch=math.radians(85.0)):
    roll = rng.uniform(-math.pi + 1e-6, math.pi, n)
    pitch = rng.uniform(-max_pitch, max_pitch, n)
    yaw = rng.uniform(0.0, 2.0 * math.pi - 1e-9, n)
    return [EulerAngles(r, p, y) for r, p, y in zip(roll, pitch, yaw)]


class TestQuatMultiply:
    def test_identity_element(self):
        q = euler_to_quat(EulerAngles(0.3, -0.2, 1.1))
        out = quat_multiply(Quaternion.identity(), q)
        np.testing.assert_allclose(out, q, atol=1e-15)

    def test_two_quarter_turns_about_z(self):
        half = Quaternion(SQ2, 0.0, 0.0, SQ2)
        out = quat_multiply(half, half)
        np.testing.assert_allclose(out, (0.0, 0.0, 0.0, 1.0), atol=1e-15)

    def test_norm_preserved_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = Quaternion(*rng.normal(size=4)).normalized()
            b = Quaternion(*rng.normal(size=4)).normalized()
            assert abs(quat_multiply(a, b).norm() - 1.0) < 1e-9

    def test_dcm_homomorphism(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = Quaternion(*rng.normal(size=4)).normalized()
            b = Quaternion(*rng.normal(size=4)).normalized()
            np.testing.assert_allclose(quat_to_dcm(quat_multiply(a, b)),
                                       quat_to_dcm(a) @ quat_to_dcm(b), atol=1e-9)


class TestRotvec:
    def test_zero_rotation(self):
        assert rotvec_to_quat((0.0, 0.0, 0.0)) == Quaternion.identity()

    def test_quarter_turn_about_x(self):
        q = rotvec_to_quat((math.pi / 2.0, 0.0, 0.0))
        np.testing.assert_allclose(
            q, (math.cos(math.pi / 4.0), math.sin(math.pi / 4.0), 0.0, 0.0),
            atol=1e-15)

    def test_tiny_rotation_series_limit(self):
        q = rotvec_to_quat((1e-9, 0.0, 0.0))
        assert all(math.isfinite(c) for c in q)
        np.testing.assert_allclose(q, (1.0, 5e-10, 0.0, 0.0), rtol=1e-9, atol=1e-25)

    def test_unit_up_to_rounding(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = rotvec_to_quat(rng.normal(scale=2.0, size=3))
            assert abs(q.norm() - 1.0) < 1e-15

    @pytest.mark.parametrize("rotvec", [(1e200, 0.0, 1e200), (math.inf, 0.0, 0.0),
                                        (math.nan, 0.0, 0.0)])
    def test_non_finite_angle_rejected(self, rotvec):
        with pytest.raises(ValueError, match="rotation angle is not finite"):
            rotvec_to_quat(rotvec)

    def test_opposite_vectors_are_inverse_rotations(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(scale=1.0, size=3)
            prod = quat_multiply(rotvec_to_quat(v), rotvec_to_quat(-v))
            np.testing.assert_allclose(prod, (1.0, 0.0, 0.0, 0.0), atol=1e-9)


class TestEulerConversions:
    def test_identity_quaternion(self):
        assert quat_to_euler(Quaternion.identity()) == (0.0, 0.0, 0.0)

    def test_pure_quarter_yaw(self):
        e = quat_to_euler(Quaternion(SQ2, 0.0, 0.0, SQ2))
        np.testing.assert_allclose(e, (0.0, 0.0, math.pi / 2.0), atol=1e-12)

    def test_euler_to_quat_trivials(self):
        assert euler_to_quat(EulerAngles(0.0, 0.0, 0.0)) == Quaternion.identity()
        np.testing.assert_allclose(euler_to_quat(EulerAngles(0.0, 0.0, math.pi / 2.0)),
                                   (SQ2, 0.0, 0.0, SQ2), atol=1e-12)

    def test_round_trip_euler_quat_euler(self):
        rng = np.random.default_rng(4)
        for e in random_attitudes(1000, rng):
            back = quat_to_euler(euler_to_quat(e))
            np.testing.assert_allclose(back, e, atol=1e-9)

    def test_round_trip_quat_euler_quat(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = Quaternion(*rng.normal(size=4)).normalized()
            if abs(quat_to_euler(q).pitch) > math.radians(85.0):
                continue
            back = euler_to_quat(quat_to_euler(q))
            np.testing.assert_allclose(back, q, atol=1e-9)

    def test_output_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            q = Quaternion(*rng.normal(size=4)).normalized()
            e = quat_to_euler(q)
            assert -math.pi < e.roll <= math.pi
            assert -math.pi / 2.0 <= e.pitch <= math.pi / 2.0
            assert 0.0 <= e.yaw < 2.0 * math.pi

    @pytest.mark.parametrize("q", [(0.0, -1.0, -0.0, 0.0),    # roll's atan2 is -pi
                                   (SQ2, 0.0, 0.0, -SQ2),       # yaw's atan2 is below 0
                                   (1.0, 0.0, 0.0, -1e-17)])    # and wraps to 2 pi
    def test_angles_are_wrapped_at_the_range_edges(self, q):
        w, x, y, z = q
        e = quat_to_euler(Quaternion(*q))
        assert e.roll == wrap_pi(math.atan2(2.0 * (w * x + y * z),
                                            1.0 - 2.0 * (x * x + y * y)))
        assert e.yaw == wrap_yaw(math.atan2(2.0 * (x * y + w * z),
                                            1.0 - 2.0 * (y * y + z * z)))
        assert -math.pi < e.roll <= math.pi and 0.0 <= e.yaw < 2.0 * math.pi

    def test_nan_quaternion_rejected(self):
        with pytest.raises(ValueError, match="yaw must be finite"):
            quat_to_euler(Quaternion(math.nan, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("pitch_sign", [1.0, -1.0])
    def test_gimbal_lock_convention(self, pitch_sign):
        # roll collapses to zero at the pole; the rotation itself survives
        e = EulerAngles(0.4, pitch_sign * math.pi / 2.0, 1.2)
        q = euler_to_quat(e)
        out = quat_to_euler(q)
        assert out.roll == 0.0
        assert out.pitch == pytest.approx(pitch_sign * math.pi / 2.0, abs=1e-9)
        np.testing.assert_allclose(quat_to_dcm(euler_to_quat(out)),
                                   quat_to_dcm(q), atol=1e-9)


def normalised(v):
    n = math.sqrt(sum(c * c for c in v))
    return tuple(c / n for c in v)


HALF_PI = 0.5 * math.pi
any_unit = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda v: sum(c * c for c in v) > 1e-6).map(normalised)
# pitches inside, at and just outside the gimbal-lock tolerance
near_gimbal_lock = st.builds(
    lambda roll, sign, gap, yaw: tuple(euler_to_quat(
        EulerAngles(roll, sign * (HALF_PI - gap), yaw))),
    st.floats(-3.1, 3.1), st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.0, 1e-7, 0.9 * GIMBAL_LOCK_TOL, GIMBAL_LOCK_TOL,
                     1.1 * GIMBAL_LOCK_TOL, 1e-5]), st.floats(0.0, 6.28))
# one component +-1 and three signed zeros: roll's atan2(-0.0, -1.0) is -pi
signed_axes = st.tuples(st.sampled_from([1.0, -1.0]), *[st.sampled_from([0.0, -0.0])] * 3,
                        ).flatmap(st.permutations).map(tuple)
# yaw's atan2 is a tiny negative angle, and adding 2 pi rounds to 2 pi
tiny_negative_yaw = st.builds(lambda x, y, z: (1.0, x, y, z), st.sampled_from([0.0, -0.0]),
                              st.sampled_from([0.0, -0.0]), st.floats(-1e-16, -5e-324))


@st.composite
def quaternion_columns(draw):
    """Four (N,) columns of unit quaternions, one row now and then NaN."""
    rows = draw(st.lists(st.one_of(any_unit, any_unit, near_gimbal_lock, signed_axes,
                                   tiny_negative_yaw), min_size=1, max_size=40))
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = (0.5, math.nan, 0.5, 0.5)
    return np.array(rows).T.copy()


@settings(deadline=None, max_examples=300)
@given(quaternion_columns())
@example(np.array([[1.0, 0.0, 0.0, -1e-17], [0.0, -1.0, -0.0, 0.0],
                   [-0.0, 0.0, -0.0, 1.0], [SQ2, 0.0, SQ2, 0.0]]).T.copy())
@example(np.array([[1.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0]]).T.copy())
# not finite, and no error: roll 3 pi / 4, pitch NaN, yaw pi / 2
@example(np.array([[0.5, math.inf, 0.5, 0.0]]).T.copy())
def test_euler_columns_match_quat_to_euler_bit_for_bit(columns):
    rows = columns.T.tolist()
    try:
        expected = np.array([quat_to_euler(Quaternion(*q)) for q in rows])
    except ValueError as exc:
        event("error")
        with pytest.raises(ValueError) as raised:
            _euler_columns(*columns)
        assert str(raised.value) == str(exc)
        return
    locked = HALF_PI - np.abs(expected[:, 1]) < GIMBAL_LOCK_TOL
    event(f"gimbal lock: {bool(locked.any())}")
    event(f"yaw 2 pi -> 0: {bool(((expected[:, 2] == 0.0) & (columns[3] < 0.0)).any())}")
    assert np.column_stack(_euler_columns(*columns)).tobytes() == expected.tobytes()


class TestDcm:
    def test_identity(self):
        np.testing.assert_allclose(quat_to_dcm(Quaternion.identity()), np.eye(3),
                                   atol=1e-15)

    def test_quarter_yaw_maps_body_x_to_north_east(self):
        c = quat_to_dcm(euler_to_quat(EulerAngles(0.0, 0.0, math.pi / 2.0)))
        np.testing.assert_allclose(c @ np.array([1.0, 0.0, 0.0]),
                                   np.array([0.0, 1.0, 0.0]), atol=1e-12)

    def test_matches_euler_rotation_composition(self):
        rng = np.random.default_rng(7)
        for e in random_attitudes(200, rng):
            np.testing.assert_allclose(quat_to_dcm(euler_to_quat(e)),
                                       rotation_zyx(*e), atol=1e-12)

    def test_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            c = quat_to_dcm(Quaternion(*rng.normal(size=4)).normalized())
            np.testing.assert_allclose(c @ c.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-9)


class TestWrap:
    @pytest.mark.parametrize("psi, expected", [
        (-math.pi / 2.0, 3.0 * math.pi / 2.0),
        (0.0, 0.0),
        (7.0, 7.0 - 2.0 * math.pi),
        (2.0 * math.pi, 0.0),
        (-1e-18, 0.0),
    ])
    def test_wrap_yaw(self, psi, expected):
        out = wrap_yaw(psi)
        assert 0.0 <= out < 2.0 * math.pi
        assert out == pytest.approx(expected, abs=1e-12)

    def test_wrap_yaw_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wrap_yaw(math.nan)

    @pytest.mark.parametrize("angle, expected", [
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3.0 * math.pi / 2.0, -math.pi / 2.0),
        (math.radians(-358.0), math.radians(2.0)),
    ])
    def test_wrap_pi(self, angle, expected):
        out = wrap_pi(angle)
        assert -math.pi < out <= math.pi
        assert out == pytest.approx(expected, abs=1e-12)

    def test_normalized_canonical_sign(self):
        q = Quaternion(-0.5, 0.5, 0.5, 0.5).normalized()
        assert q.w >= 0.0
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0).normalized()
