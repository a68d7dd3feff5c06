"""Attitude math: quaternions, Euler angles and direction cosine matrices.

Conventions used everywhere in this library:

* Navigation frame is NED (north, east, down), body frame is FRD
  (front, right, down).
* Quaternions are scalar-first ``(w, x, y, z)`` and carry the body-to-
  navigation rotation, so ``v_n = quat_to_dcm(q) @ v_b``.
* Euler angles use the aerospace Z-Y-X sequence (yaw about Z, then pitch
  about Y, then roll about X). Roll lies in (-pi, pi], pitch in
  [-pi/2, pi/2], yaw in [0, 2*pi).
* Vectors are anything indexable of length 3: the estimators read sensor
  samples as Python floats from the rows of a `SensorLog`; the gyro bias
  is a tuple of three floats from alignment through every estimate.

All operations are pure functions on immutable values and are safe to
share between threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this rotation angle the sin(x/2)/x factor switches to its series
# expansion to avoid 0/0.
SMALL_ROTATION = 1e-6

# |pitch| closer than this to pi/2 is treated as gimbal lock.
GIMBAL_LOCK_TOL = 1e-6

# _new(cls, values) builds a NamedTuple without its Python-level __new__:
# the per-sample paths build their values with it
_new = tuple.__new__


class Quaternion(NamedTuple):
    """Unit quaternion, scalar first, body-to-navigation rotation."""

    w: float
    x: float
    y: float
    z: float

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Quaternion":
        """Unit-norm copy with the canonical sign (w >= 0)."""
        return _normalized(*self)


def _normalized(w: float, x: float, y: float, z: float) -> Quaternion:
    """`Quaternion.normalized` on four floats, so a caller that computes
    the components builds one Quaternion, not two."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    inv = 1.0 / n
    if w < 0.0:
        inv = -inv
    return _new(Quaternion, (w * inv, x * inv, y * inv, z * inv))


class EulerAngles(NamedTuple):
    """Z-Y-X Euler angles in radians: roll, pitch, yaw."""

    roll: float
    pitch: float
    yaw: float


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a (x) b, renormalized.

    Composes rotations so that ``quat_to_dcm(a (x) b) =
    quat_to_dcm(a) @ quat_to_dcm(b)``; a body-frame increment therefore
    multiplies from the right.
    """
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return _normalized(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def rotvec_to_quat(rotvec) -> Quaternion:
    """Quaternion of a rotation vector (axis * angle, radians), unit up to
    rounding and not renormalised: `quat_multiply` normalises the product."""
    rx, ry, rz = float(rotvec[0]), float(rotvec[1]), float(rotvec[2])
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < SMALL_ROTATION:
        # sin(x/2)/x ~ 1/2 - x^2/48 keeps the zero-rotation limit finite
        k = 0.5 - angle * angle / 48.0
    else:
        if not angle < math.inf:  # also NaN; a huge step overflows to inf
            raise ValueError(f"rotation angle is not finite, got {angle}")
        k = math.sin(0.5 * angle) / angle
    return _new(Quaternion, (math.cos(0.5 * angle), rx * k, ry * k, rz * k))


def quat_to_euler(q: Quaternion) -> EulerAngles:
    """Z-Y-X Euler angles of a unit quaternion.

    At gimbal lock (|pitch| within GIMBAL_LOCK_TOL of pi/2) the roll/yaw
    split is degenerate; by convention roll is reported as 0 and yaw
    absorbs the full rotation about the vertical.
    """
    return _new(EulerAngles, _euler_angles(*q))


def _euler_angles(w: float, x: float, y: float, z: float):
    """`quat_to_euler` on four floats, as a tuple of three floats: the
    one place the formula and its branches are written, so a per-sample
    step that holds the components builds no Quaternion or EulerAngles.
    `_euler_columns` is its form over whole columns."""
    sin_pitch = 2.0 * (w * y - x * z)
    if sin_pitch > 1.0:
        sin_pitch = 1.0
    elif sin_pitch < -1.0:
        sin_pitch = -1.0
    pitch = math.asin(sin_pitch)

    if 0.5 * math.pi - abs(pitch) < GIMBAL_LOCK_TOL:
        cos_term = 2.0 * (x * z + w * y)
        if pitch < 0.0:
            cos_term = -cos_term
        return 0.0, pitch, wrap_yaw(math.atan2(2.0 * (w * z - x * y), cos_term))

    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    yaw = math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    # each wrap returns an angle already in its range unchanged, so the
    # call is needed only outside it: for roll at -pi, for yaw below 0,
    # and for NaN, which wrap_yaw rejects
    if not -math.pi < roll <= math.pi:
        roll = wrap_pi(roll)
    if not 0.0 <= yaw < TWO_PI:
        yaw = wrap_yaw(yaw)
    return roll, pitch, yaw


def _euler_columns(w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """`_euler_angles` of each row of four (N,) quaternion columns, as
    (N,) roll, pitch and yaw, bit for bit. The arguments are elementwise
    NumPy in the scalar form's operand order, which is exact IEEE; asin
    and atan2 are `math`'s, mapped over lists, because NumPy's arcsin
    and arctan2 round differently. Only the yaw wrap of an angle in
    [-pi, 0) is written here; every other row (gimbal lock, roll at -pi,
    anything not finite) goes through `_euler_angles`, so its branches
    and errors stay in one place."""
    n = len(w)
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as on floats
        sin_pitch = (2.0 * (w * y - x * z)).clip(-1.0, 1.0)
        roll_args = (2.0 * (w * x + y * z)).tolist(), (1.0 - 2.0 * (x * x + y * y)).tolist()
        yaw_args = (2.0 * (x * y + w * z)).tolist(), (1.0 - 2.0 * (y * y + z * z)).tolist()
    pitch = np.fromiter(map(math.asin, sin_pitch.tolist()), float, n)
    roll = np.fromiter(map(math.atan2, *roll_args), float, n)
    yaw = np.fromiter(map(math.atan2, *yaw_args), float, n)
    # wrap_yaw of an atan2 below 0: fmod leaves it as it is, and the sum
    # can round up to 2*pi
    yaw[yaw < 0.0] += TWO_PI
    yaw[yaw >= TWO_PI] = 0.0
    # each test is false for NaN. A component that is not finite, or one
    # whose products overflow into a NaN roll or yaw, also leaves
    # 2 (wy - xz) NaN or clipped to +-1, so the pitch test finds it.
    edge = ~((0.5 * math.pi - np.abs(pitch) >= GIMBAL_LOCK_TOL)
             & (-math.pi < roll) & (roll <= math.pi))
    for i in np.flatnonzero(edge).tolist():
        roll[i], pitch[i], yaw[i] = _euler_angles(float(w[i]), float(x[i]),
                                                  float(y[i]), float(z[i]))
    return roll, pitch, yaw


def euler_to_quat(e: EulerAngles) -> Quaternion:
    """Unit quaternion of Z-Y-X Euler angles (inverse of quat_to_euler)."""
    roll, pitch, yaw = e
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return _normalized(
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    )


def quat_to_dcm(q: Quaternion) -> np.ndarray:
    """Body-to-navigation rotation matrix of a unit quaternion, 3x3."""
    return np.array(_dcm_entries(*q)).reshape(3, 3)


def _dcm_entries(w, x, y, z):
    """The nine entries of `quat_to_dcm`, row by row, for float or (N,)
    array components: the one place the formula is written."""
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return (1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
            2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
            2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy))


def wrap_yaw(psi: float) -> float:
    """Reduce an angle into the heading range [0, 2*pi)."""
    if not math.isfinite(psi):
        raise ValueError(f"yaw must be finite, got {psi}")
    r = math.fmod(psi, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod of a tiny negative can round up to 2*pi
        r = 0.0
    return r


def wrap_pi(angle: float) -> float:
    """Reduce an angle into (-pi, pi]; used for innovations/residuals."""
    r = math.remainder(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r
