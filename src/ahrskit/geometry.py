"""Attitude math: quaternions, Euler angles and direction cosine matrices.

Conventions used everywhere in this library:

* Navigation frame is NED (north, east, down), body frame is FRD
  (front, right, down).
* Quaternions are scalar-first ``(w, x, y, z)`` and carry the body-to-
  navigation rotation, so ``v_n = quat_to_dcm(q) @ v_b``.
* Euler angles use the aerospace Z-Y-X sequence (yaw about Z, then pitch
  about Y, then roll about X). Roll lies in (-pi, pi], pitch in
  [-pi/2, pi/2], yaw in [0, 2*pi).
* Vectors are plain length-3 numpy arrays (or anything indexable).

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
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero quaternion")
        inv = 1.0 / n
        if self.w < 0.0:
            inv = -inv
        return Quaternion(self.w * inv, self.x * inv, self.y * inv, self.z * inv)


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
    return Quaternion(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ).normalized()


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
    return Quaternion(math.cos(0.5 * angle), rx * k, ry * k, rz * k)


def quat_to_euler(q: Quaternion) -> EulerAngles:
    """Z-Y-X Euler angles of a unit quaternion.

    At gimbal lock (|pitch| within GIMBAL_LOCK_TOL of pi/2) the roll/yaw
    split is degenerate; by convention roll is reported as 0 and yaw
    absorbs the full rotation about the vertical.
    """
    w, x, y, z = q
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
        return EulerAngles(0.0, pitch, wrap_yaw(math.atan2(2.0 * (w * z - x * y), cos_term)))

    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    yaw = math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    return EulerAngles(wrap_pi(roll), pitch, wrap_yaw(yaw))


def euler_to_quat(e: EulerAngles) -> Quaternion:
    """Unit quaternion of Z-Y-X Euler angles (inverse of quat_to_euler)."""
    roll, pitch, yaw = e
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return Quaternion(
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    ).normalized()


def quat_to_dcm(q: Quaternion) -> np.ndarray:
    """3x3 body-to-navigation rotation matrix of a unit quaternion."""
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


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
