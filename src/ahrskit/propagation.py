"""High-rate attitude dead reckoning from gyro samples.

One rotation-vector quaternion step per sample, with the accumulated
gyro bias estimate subtracted first. The angular rate is treated as
constant over the step, which is exact for piecewise-constant rates and
accurate to O(dt^2) otherwise; no coning correction is applied.

`_propagated` writes the step once on floats: `rotvec_to_quat` of the
bias-corrected increment, then `quat_multiply`, with its normalisation.
Every estimator's per-sample step calls it on the components it holds,
so no step builds a Quaternion.
"""

from __future__ import annotations

import math

from .geometry import SMALL_ROTATION


def _propagated(w1, x1, y1, z1, gx, gy, gz, bx, by, bz, dt):
    """The attitude (w1, x1, y1, z1) advanced by the rate (gx, gy, gz)
    less the bias (bx, by, bz) over dt, as four floats; bit for bit
    `quat_multiply(q, rotvec_to_quat(increment))`."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(gx) and math.isfinite(gy) and math.isfinite(gz)):
        raise ValueError(f"gyro sample must be finite, got ({gx}, {gy}, {gz})")
    rx, ry, rz = (gx - bx) * dt, (gy - by) * dt, (gz - bz) * dt
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < SMALL_ROTATION:
        k = 0.5 - angle * angle / 48.0
    else:
        if not angle < math.inf:
            raise ValueError(f"rotation angle is not finite, got {angle}")
        k = math.sin(0.5 * angle) / angle
    w2, x2, y2, z2 = math.cos(0.5 * angle), rx * k, ry * k, rz * k
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    inv = 1.0 / n
    if w < 0.0:
        inv = -inv
    return w * inv, x * inv, y * inv, z * inv
