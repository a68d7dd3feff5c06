"""High-rate attitude dead reckoning from gyro samples.

One rotation-vector quaternion step per sample, with the accumulated
gyro bias estimate subtracted first. The angular rate is treated as
constant over the step, which is exact for piecewise-constant rates and
accurate to O(dt^2) otherwise; no coning correction is applied.

`_propagated` writes the step once on floats, for the dlkf and cf steps,
whose bias depends on their state: `rotvec_to_quat` of the corrected
increment, then `quat_multiply`, with its normalisation. With a zero
bias the increments depend on the log alone: `_increments` takes them by
the column, and `_chain`, the one writing of the recursion that the
gyro-only run and the simulator share, runs the products per sample.
"""

from __future__ import annotations

import math

import numpy as np

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


def _increments(gyro: np.ndarray, t: np.ndarray):
    """`_propagated`'s increments with a zero bias, of the (n, 3) `gyro`
    rows over the steps between the (n + 1,) times `t`, as lists w, x,
    y, z, bit for bit: elementwise NumPy in the scalar operand order, and
    `math`'s sin and cos, as NumPy's round differently. The lists stop
    at the first row where `_propagated` raises (a gyro not finite, an
    infinite dt or angle): each leaves the angle not below inf."""
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as on floats
        dt = t[1:] - t[:-1]
        rx, ry, rz = ((gyro - 0.0) * dt[:, None]).T
        angle = np.sqrt(rx * rx + ry * ry + rz * rz)
    good = angle < math.inf
    n = len(angle) if good.all() else int(good.argmin())
    rx, ry, rz, angle = rx[:n], ry[:n], rz[:n], angle[:n]
    half = (0.5 * angle).tolist()
    small = angle < SMALL_ROTATION
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 where small
        k = np.fromiter(map(math.sin, half), float, n) / angle
    k[small] = 0.5 - angle[small] * angle[small] / 48.0
    return list(map(math.cos, half)), (rx * k).tolist(), (ry * k).tolist(), (rz * k).tolist()


def _chain(q, increments, out):
    """Extend the array("d") `out` with q <- normalised(q (x) dq), with
    w >= 0, for each increment (w, x, y, z) in turn, and return the last
    q; bit for bit `quat_multiply` per increment."""
    w1, x1, y1, z1 = q
    extend, sqrt = out.extend, math.sqrt
    for w2, x2, y2, z2 in increments:
        w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
        x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
        y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
        z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
        n = sqrt(w * w + x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot normalize a zero quaternion")
        inv = 1.0 / n
        if w < 0.0:
            inv = -inv
        q = w1, x1, y1, z1 = w * inv, x * inv, y * inv, z * inv
        extend(q)
    return q
