"""Mahony-style passive complementary filter, the comparison baseline.

The filter keeps the same `PropagatorState` as the other estimators:
an attitude and a gyro-bias estimate. Each step builds an error rate
from the cross products between measured and predicted gravity/field
directions. Its integral is the bias estimate (Mahony, Hamel and
Pflimlin, "Nonlinear complementary filters on the special orthogonal
group", IEEE TAC 2008), and the proportional term corrects the rate of
this step only; `propagate` then integrates the corrected rate.

A step is two cross products and two 3x3 matrix-vector products, far
too little work to repay NumPy's per-call overhead, so it is written out
on Python floats: the DCM entries are `quat_to_dcm`'s expressions, and
the only array a step builds is the bias it returns.
"""

from __future__ import annotations

import math

import numpy as np

from .propagation import PropagatorState, propagate


def cf_update(prop: PropagatorState, gyro, accel, mag, dt: float,
              kp: float, ki: float) -> PropagatorState:
    """One fusion step with gains kp and ki (1/s). An accel or mag whose
    norm is zero or not finite skips that error term."""
    if kp < 0.0 or ki < 0.0:
        raise ValueError(f"gains must be non-negative, got kp={kp} ki={ki}")
    w, x, y, z = prop.q
    # quat_to_dcm's expressions: cij is row i, column j of C_b^n
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    c00, c01, c02 = 1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)
    c10, c11, c12 = 2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)
    c20, c21, c22 = 2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)
    ex = ey = ez = 0.0

    ax, ay, az = float(accel[0]), float(accel[1]), float(accel[2])
    an = math.sqrt(ax * ax + ay * ay + az * az)
    if 0.0 < an < math.inf:
        # measured vs predicted "up" reaction: at rest accel = -C_n^b g,
        # so pred = -(c20, c21, c22) and meas x pred = (c20, c21, c22) x meas
        ax, ay, az = ax / an, ay / an, az / an
        ex = c21 * az - c22 * ay
        ey = c22 * ax - c20 * az
        ez = c20 * ay - c21 * ax

    mx, my, mz = float(mag[0]), float(mag[1]), float(mag[2])
    mn = math.sqrt(mx * mx + my * my + mz * mz)
    if 0.0 < mn < math.inf:
        mx, my, mz = mx / mn, my / mn, mz / mn
        h0 = c00 * mx + c01 * my + c02 * mz
        h1 = c10 * mx + c11 * my + c12 * mz
        h2 = c20 * mx + c21 * my + c22 * mz
        # reference field with the measured inclination, zero declination
        r0 = math.hypot(h0, h1)
        px = c00 * r0 + c20 * h2
        py = c01 * r0 + c21 * h2
        pz = c02 * r0 + c22 * h2
        ex += my * pz - mz * py
        ey += mz * px - mx * pz
        ez += mx * py - my * px

    bias = prop.bias
    bx, by, bz = bias.tolist()
    if ki > 0.0:
        bx -= ki * ex * dt
        by -= ki * ey * dt
        bz -= ki * ez * dt
        bias = np.array((bx, by, bz))
    q = propagate(PropagatorState(prop.q, (bx - kp * ex, by - kp * ey, bz - kp * ez)),
                  gyro, dt).q
    return PropagatorState(q, bias)
