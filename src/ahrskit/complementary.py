"""Mahony-style passive complementary filter, the comparison baseline.

`cf_update` steps a `PropagatorState`: an attitude and a gyro-bias
estimate. Each step builds an error rate from the cross products
between measured and predicted gravity/field directions. Its integral
is the bias estimate (Mahony, Hamel and Pflimlin, "Nonlinear
complementary filters on the special orthogonal group", IEEE TAC 2008),
and the proportional term corrects the rate of this step only;
`propagate` then integrates the corrected rate.

A step is two cross products and two 3x3 matrix-vector products, far
too little work to repay NumPy's per-call overhead, so it is written out
on Python floats: the DCM entries come from `quat_to_dcm`'s formula on
float components, and a step builds no array. A run does not call
`cf_update`: the cf step of `pipeline` writes the same arithmetic out on
the floats it keeps, in the same operand order, and
`tests/test_fused_steps.py` holds the two equal bit for bit. This
function is the per-step API and that test's reference.
"""

from __future__ import annotations

import math

from .geometry import _dcm_entries, _new
from .propagation import PropagatorState, propagate


def cf_update(prop: PropagatorState, gyro, accel, mag, dt: float,
              kp: float, ki: float) -> PropagatorState:
    """One fusion step with gains kp and ki (1/s). An accel or mag whose
    norm is zero or not finite skips that error term."""
    if not (0.0 <= kp < math.inf and 0.0 <= ki < math.inf):
        raise ValueError(f"gains must be non-negative and finite, got kp={kp} ki={ki}")
    # cij is row i, column j of C_b^n
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = _dcm_entries(*prop.q)
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

    bx, by, bz = prop.bias
    bx -= ki * ex * dt
    by -= ki * ey * dt
    bz -= ki * ez * dt
    corrected = _new(PropagatorState, (prop.q, (bx - kp * ex, by - kp * ey, bz - kp * ez)))
    return _new(PropagatorState, (propagate(corrected, gyro, dt).q, (bx, by, bz)))
