"""Mahony-style passive complementary filter, the comparison baseline.

The estimator state is an attitude and a gyro-bias estimate. Each step
builds an error rate from the cross products between measured and
predicted gravity/field directions. Its integral is the bias estimate
(Mahony, Hamel and Pflimlin, "Nonlinear complementary filters on the
special orthogonal group", IEEE TAC 2008), and the proportional term
corrects the rate of this step only; `_propagated` then integrates the
corrected rate.

A step is two cross products and two 3x3 matrix-vector products, far
too little work to repay NumPy's per-call overhead, so it is written out
on Python floats: the DCM entries come from `quat_to_dcm`'s formula on
float components, and a step builds no array. `tests/test_fused_steps.py`
holds the step bit for bit equal to the reference writing of
`tests/test_complementary.py`, which a NumPy oracle checks in turn.
"""

from __future__ import annotations

import math

from .geometry import _dcm_entries
from .propagation import _propagated


def _cf_step(cfg, q0, bias_seed, on_epoch):
    # The pipeline's step factory for "cf": the error rate from the accel
    # and (on a mag epoch) the mag directions, its integral into the
    # bias, and the gyro step with the proportional term. An accel or mag
    # whose norm is zero or not finite adds no error term. The bias is
    # the PI integral, so it starts at zero, not at the seed.
    # PipelineConfig has checked the gains.
    kp, ki = cfg.cf_kp, cfg.cf_ki
    q, bias = q0, (0.0, 0.0, 0.0)
    sqrt, hypot, inf = math.sqrt, math.hypot, math.inf

    def step(row, dt, mag_due):
        nonlocal q, bias
        # cij is row i, column j of C_b^n
        c00, c01, c02, c10, c11, c12, c20, c21, c22 = _dcm_entries(*q)
        ex = ey = ez = 0.0
        ax, ay, az = row[4], row[5], row[6]
        an = sqrt(ax * ax + ay * ay + az * az)
        if 0.0 < an < inf:
            # measured vs predicted "up" reaction: at rest accel = -C_n^b g,
            # so pred = -(c20, c21, c22) and meas x pred = (c20, c21, c22) x meas
            ax, ay, az = ax / an, ay / an, az / an
            ex = c21 * az - c22 * ay
            ey = c22 * ax - c20 * az
            ez = c20 * ay - c21 * ax
        if mag_due:
            mx, my, mz = row[7], row[8], row[9]
            mn = sqrt(mx * mx + my * my + mz * mz)
            if 0.0 < mn < inf:
                mx, my, mz = mx / mn, my / mn, mz / mn
                h0 = c00 * mx + c01 * my + c02 * mz
                h1 = c10 * mx + c11 * my + c12 * mz
                h2 = c20 * mx + c21 * my + c22 * mz
                # reference field with the measured inclination, zero declination
                r0 = hypot(h0, h1)
                px = c00 * r0 + c20 * h2
                py = c01 * r0 + c21 * h2
                pz = c02 * r0 + c22 * h2
                ex += my * pz - mz * py
                ey += mz * px - mx * pz
                ez += mx * py - my * px
        bx, by, bz = bias
        bx -= ki * ex * dt
        by -= ki * ey * dt
        bz -= ki * ez * dt
        bias = bx, by, bz
        qw, qx, qy, qz = q = _propagated(*q, row[1], row[2], row[3], bx - kp * ex,
                                         by - kp * ey, bz - kp * ez, dt)
        return qw, qx, qy, qz, bx, by, bz

    return step
