"""Mahony-style passive complementary filter, the comparison baseline.

The filter keeps the same `PropagatorState` as the other estimators:
an attitude and a gyro-bias estimate. Each step builds an error rate
from the cross products between measured and predicted gravity/field
directions. Its integral is the bias estimate (Mahony, Hamel and
Pflimlin, "Nonlinear complementary filters on the special orthogonal
group", IEEE TAC 2008), and the proportional term corrects the rate of
this step only; `propagate` then integrates the corrected rate.
"""

from __future__ import annotations

import numpy as np

from .geometry import quat_to_dcm
from .propagation import PropagatorState, propagate


def cf_update(prop: PropagatorState, gyro, accel, mag, dt: float,
              kp: float, ki: float) -> PropagatorState:
    """One fusion step with gains kp and ki (1/s). A zero-norm accel or
    mag skips that error term."""
    if kp < 0.0 or ki < 0.0:
        raise ValueError(f"gains must be non-negative, got kp={kp} ki={ki}")
    accel = np.asarray(accel, dtype=float)
    mag = np.asarray(mag, dtype=float)

    cbn = quat_to_dcm(prop.q)
    err = np.zeros(3)

    an = np.linalg.norm(accel)
    if an > 0.0:
        # measured vs predicted "up" reaction: at rest accel = -C_n^b g
        meas = accel / an
        pred = -cbn[2, :]  # C_n^b @ (0,0,-1) = -(third row of C_b^n)
        err += np.cross(meas, pred)

    mn = np.linalg.norm(mag)
    if mn > 0.0:
        meas = mag / mn
        h = cbn @ meas
        # reference field with the measured inclination, zero declination
        ref = np.array([np.hypot(h[0], h[1]), 0.0, h[2]])
        pred = cbn.T @ ref
        err += np.cross(meas, pred)

    bias = prop.bias
    if ki > 0.0:
        bias = bias - ki * err * dt
    q = propagate(PropagatorState(prop.q, bias - kp * err), gyro, dt).q
    return PropagatorState(q, bias)
