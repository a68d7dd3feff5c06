"""High-rate attitude dead reckoning from gyro samples.

One rotation-vector quaternion step per sample, with the accumulated
gyro bias estimate subtracted first. The angular rate is treated as
constant over the step, which is exact for piecewise-constant rates and
accurate to O(dt^2) otherwise; no coning correction is applied.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .geometry import Quaternion, _new, quat_multiply, rotvec_to_quat


class PropagatorState(NamedTuple):
    """Attitude and accumulated gyro bias (rad/s), the bias as three
    Python floats so that a step does no NumPy scalar arithmetic."""

    q: Quaternion
    bias: Tuple[float, float, float]


def propagate(state: PropagatorState, gyro, dt: float) -> PropagatorState:
    """Advance the attitude by one gyro sample over dt seconds.

    The bias estimate is subtracted from the measured rate before
    integration; the bias itself is left unchanged (the filter owns it).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    gx, gy, gz = float(gyro[0]), float(gyro[1]), float(gyro[2])
    if not (math.isfinite(gx) and math.isfinite(gy) and math.isfinite(gz)):
        raise ValueError(f"gyro sample must be finite, got ({gx}, {gy}, {gz})")
    bx, by, bz = state.bias
    step = ((gx - bx) * dt, (gy - by) * dt, (gz - bz) * dt)
    q = quat_multiply(state.q, rotvec_to_quat(step))
    return _new(PropagatorState, (q, state.bias))
