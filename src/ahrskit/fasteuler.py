"""Direct Euler-angle measurements from accelerometer and magnetometer.

The accelerometer gives roll/pitch from the gravity reaction, trusted as
far as its deviation from gravity | ||f|| - g | allows: a norm gate
rejects the sample, and below the gate the deviation sets the noise
factor gamma^2, both tuned in `NoiseConfig`. The magnetometer gives yaw
after tilt compensation with the roll/pitch of the same epoch. A gated
or unusable sensor yields ``None``: skipping a measurement is a normal
outcome, not an error.

This is the one home of the measurement policy: the initial alignment
and every epoch of a dlkf run take their measured angles from these two
functions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

from .geometry import wrap_yaw

if TYPE_CHECKING:
    from .dlkf import NoiseConfig


def accel_roll_pitch(accel, cfg: NoiseConfig) -> Optional[Tuple[float, float, float]]:
    """Roll, pitch and noise factor gamma^2 from one specific-force sample (m/s^2).

    Returns None when the sample is zero, not finite or fails the norm
    gate ``| ||f|| - g | <= accel_gate`` (linear acceleration makes the
    gravity direction unreliable). Otherwise gamma^2, the factor on the
    nominal roll/pitch noise, is lambda_a * | ||f|| - g | in [1, gamma2_max].

    The pitch expression atan2(ax, -az) is exact only at zero roll; at
    nonzero roll it is a small-roll approximation. Roll is exact for any
    pitch away from +-90 deg.
    """
    ax, ay, az = accel
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    deviation = abs(norm - cfg.gravity)
    if norm == 0.0 or not deviation <= cfg.accel_gate:
        return None
    gamma2 = cfg.lambda_a * deviation
    if not gamma2 < cfg.gamma2_max:
        gamma2 = cfg.gamma2_max
    if not gamma2 > 1.0:
        gamma2 = 1.0
    return math.atan2(-ay, -az), math.atan2(ax, -az), gamma2


def mag_yaw(mag, roll: float, pitch: float) -> Optional[float]:
    """Tilt-compensated heading in [0, 2*pi) from a body-frame field vector.

    The field is used direction-only (normalized first), so any unit works.
    Roll/pitch should come from the same epoch: the accelerometer angles
    while the accelerometer is fully trusted, otherwise the current
    attitude estimate. Returns None for a zero or non-finite field
    vector. Headings are magnetic-north referenced; no declination
    correction is applied.
    """
    mx, my, mz = float(mag[0]), float(mag[1]), float(mag[2])
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm == 0.0 or not math.isfinite(norm):
        return None
    mx, my, mz = mx / norm, my / norm, mz / norm

    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    # Project the field onto the local horizontal plane (de-rotate roll,
    # then pitch).
    hx = mx * cp + my * sp * sr + mz * sp * cr
    hy = my * cr - mz * sr
    return wrap_yaw(math.atan2(-hy, hx))
