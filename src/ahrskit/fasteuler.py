"""Direct Euler-angle measurements from accelerometer and magnetometer.

The accelerometer gives roll/pitch from the gravity reaction, guarded by
a specific-force norm gate that rejects samples taken under linear
acceleration; it reads g from the `NoiseConfig` whose adaptive factor
de-weights the samples that pass. The magnetometer gives yaw after tilt
compensation with the roll/pitch of the same epoch. A gated or unusable
sensor yields ``None`` for its angles: skipping a measurement is a
normal outcome, not an error.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

from .geometry import wrap_yaw

if TYPE_CHECKING:
    from .dlkf import NoiseConfig


def accel_roll_pitch(accel, cfg: NoiseConfig) -> Optional[Tuple[float, float]]:
    """Roll and pitch measured from the specific-force vector (m/s^2).

    Returns None when the sample is the zero vector or the norm gate
    ``| ||f|| - g | <= accel_gate`` fails, i.e. when linear acceleration
    makes the gravity direction unreliable. A non-finite sample fails
    the gate too.

    The pitch expression atan2(ax, -az) is exact only at zero roll; at
    nonzero roll it is a small-roll approximation. Roll is exact for any
    pitch away from +-90 deg.
    """
    ax, ay, az = float(accel[0]), float(accel[1]), float(accel[2])
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    if norm == 0.0 or not abs(norm - cfg.gravity) <= cfg.accel_gate:
        return None
    return math.atan2(-ay, -az), math.atan2(ax, -az)


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
