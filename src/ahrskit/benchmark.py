"""Canonical test scenarios shared by the test suite and the demos."""

from __future__ import annotations

import math
from typing import Tuple

from .dlkf import NoiseConfig
from .geometry import EulerAngles
from .simulate import (AccelModel, GyroModel, MagModel, Segment, SensorLog,
                       TrajectorySpec, simulate)

# MPU6050-class datasheet white noise densities: 0.005 deg/s/sqrt(Hz)
# rate noise, 400 ug/sqrt(Hz) accelerometer noise
GYRO_NOISE_DENSITY = math.radians(0.005)   # rad/s/sqrt(Hz)
ACCEL_NOISE_DENSITY = 0.004                # m/s^2/sqrt(Hz)
MAG_NOISE_DENSITY = 0.002                  # 1/sqrt(Hz), on a unit field


def mems_models(gyro_bias=(0.0, 0.0, 0.0), noisy: bool = True,
                ) -> Tuple[GyroModel, AccelModel, MagModel]:
    """Datasheet-level sensor models without Markov drift, optionally noise-free."""
    gm = GyroModel(bias=gyro_bias, sigma_white=GYRO_NOISE_DENSITY if noisy else 0.0)
    am = AccelModel(sigma_white=ACCEL_NOISE_DENSITY if noisy else 0.0)
    mm = MagModel(sigma_white=MAG_NOISE_DENSITY if noisy else 0.0)
    return gm, am, mm


def matched_noise_config(rate: float) -> NoiseConfig:
    """Filter tuning derived from the benchmark sensor densities.

    Process noise matches the gyro white noise per step, with a
    near-zero bias block (the scenarios inject a constant bias);
    measurement noises match the per-sample angle noise the accel and
    mag densities produce at the given rate under the default sensor models.
    """
    gravity, horizontal_field = 9.81, 0.5  # cos(60 deg) is 0.5000000000000001
    dt = 1.0 / rate
    q_att = GYRO_NOISE_DENSITY ** 2 * dt
    q_bias = 1e-12
    # accel noise mapped through atan2 at small angles
    ra = (ACCEL_NOISE_DENSITY * math.sqrt(rate) / gravity) ** 2
    # yaw noise: mag noise over the horizontal field, plus the tilt
    # angles (accel-derived) leaking in scaled by the field inclination
    mag_term = MAG_NOISE_DENSITY * math.sqrt(rate) / horizontal_field
    tilt_term = math.sqrt(ra) * math.sqrt(1.0 - horizontal_field ** 2) / horizontal_field
    rm = mag_term ** 2 + tilt_term ** 2
    return NoiseConfig(Q=(q_att,) * 3 + (q_bias,) * 3, Ra_nominal=(ra, ra), Rm=rm,
                       gravity=gravity)


def dynamic_trajectory() -> TrajectorySpec:
    """120 s maneuver mix: hover, roll/pitch doublets, a 90 degree yaw
    turn and a sustained forward-acceleration segment."""
    roll_rate = math.radians(10.0)   # 2 s to +-20 deg
    pitch_rate = math.radians(10.0)
    yaw_rate = math.radians(15.0)    # 6 s to 90 deg
    segments = (
        Segment(10.0, (0.0, 0.0, 0.0)),                    # hover
        Segment(2.0, (roll_rate, 0.0, 0.0)),               # roll to +20
        Segment(4.0, (-roll_rate, 0.0, 0.0)),              # through to -20
        Segment(2.0, (roll_rate, 0.0, 0.0)),               # back level
        Segment(5.0, (0.0, 0.0, 0.0)),
        Segment(2.0, (0.0, pitch_rate, 0.0)),              # pitch doublet
        Segment(4.0, (0.0, -pitch_rate, 0.0)),
        Segment(2.0, (0.0, pitch_rate, 0.0)),
        Segment(5.0, (0.0, 0.0, 0.0)),
        Segment(6.0, (0.0, 0.0, yaw_rate)),                # 90 deg turn
        Segment(5.0, (0.0, 0.0, 0.0)),
        Segment(10.0, (0.0, 0.0, 0.0), (3.0, 0.0, 0.0)),   # forward push
        Segment(63.0, (0.0, 0.0, 0.0)),                    # settle out
    )
    return TrajectorySpec(segments)


def _accel_window(traj: TrajectorySpec) -> Tuple[float, float]:
    """(start, end) time of the first segment with linear acceleration."""
    k = next(i for i, seg in enumerate(traj.segments) if any(seg.accel))
    start = sum(seg.duration for seg in traj.segments[:k])
    return start, start + traj.segments[k].duration


# time window of the forward-acceleration segment above
ACCEL_SEGMENT = _accel_window(dynamic_trajectory())

BENCHMARK_GYRO_BIAS = (0.01, -0.008, 0.006)  # rad/s


def static_records(duration: float = 60.0, rate: float = 250.0,
                   gyro_bias=(0.0, 0.0, 0.0), noisy: bool = True,
                   seed: int = 7, attitude: EulerAngles = EulerAngles(0.0, 0.0, 0.0),
                   ) -> SensorLog:
    gm, am, mm = mems_models(gyro_bias=gyro_bias, noisy=noisy)
    traj = TrajectorySpec((Segment(duration, (0.0, 0.0, 0.0)),), attitude)
    return simulate(traj, gm, am, mm, rate, seed)


def benchmark_records(rate: float = 250.0, seed: int = 11) -> SensorLog:
    """The dynamic comparison scenario with datasheet noise and the gyro
    bias BENCHMARK_GYRO_BIAS (the disturbance the filter exists to remove)."""
    gm, am, mm = mems_models(gyro_bias=BENCHMARK_GYRO_BIAS, noisy=True)
    return simulate(dynamic_trajectory(), gm, am, mm, rate, seed)
