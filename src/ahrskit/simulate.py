"""Synthetic IMU/magnetometer data with exact attitude ground truth.

Trajectories are piecewise segments of constant body angular rate and
constant body-frame linear acceleration, so the true attitude integrates
exactly (one rotation-vector step per sample). Sensor errors follow a
constant-plus-first-order-Markov gyro bias with white noise, white
accelerometer noise on the specific force, and white noise on a rotated
unit magnetic field. Output is bit-reproducible for a given seed.

Only the recursions run per sample, on Python floats: the attitude, one
`quat_multiply` per step, with its truth angles (NumPy's arcsin and
arctan2 round differently from `math`'s), and the Markov drift. The DCMs
and sensor columns are computed over the whole log at once, bit for bit
equal to computing them one sample at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import (EulerAngles, euler_to_quat, quat_multiply, quat_to_dcm,
                       quat_to_euler, rotvec_to_quat)


class Segment(NamedTuple):
    """Constant-rate trajectory piece.

    duration: s; rate: body angular rate, rad/s; accel: body-frame
    linear acceleration, m/s^2.
    """

    duration: float
    rate: Tuple[float, float, float]
    accel: Tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class TrajectorySpec:
    segments: Tuple[Segment, ...]
    initial_attitude: EulerAngles = EulerAngles(0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("trajectory must have at least one segment")
        if not all(math.isfinite(a) for a in self.initial_attitude):
            raise ValueError("initial attitude must be finite")
        for seg in self.segments:
            if not 0.0 < seg.duration < math.inf:
                raise ValueError("segment durations must be finite and > 0")
            if not all(math.isfinite(v) for v in (*seg.rate, *seg.accel)):
                raise ValueError("segment rates and accelerations must be finite")

    @property
    def duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


@dataclass(frozen=True)
class GyroModel:
    """Constant bias + first-order Markov drift + white noise.

    sigma_markov is the Markov driving noise density (rad/s/sqrt(s));
    the drift state decays with time constant tau and has stationary
    variance sigma_markov^2 * tau / 2. sigma_white is an angular-rate
    white noise density (rad/s/sqrt(Hz)).
    """

    bias: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    tau: float = 100.0
    sigma_markov: float = 0.0
    sigma_white: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(b) for b in self.bias):
            raise ValueError("gyro bias must be finite")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not all(0.0 <= s < math.inf for s in (self.sigma_markov, self.sigma_white)):
            raise ValueError("noise densities must be finite and >= 0")


@dataclass(frozen=True)
class AccelModel:
    """White specific-force noise (m/s^2/sqrt(Hz)) and local gravity."""

    sigma_white: float = 0.0
    gravity: float = 9.81

    def __post_init__(self):
        if not 0.0 <= self.sigma_white < math.inf:
            raise ValueError("sigma_white must be finite and >= 0")
        if not 0.0 < self.gravity < math.inf:
            raise ValueError(f"gravity must be finite and > 0, got {self.gravity}")


def _default_field() -> Tuple[float, float, float]:
    # unit field at 60 deg inclination, pointing magnetic north
    return (math.cos(math.radians(60.0)), 0.0, math.sin(math.radians(60.0)))


@dataclass(frozen=True)
class MagModel:
    """Navigation-frame field direction and white noise (1/sqrt(Hz))."""

    field_ned: Tuple[float, float, float] = field(default_factory=_default_field)
    sigma_white: float = 0.0

    def __post_init__(self):
        f = np.asarray(self.field_ned, dtype=float)
        norm = np.linalg.norm(f)
        if not 0.0 < norm < math.inf:
            raise ValueError("magnetic field direction must be finite and non-zero")
        f = f / norm
        if np.hypot(f[0], f[1]) <= 1e-9:
            raise ValueError("magnetic field needs a horizontal component for heading")
        object.__setattr__(self, "field_ned", tuple(f))
        if not 0.0 <= self.sigma_white < math.inf:
            raise ValueError("sigma_white must be finite and >= 0")


class SensorRecord(NamedTuple):
    """One timestamped sample; truth is None in replayed logs."""

    t: float
    gyro: np.ndarray
    accel: np.ndarray
    mag: np.ndarray
    truth: Optional[EulerAngles] = None


def simulate(traj: TrajectorySpec, gyro_model: GyroModel, accel_model: AccelModel,
             mag_model: MagModel, rate: float, seed: int) -> List[SensorRecord]:
    """Generate sensor records at `rate` Hz along a trajectory.

    Record k carries the gyro rate over the step ending at its timestamp
    and the accelerometer/magnetometer/truth values at that timestamp,
    so replaying the noiseless stream through a rotation-vector
    integrator reproduces the truth attitude exactly.
    """
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    dt = 1.0 / rate

    steps_per_seg = []
    for seg in traj.segments:
        n = round(seg.duration * rate)
        if n < 1:
            raise ValueError(
                f"segment duration {seg.duration} s too short for {rate} Hz sampling")
        steps_per_seg.append(n)
    n_total = sum(steps_per_seg)

    rng = np.random.default_rng(seed)
    markov_w = rng.normal(0.0, gyro_model.sigma_markov * math.sqrt(dt), (n_total, 3))
    gyro_w = rng.normal(0.0, gyro_model.sigma_white * math.sqrt(rate), (n_total, 3))
    accel_w = rng.normal(0.0, accel_model.sigma_white * math.sqrt(rate), (n_total, 3))
    mag_w = rng.normal(0.0, mag_model.sigma_white * math.sqrt(rate), (n_total, 3))

    # per sample, on floats: the attitude with its truth angles
    rates = np.array([seg.rate for seg in traj.segments], dtype=float)
    q = euler_to_quat(traj.initial_attitude)
    quats, truth = array("d"), []
    for seg_rate, n_steps in zip(rates, steps_per_seg):
        step_quat = rotvec_to_quat(seg_rate * dt)
        for _ in range(n_steps):
            q = quat_multiply(q, step_quat)
            quats.extend(q)
            truth.append(quat_to_euler(q))
    # and the Markov drift; sample k carries the state before its update
    markov_decay = 1.0 - dt / gyro_model.tau
    drift = np.zeros((n_total, 3))
    if gyro_model.sigma_markov > 0.0:  # else every drift term is exactly 0.0
        drift = np.array([list(accumulate(w, lambda d, w: markov_decay * d + w, initial=0.0))
                          for w in markov_w[:-1].T.tolist()]).T

    cbn = quat_to_dcm(np.frombuffer(quats).reshape(n_total, 4).T)
    omega = np.repeat(rates, steps_per_seg, axis=0)
    lin_acc = np.repeat(np.array([seg.accel for seg in traj.segments], dtype=float),
                        steps_per_seg, axis=0)
    gyro = omega + np.asarray(gyro_model.bias, dtype=float) + drift + gyro_w
    accel = -accel_model.gravity * cbn[:, 2, :] + lin_acc + accel_w
    # matmul on the contiguous stack runs BLAS per sample, as `cbn.T @ field`
    # did, so the bits match; einsum or a strided stack round differently
    mag = np.asarray(mag_model.field_ned, dtype=float) @ cbn + mag_w
    # free the work arrays before the N records are built: this sets the peak
    del cbn, quats, omega, lin_acc, drift, markov_w, gyro_w, accel_w, mag_w
    t = (np.arange(1, n_total + 1) * dt).tolist()
    return list(map(SensorRecord, t, gyro, accel, mag, truth))


def truth_array(records: Sequence[SensorRecord]) -> np.ndarray:
    """(N, 3) roll/pitch/yaw truth matrix; raises if any record lacks truth."""
    out = np.empty((len(records), 3))
    for i, rec in enumerate(records):
        if rec.truth is None:
            raise ValueError(f"record at t={rec.t} has no ground truth")
        out[i] = rec.truth
    return out
