"""End-to-end fusion loop: alignment, per-sample estimation, emission.

One driver serves every algorithm: it owns the clock, the mag-epoch
schedule, the per-sample error context and the emitted estimates. It
reads the rows of a `SensorLog`'s table as Python floats, packs each
sample's 11 floats (t, Euler angles, quaternion, gyro bias) into one
`array("d")` and returns the whole run as `Estimates`, one read-only
(N, 11) table, so no per-sample object outlives its step. Each algorithm
is a factory in `_STEPS` returning `step(row, dt, mag_due) ->
PropagatorState`, a closure over its own estimator state; `row` is the
sample's floats in log-CSV column order (t, gyro, accel, mag[, truth]).
All three integrate the gyro with `propagate` and differ only in the
correction: none for gyro-only, the PI feedback of `cf_update` for cf.
The dlkf step runs the filter time update, converts accel/mag into
measured angles, runs whichever measurement layers have valid data this
epoch, then feeds the corrections back. A gated accelerometer or an
off-epoch magnetometer simply skips its layer; the covariance flows on.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .complementary import cf_update
from .dlkf import (FilterState, NoiseConfig, accel_update, apply_correction,
                   mag_update, time_update)
from .fasteuler import accel_roll_pitch, mag_yaw
from .geometry import EulerAngles, Quaternion, _new, euler_to_quat, quat_to_euler
from .propagation import PropagatorState, propagate
from .simulate import SensorLog, _check_times, _column, _Table

class AlignmentError(ValueError):
    """Raised when the initial-alignment window is unusable."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs: algorithm choice, tuning, mag rate."""

    algorithm: str = "dlkf"
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    cf_kp: float = 1.0
    cf_ki: float = 0.05
    mag_rate_hz: float = 10.0
    align_duration_s: float = 2.0

    def __post_init__(self):
        if self.algorithm not in _STEPS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, "
                             f"expected one of {tuple(_STEPS)}")
        if not 0.0 < self.mag_rate_hz < math.inf:
            raise ValueError("mag rate must be finite and > 0")
        if not 0.0 <= self.align_duration_s < math.inf:
            raise ValueError("alignment duration must be finite and >= 0")
        if not (0.0 <= self.cf_kp < math.inf and 0.0 <= self.cf_ki < math.inf):
            raise ValueError("CF gains must be finite and >= 0")


class AttitudeEstimate(NamedTuple):
    """One output sample of Python floats: time, Euler angles,
    quaternion, and the accumulated gyro bias as a tuple of three floats
    (rad/s). `Estimates` builds these on demand from its table."""

    t: float
    euler: EulerAngles
    q: Quaternion
    gyro_bias: Tuple[float, float, float]


_ROW = struct.Struct("11d")  # one estimate: t, roll..yaw, qw..qz, bgx..bgz


class Estimates(_Table):
    """A run's estimates: a `_Table` of `AttitudeEstimate`s of Python
    floats over one (N, 11) table in the estimate-CSV column order: t,
    roll, pitch, yaw, qw, qx, qy, qz, bgx, bgy, bgz (`logio.EST_HEADER`).
    `t`, `euler`, `q` and `gyro_bias` are read-only views of the table,
    so holding a run holds one array and no per-sample object. `==`
    holds for another `Estimates` with an equal table, compared as
    floats (NaN differs from itself, -0.0 equals 0.0).
    """

    __slots__ = ()
    _WIDTHS = (11,)

    t = _column(0, "(N,) sample times, s.")
    euler = _column(slice(1, 4), "(N, 3) roll, pitch, yaw, rad.")
    q = _column(slice(4, 8), "(N, 4) quaternions, scalar first.")
    gyro_bias = _column(slice(8, 11), "(N, 3) accumulated gyro bias, rad/s.")

    def _elements(self) -> Iterator[AttitudeEstimate]:
        t, roll, pitch, yaw, qw, qx, qy, qz, bx, by, bz = self._table.T.tolist()
        return map(_new, repeat(AttitudeEstimate),
                   zip(t, map(_new, repeat(EulerAngles), zip(roll, pitch, yaw)),
                       map(_new, repeat(Quaternion), zip(qw, qx, qy, qz)),
                       zip(bx, by, bz)))

    def __eq__(self, other):
        if not isinstance(other, Estimates):
            return NotImplemented
        return np.array_equal(self._table, other._table)


def initial_alignment(log: SensorLog, cfg: NoiseConfig,
                      ) -> Tuple[Quaternion, Tuple[float, float, float]]:
    """Coarse attitude and gyro-bias seed from the static window `log`.

    Roll/pitch come from the gate-passing accelerometer average, yaw
    from the magnetometer average, and the mean gyro rate seeds the bias
    accumulator (valid because the vehicle is assumed static). A sample
    that is not finite is left out of its sensor's average.
    """
    if not log:
        raise AlignmentError("alignment window is empty")
    passing = [accel_roll_pitch(a, cfg) is not None for a in log.accel.tolist()]
    n_pass = sum(passing)
    if n_pass * 2 < len(log):
        raise AlignmentError(
            f"accel gate rejected {len(log) - n_pass} of "
            f"{len(log)} alignment samples; vehicle not static enough")
    rp = accel_roll_pitch(np.mean(log.accel[passing], axis=0), cfg)
    if rp is None:
        raise AlignmentError("averaged accelerometer failed the norm gate")
    yaw = mag_yaw(_finite_mean(log.mag, "magnetometer"), rp[0], rp[1])
    if yaw is None:
        raise AlignmentError("averaged magnetometer is zero or not finite; "
                             "heading unobservable")
    gyro_mean = _finite_mean(log.gyro, "gyro")
    return euler_to_quat(EulerAngles(rp[0], rp[1], yaw)), tuple(gyro_mean.tolist())


def _finite_mean(columns: np.ndarray, sensor: str) -> np.ndarray:
    """Mean of the finite rows of (N, 3) `columns`."""
    finite = np.isfinite(columns).all(axis=1)
    if not finite.any():
        raise AlignmentError(f"no finite {sensor} sample in the alignment window")
    return np.mean(columns[finite], axis=0)


def run_pipeline(log: SensorLog, cfg: PipelineConfig,
                 on_epoch: Optional[Callable[[float, FilterState], None]] = None,
                 ) -> Estimates:
    """Run the configured estimator over a time-ordered sensor log.

    Estimates are emitted at the IMU rate for every sample after the
    alignment window, as one `Estimates` table. `on_epoch`, if given,
    receives (t, FilterState) after each dlkf epoch (diagnostics;
    ignored by other algorithms).
    """
    if not log:
        raise ValueError("no records to process")
    _check_times(log.t)

    n_align = 1  # without alignment the first sample only sets the clock
    q0, bias_seed = Quaternion.identity(), (0.0, 0.0, 0.0)
    if cfg.align_duration_s > 0.0:
        n_align = int(np.searchsorted(log.t, log.t[0] + cfg.align_duration_s, "right"))
        q0, bias_seed = initial_alignment(log[:n_align], cfg.noise)
    rest = log[n_align:]
    if not rest:
        raise ValueError("no records left after the alignment window")
    t_prev = float(log.t[n_align - 1])

    step = _STEPS[cfg.algorithm](cfg, q0, bias_seed, on_epoch)
    mag_period = 1.0 / cfg.mag_rate_hz
    next_mag = float(rest.t[0])
    table = array("d")
    emit, pack = table.frombytes, _ROW.pack
    try:
        for i, row in enumerate(rest.rows(), n_align):
            t = row[0]
            dt = t - t_prev
            mag_due = t >= next_mag
            if mag_due:
                # one period per step, or one jump over the epochs a gap missed
                next_mag += ((t - next_mag) // mag_period + 1.0) * mag_period
            prop = step(row, dt, mag_due)
            roll, pitch, yaw = quat_to_euler(prop.q)
            (qw, qx, qy, qz), (bx, by, bz) = prop
            emit(pack(t, roll, pitch, yaw, qw, qx, qy, qz, bx, by, bz))
            t_prev = t
    except ValueError as exc:
        raise ValueError(f"sample {i} (t={row[0]}): {exc}") from exc
    return Estimates(np.frombuffer(table).reshape(-1, 11))


def _dlkf_step(cfg, q0, bias_seed, on_epoch):
    prop = PropagatorState(q0, bias_seed)
    fs = FilterState.initial()
    r0, r1 = cfg.noise.Ra_nominal

    def step(row, dt, mag_due):
        nonlocal prop, fs
        prop = propagate(prop, row[1:4], dt)
        est = quat_to_euler(prop.q)

        fs = time_update(fs, prop.q, dt, cfg.noise)
        meas = accel_roll_pitch(row[4:7], cfg.noise)
        if meas is not None:
            roll, pitch, gamma2 = meas
            fs = accel_update(fs, (roll - est.roll, pitch - est.pitch),
                              (gamma2 * r0, gamma2 * r1))
        if mag_due:
            # tilt-compensate with the accel angles only while the
            # accel is fully trusted; a gated or de-weighted sample
            # would leak its linear-acceleration error into heading
            tilt = meas if meas is not None and meas[2] <= 1.0 else (est.roll, est.pitch)
            yaw_meas = mag_yaw(row[7:10], tilt[0], tilt[1])
            if yaw_meas is not None:
                fs = mag_update(fs, yaw_meas - est.yaw, cfg.noise.Rm)
        prop, fs = apply_correction(prop, fs, est)
        if on_epoch is not None:
            on_epoch(row[0], fs)
        return prop

    return step


_NO_MAG = (0.0, 0.0, 0.0)


def _cf_step(cfg, q0, bias_seed, on_epoch):
    # the bias is the PI integral, so it starts at zero, not at the seed
    prop = PropagatorState(q0, (0.0, 0.0, 0.0))

    def step(row, dt, mag_due):
        nonlocal prop
        prop = cf_update(prop, row[1:4], row[4:7], row[7:10] if mag_due else _NO_MAG,
                         dt, cfg.cf_kp, cfg.cf_ki)
        return prop

    return step


def _gyro_only_step(cfg, q0, bias_seed, on_epoch):
    # pure dead reckoning: no bias compensation, establishes the drift
    # the filters must remove
    prop = PropagatorState(q0, (0.0, 0.0, 0.0))

    def step(row, dt, mag_due):
        nonlocal prop
        prop = propagate(prop, row[1:4], dt)
        return prop

    return step


_STEPS = {"dlkf": _dlkf_step, "cf": _cf_step, "gyro-only": _gyro_only_step}
