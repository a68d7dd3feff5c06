"""End-to-end fusion loop: alignment, per-sample estimation, emission.

One driver serves every algorithm: it owns the clock, the mag-epoch
schedule, the per-sample error context and the emitted estimates. It
reads the rows of a `SensorLog`'s table as Python floats, packs each
sample's t, quaternion and gyro bias into one 11-float row of an
`array("d")`, with zeros for the Euler angles, and returns the whole run
as `Estimates`, one read-only (N, 11) table, so no per-sample object
outlives its step. Each algorithm is a factory in `_STEPS` returning
`step(row, dt, mag_due)`, a closure over its own estimator state; `row`
is the sample's floats in log-CSV column order (t, gyro, accel, mag[,
truth]), and the step returns the attitude and bias after `t` as seven
floats: qw..qz, bx..bz. So a step builds no Quaternion. After the loop
the driver fills the Euler columns from the quaternion columns in
place, `_CHUNK` rows at a time, with `_euler_columns`, the column form
of `quat_to_euler`, bit for bit the per-sample conversion. Every step
emits a finite attitude or raises: where a dlkf correction turns the
attitude NaN, the step raises the conversion's own error, so a run
stops at the sample where a per-sample conversion would, and the fill
finds no row to reject.

Every step keeps its attitude and bias as floats and integrates the
gyro with `propagation._propagated`. They differ in the correction:
none for gyro-only, the PI feedback of `complementary._cf_step` for cf,
and the filter epoch of `_dlkf_step` for dlkf. Each step is the only
writing of its estimator in the package; `tests/test_dlkf_epoch.py` and
`tests/test_fused_steps.py` hold each bit for bit equal to a reference
written as a chain of layers in the tests, with its checks and messages.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .complementary import _cf_step
from .dlkf import _ZERO_X, FilterState, NoiseConfig, _packed
from .fasteuler import accel_roll_pitch, mag_yaw
from .geometry import (EulerAngles, Quaternion, _euler_angles, _new, euler_to_quat,
                       wrap_pi, wrap_yaw)
from .propagation import _propagated
from .simulate import SensorLog, _check_times, _column, _fill_euler, _Table

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


# one estimate: t, then roll..yaw as zero bytes (+0.0) that the run
# fills after its loop, then qw..qz, bgx..bgz
_ROW = struct.Struct("d24x7d")


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
            emit(pack(t, *step(row, dt, mag_due)))
            t_prev = t
    except ValueError as exc:
        raise ValueError(f"sample {i} (t={row[0]}): {exc}") from exc
    table = np.frombuffer(table).reshape(-1, 11)
    _fill_euler(table[:, 1:4], table[:, 4:8])
    return Estimates(table)


def _dlkf_step(cfg, q0, bias_seed, on_epoch):
    # One filter epoch on local floats: the gyro step through
    # _propagated, the angles the innovations are taken against through
    # _euler_angles, the time update, the measurement layers, and the
    # feedback correction. q, the bias, x and the packed P are the state
    # between epochs.
    #
    # The time update is the first-order discretisation of the error
    # dynamics:
    #
    #     F = [ I   G   ]    G = -E(roll, pitch) dt,  d = 1 - dt/tau_g
    #         [ 0   d I ]
    #
    # The attitude errors integrate the residual body-frame bias mapped to
    # Euler-angle rates; the bias states decay with the Markov time
    # constant. The attitude-error states are Euler-angle errors (that is
    # what the measurements observe), so the bias drives them through the
    # body-rate to Euler-rate map E(roll, pitch), read off the bottom row
    # of the DCM of q, not through the full body-to-navigation rotation: E
    # is independent of yaw, which keeps the bias feedback loop stable at
    # any heading. E is singular at pitch +-90 deg; the pitch cosine is
    # floored at 1e-6 (error-state operation stays far from gimbal lock).
    # With P = [[A, B], [B^T, C]] and M = B + G C, F P F^T + diag(Q) is
    # computed by blocks: A' = (A + G B^T) + M G^T, B' = d M, C' = (d C) d,
    # each sum taken in the order of the full matrix product, and each
    # variance of Q added to its diagonal entry.
    #
    # Then two phases: accel_roll_pitch and mag_yaw give the measured
    # angles, which become the epoch's observations (error state,
    # measured - estimated, variance), and one scalar-update body, that
    # of `dlkf._observe`, applies them in the order roll, pitch, yaw. A
    # gated accelerometer or an off-epoch magnetometer adds no
    # observation; the covariance flows on. Last, the error state folds
    # into the Euler angles (the measurements are Euler-angle
    # differences, so this is the consistent feedback) and the bias
    # accumulator, and resets to zero; the covariance is kept.
    noise = cfg.noise
    Q0, Q1, Q2, Q3, Q4, Q5 = noise.Q
    r0, r1 = noise.Ra_nominal
    rm, tau_g = noise.Rm, noise.tau_g
    q, bias = q0, bias_seed
    x, p = _ZERO_X, FilterState.initial()._p
    # bound once: a closure variable reads faster than a module attribute
    sqrt, sin, cos, hypot = math.sqrt, math.sin, math.cos, math.hypot
    isfinite = math.isfinite

    def step(row, dt, mag_due):
        nonlocal q, bias, x, p
        bx, by, bz = bias
        qw, qx, qy, qz = q = _propagated(*q, row[1], row[2], row[3], bx, by, bz, dt)
        # the angles every innovation is taken against
        est_roll, est_pitch, est_yaw = _euler_angles(qw, qx, qy, qz)

        # the time update, with G from the bottom row of the DCM of q
        c20 = 2.0 * (qx * qz - qw * qy)
        c21 = 2.0 * (qy * qz + qw * qx)
        c22 = 1.0 - 2.0 * (qx * qx + qy * qy)
        sin_pitch = -c20
        cos_pitch = hypot(c21, c22)
        if cos_pitch < 1e-6:
            cos_pitch = 1e-6
        sin_roll = c21 / cos_pitch
        cos_roll = c22 / cos_pitch
        tan_pitch = sin_pitch / cos_pitch
        g00, g01, g02 = -dt, -sin_roll * tan_pitch * dt, -cos_roll * tan_pitch * dt
        g11, g12 = -cos_roll * dt, sin_roll * dt
        g21, g22 = -sin_roll / cos_pitch * dt, -cos_roll / cos_pitch * dt
        d = 1.0 - dt / tau_g

        x0, x1, x2, x3, x4, x5 = x
        (a00, a01, a02, b00, b01, b02, a11, a12, b10, b11, b12,
         a22, b20, b21, b22, c00, c01, c02, c11, c12, c22) = p
        m00 = b00 + g00 * c00 + g01 * c01 + g02 * c02
        m01 = b01 + g00 * c01 + g01 * c11 + g02 * c12
        m02 = b02 + g00 * c02 + g01 * c12 + g02 * c22
        m10 = b10 + g11 * c01 + g12 * c02
        m11 = b11 + g11 * c11 + g12 * c12
        m12 = b12 + g11 * c12 + g12 * c22
        m20 = b20 + g21 * c01 + g22 * c02
        m21 = b21 + g21 * c11 + g22 * c12
        m22 = b22 + g21 * c12 + g22 * c22
        x0 = x0 + g00 * x3 + g01 * x4 + g02 * x5
        x1 = x1 + g11 * x4 + g12 * x5
        x2 = x2 + g21 * x4 + g22 * x5
        x3, x4, x5 = d * x3, d * x4, d * x5
        p00 = (a00 + g00 * b00 + g01 * b01 + g02 * b02 + m00 * g00 + m01 * g01
               + m02 * g02 + Q0)
        p01 = a01 + g00 * b10 + g01 * b11 + g02 * b12 + m01 * g11 + m02 * g12
        p02 = a02 + g00 * b20 + g01 * b21 + g02 * b22 + m01 * g21 + m02 * g22
        p03, p04, p05 = d * m00, d * m01, d * m02
        p11 = a11 + g11 * b11 + g12 * b12 + m11 * g11 + m12 * g12 + Q1
        p12 = a12 + g11 * b21 + g12 * b22 + m11 * g21 + m12 * g22
        p13, p14, p15 = d * m10, d * m11, d * m12
        p22 = a22 + g21 * b21 + g22 * b22 + m21 * g21 + m22 * g22 + Q2
        p23, p24, p25 = d * m20, d * m21, d * m22
        p33, p34, p35 = d * c00 * d + Q3, d * c01 * d, d * c02 * d
        p44, p45, p55 = d * c11 * d + Q4, d * c12 * d, d * c22 * d + Q5
        # a non-finite input leaves a non-finite sum; only then look at
        # the inputs, as an overflow is no error of theirs
        if not isfinite(x0 + x1 + x2 + x3 + x4 + x5 + p00 + p01 + p02 + p03 + p04
                        + p05 + p11 + p12 + p13 + p14 + p15 + p22 + p23 + p24 + p25
                        + p33 + p34 + p35 + p44 + p45 + p55) and not all(
                map(isfinite, (*x, *p, qw, qx, qy, qz, dt))):
            raise ValueError("time_update inputs must be finite")

        # the observations: (error state, measured - estimated, variance)
        obs = []
        meas = accel_roll_pitch(row[4:7], noise)
        if meas is not None:
            roll_m, pitch_m, gamma2 = meas
            ra0, ra1 = gamma2 * r0, gamma2 * r1
            # gamma^2 >= 1 and Ra_nominal > 0: only an overflow fails here
            if not (isfinite(ra0) and isfinite(ra1)):
                raise ValueError(f"ra must be two finite variances > 0, got {(ra0, ra1)!r}")
            obs += (0, roll_m - est_roll, ra0), (1, pitch_m - est_pitch, ra1)
        if mag_due:
            # tilt-compensate with the accel angles only while the accel
            # is fully trusted; a gated or de-weighted sample would leak
            # its linear-acceleration error into heading
            if meas is not None and gamma2 <= 1.0:
                yaw_m = mag_yaw(row[7:10], roll_m, pitch_m)
            else:
                yaw_m = mag_yaw(row[7:10], est_roll, est_pitch)
            if yaw_m is not None:
                obs.append((2, yaw_m - est_yaw, rm))

        # the updates: `_observe` on each observation in turn
        for i, z, r in obs:
            if i == 0:  # h is column i of P
                h0, h1, h2, h3, h4, h5 = p00, p01, p02, p03, p04, p05
                innov, s = z - x0, h0 + r
            elif i == 1:
                h0, h1, h2, h3, h4, h5 = p01, p11, p12, p13, p14, p15
                innov, s = z - x1, h1 + r
            else:
                h0, h1, h2, h3, h4, h5 = p02, p12, p22, p23, p24, p25
                innov, s = z - x2, h2 + r
            innov = wrap_pi(innov)
            if not s > 0.0:
                raise ValueError(f"innovation variance must be > 0, got {s}")
            k0, k1, k2, k3, k4, k5 = h0 / s, h1 / s, h2 / s, h3 / s, h4 / s, h5 / s
            x0, x1, x2 = x0 + k0 * innov, x1 + k1 * innov, x2 + k2 * innov
            x3, x4, x5 = x3 + k3 * innov, x4 + k4 * innov, x5 + k5 * innov
            p00, p01, p02 = p00 - k0 * h0, p01 - k0 * h1, p02 - k0 * h2
            p03, p04, p05 = p03 - k0 * h3, p04 - k0 * h4, p05 - k0 * h5
            p11, p12, p13 = p11 - k1 * h1, p12 - k1 * h2, p13 - k1 * h3
            p14, p15 = p14 - k1 * h4, p15 - k1 * h5
            p22, p23, p24, p25 = p22 - k2 * h2, p23 - k2 * h3, p24 - k2 * h4, p25 - k2 * h5
            p33, p34, p35 = p33 - k3 * h3, p34 - k3 * h4, p35 - k3 * h5
            p44, p45, p55 = p44 - k4 * h4, p45 - k4 * h5, p55 - k5 * h5

        p = (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15,
             p22, p23, p24, p25, p33, p34, p35, p44, p45, p55)
        # the feedback: the error state folds into the Euler angles and
        # the bias accumulator, then resets to zero
        if x0 or x1 or x2 or x3 or x4 or x5:
            roll = wrap_pi(est_roll + x0)
            pitch = est_pitch + x1
            yaw = wrap_yaw(est_yaw + x2)
            cr, sr = cos(0.5 * roll), sin(0.5 * roll)
            cp, sp = cos(0.5 * pitch), sin(0.5 * pitch)
            cy, sy = cos(0.5 * yaw), sin(0.5 * yaw)
            qw = cr * cp * cy + sr * sp * sy
            qx = sr * cp * cy - cr * sp * sy
            qy = cr * sp * cy + sr * cp * sy
            qz = cr * cp * sy - sr * sp * cy
            n = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            if not n > 0.0:
                if n == 0.0:
                    raise ValueError("cannot normalize a zero quaternion")
                # a NaN correction (an overflowed P's gain of inf/inf)
                # stops the run here, with the error its angles raise
                raise ValueError("yaw must be finite, got nan")
            inv = 1.0 / n
            if qw < 0.0:
                inv = -inv
            qw, qx, qy, qz = q = qw * inv, qx * inv, qy * inv, qz * inv
            bx, by, bz = bias = (bx + x3, by + x4, bz + x5)
            x = _ZERO_X
        else:
            x = (x0, x1, x2, x3, x4, x5)
        if on_epoch is not None:
            on_epoch(row[0], _packed(x, p))
        return qw, qx, qy, qz, bx, by, bz

    return step


def _gyro_only_step(cfg, q0, bias_seed, on_epoch):
    # pure dead reckoning: no bias compensation, establishes the drift
    # the filters must remove
    q = q0

    def step(row, dt, mag_due):
        nonlocal q
        qw, qx, qy, qz = q = _propagated(*q, row[1], row[2], row[3], 0.0, 0.0, 0.0, dt)
        return qw, qx, qy, qz, 0.0, 0.0, 0.0

    return step


_STEPS = {"dlkf": _dlkf_step, "cf": _cf_step, "gyro-only": _gyro_only_step}
