"""Synthetic IMU/magnetometer data with exact attitude ground truth.

Trajectories are piecewise segments of constant body angular rate and
constant body-frame linear acceleration, so the true attitude integrates
exactly (one rotation-vector step per sample). Sensor errors follow a
constant-plus-first-order-Markov gyro bias with white noise, white
accelerometer noise on the specific force, and white noise on a rotated
unit magnetic field. Output is bit-reproducible for a given seed.

Only the recursions run per sample, on Python floats: the attitude,
`propagation._chain` over each segment's increment repeated, and the
Markov drift, folded in one gyro column at a time. The truth angles,
the DCM entries and the sensor columns are computed from the collected
attitudes over the whole log with elementwise NumPy arithmetic, no BLAS
product, so they are bit for bit the plain float arithmetic of one
sample at a time; the truth angles take `math`'s asin and atan2 mapped
over the columns (`geometry._euler_columns`), since NumPy's arcsin and
arctan2 round differently.

The log is one (N, 13) table, the table of the returned `SensorLog` (a
`_Table`, as a run's `Estimates` is), written in place: time, the
segment rates and accelerations and the truth angles first, then each
sensor's terms added into its own columns. Each noise block is drawn
just before it is added, in the order Markov, gyro, accel, mag, and the
DCM entries are dropped before the mag noise is drawn, so no step holds
a second copy of the table: the transient peak stays under three times
the table's size.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import (EulerAngles, _dcm_entries, _euler_columns, _new, euler_to_quat,
                       rotvec_to_quat)
from .propagation import _chain


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
    """Navigation-frame field direction and white noise (1/sqrt(Hz)). The
    direction is stored normalised, as Python floats."""

    field_ned: Tuple[float, float, float] = field(default_factory=_default_field)
    sigma_white: float = 0.0

    def __post_init__(self):
        x, y, z = map(float, self.field_ned)
        norm = math.sqrt(x * x + y * y + z * z)
        if not 0.0 < norm < math.inf:
            raise ValueError("magnetic field direction must be finite and non-zero")
        x, y, z = x / norm, y / norm, z / norm
        if math.hypot(x, y) <= 1e-9:
            raise ValueError("magnetic field needs a horizontal component for heading")
        object.__setattr__(self, "field_ned", (x, y, z))
        if not 0.0 <= self.sigma_white < math.inf:
            raise ValueError("sigma_white must be finite and >= 0")


class SensorRecord(NamedTuple):
    """One timestamped sample; truth is None in logs without truth. A
    `SensorLog` builds these with gyro, accel and mag as its table's rows."""

    t: float
    gyro: np.ndarray
    accel: np.ndarray
    mag: np.ndarray
    truth: Optional[EulerAngles] = None


_CHUNK = 1024  # table rows converted to Python floats at a time


def _fill_euler(angles: np.ndarray, quats: np.ndarray) -> None:
    """Write `quat_to_euler` of each row of the (N, 4) `quats` into the
    (N, 3) `angles` in place, `_CHUNK` rows at a time, so the conversion
    builds no (N,) temporary."""
    for start in range(0, len(quats), _CHUNK):
        rows = slice(start, start + _CHUNK)
        angles[rows] = np.column_stack(_euler_columns(*quats[rows].T))


def _check_times(t: np.ndarray, row: str = "sample") -> None:
    """Raise a ValueError naming the first `row` of the (N,) times `t`
    that is not finite or not greater than the one before."""
    bad = ~np.isfinite(t)
    bad[1:] |= ~(t[1:] > t[:-1])
    if bad.any():
        i = int(bad.argmax())
        t_i, t_prev = float(t[i]), float(t[i - 1])
        if i == 0:
            raise ValueError(f"{row} 0 (t={t_i}): timestamp not finite")
        fault = "not strictly increasing" if math.isfinite(t_i) else "not finite"
        raise ValueError(f"{row} {i} (t={t_i}): timestamps {fault} (previous t={t_prev})")


def _column(columns, doc: str) -> property:
    """A read-only view of some columns of the instance's `_table`."""
    return property(lambda self: self._table[:, columns], doc=doc)


class _Table(Sequence):
    """An immutable sequence over one (N, width) float64 table, width in
    the subclass's `_WIDTHS`, held through a read-only buffer: no copy,
    and the flag cannot be set back. Iteration and indexing build the
    elements on demand through the subclass's `_elements()`, a chunk of
    at most `_CHUNK` rows at a time; a slice is a table over a view."""

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        if table.dtype != np.float64 or table.ndim != 2 or \
                table.shape[1] not in self._WIDTHS:
            widths = " or ".join(f"(N, {w})" for w in self._WIDTHS)
            raise ValueError(f"expected an {widths} float64 table, "
                             f"got {table.dtype} {table.shape}")
        self._table = np.asarray(memoryview(table).toreadonly())

    table = _column(slice(None), "The whole table, read-only.")

    def rows(self) -> Iterator[Tuple[float, ...]]:
        """Each row as a tuple of Python floats. A chunk's columns become
        lists and `zip` builds one row at a time, so no chunk of
        GC-tracked rows is allocated at once."""
        return chain.from_iterable(zip(*self._table[start:start + _CHUNK].T.tolist())
                                   for start in range(0, len(self), _CHUNK))

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(self._table[index])
        i = range(len(self))[index]
        return next(self[i:i + 1]._elements())

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self[start:start + _CHUNK]._elements()
                                   for start in range(0, len(self), _CHUNK))


class SensorLog(_Table):
    """A sensor log: a `_Table` of `SensorRecord` in the log-CSV column
    order, (N, 10) for t, gx, gy, gz, ax, ay, az, mx, my, mz
    (`logio.LOG_HEADER`) or (N, 13) with true roll, pitch and yaw after
    them (`logio.LOG_TRUTH_HEADER`). The columns are views of the table;
    `truth` is None for 10 columns."""

    __slots__ = ()
    _WIDTHS = (10, 13)

    @classmethod
    def of(cls, records: Sequence[SensorRecord]) -> "SensorLog":
        """A new log of the records' values, with truth if every record
        carries it and without if none does; a list where only some
        records carry it is a ValueError. A caller with records converts
        them here once, since every other entry point takes a log."""
        if not records:
            return cls(np.empty((0, 10)))
        *columns, truth = zip(*records)
        n_bare = sum([e is None for e in truth])
        if 0 < n_bare < len(truth):
            raise ValueError("truth must be present for all records or none")
        if not n_bare:
            columns.append(truth)
        return cls(np.column_stack(columns).astype(float, copy=False))

    t = _column(0, "(N,) sample times, s.")
    gyro = _column(slice(1, 4), "(N, 3) body angular rate, rad/s.")
    accel = _column(slice(4, 7), "(N, 3) specific force, m/s^2.")
    mag = _column(slice(7, 10), "(N, 3) magnetic field, unit-normalized.")
    truth = property(lambda self: self._table[:, 10:] if self._table.shape[1] == 13
                     else None, doc="(N, 3) true roll, pitch and yaw, rad, or None.")

    def _elements(self) -> Iterator[SensorRecord]:
        truth = repeat(None) if self.truth is None else \
            map(_new, repeat(EulerAngles), zip(*self.truth.T.tolist()))
        return map(_new, repeat(SensorRecord),
                   zip(self.t.tolist(), self.gyro, self.accel, self.mag, truth))


def simulate(traj: TrajectorySpec, gyro_model: GyroModel, accel_model: AccelModel,
             mag_model: MagModel, rate: float, seed: int) -> SensorLog:
    """Generate a sensor log with truth at `rate` Hz along a trajectory.

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

    table = np.empty((n_total, 13))  # the log, written in place column by column
    table[:, 0] = np.arange(1, n_total + 1) * dt
    gyro, accel, mag = table[:, 1:4], table[:, 4:7], table[:, 7:10]
    # per sample, on floats: the attitude, each segment's increment repeated
    q = euler_to_quat(traj.initial_attitude)
    quats = array("d")
    for seg, n_steps, stop in zip(traj.segments, steps_per_seg, accumulate(steps_per_seg)):
        gyro[stop - n_steps:stop] = seg.rate
        accel[stop - n_steps:stop] = seg.accel
        q = _chain(q, repeat(rotvec_to_quat([r * dt for r in seg.rate]), n_steps), quats)
    quats = np.frombuffer(quats).reshape(n_total, 4)
    _fill_euler(table[:, 10:13], quats)

    # gyro: ((omega + bias) + drift) + white noise, where sample k of the
    # Markov drift carries the state before its update
    rng = np.random.default_rng(seed)
    markov_w = rng.normal(0.0, gyro_model.sigma_markov * math.sqrt(dt), (n_total, 3))
    gyro += gyro_model.bias
    if gyro_model.sigma_markov > 0.0:  # else every drift term is exactly 0.0
        markov_decay = 1.0 - dt / gyro_model.tau
        for j in range(3):
            gyro[:, j] += np.fromiter(
                accumulate(markov_w[:-1, j].tolist(),
                           lambda d, w: markov_decay * d + w, initial=0.0),
                float, n_total)
    del markov_w
    gyro += rng.normal(0.0, gyro_model.sigma_white * math.sqrt(rate), (n_total, 3))

    # accel and mag from the DCM of every sample at once
    c = _dcm_entries(*quats.T)  # nine (N,) columns
    del quats
    g = -accel_model.gravity
    for j in range(3):  # lin_acc + (-g * c) is bit for bit (-g * c) + lin_acc
        accel[:, j] += g * c[6 + j]
    accel += rng.normal(0.0, accel_model.sigma_white * math.sqrt(rate), (n_total, 3))
    f0, f1, f2 = mag_model.field_ned
    for j in range(3):
        mag[:, j] = f0 * c[j] + f1 * c[3 + j] + f2 * c[6 + j]
    del c
    mag += rng.normal(0.0, mag_model.sigma_white * math.sqrt(rate), (n_total, 3))
    return SensorLog(table)


def truth_array(log: SensorLog) -> np.ndarray:
    """A copy of the log's (N, 3) roll/pitch/yaw truth; raises without truth."""
    truth = log.truth
    if truth is None:
        raise ValueError("log has no ground truth")
    return truth.copy()
