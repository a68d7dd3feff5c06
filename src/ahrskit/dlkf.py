"""Six-state error-state Kalman filter with two sequential measurement layers.

State vector ``x = [d_roll, d_pitch, d_yaw, bias_x, bias_y, bias_z]``:
attitude-angle errors (rad) and residual gyro bias (rad/s), both small
quantities around the dead-reckoned attitude. The accelerometer layer
corrects roll/pitch, the magnetometer layer corrects yaw on the output
of the first layer, so the two layers together equal one joint update
while tolerating sensors that arrive at different rates.

The filter state is held as Python floats: six for x and the 21 of the
upper triangle of the symmetric covariance P. At this size one NumPy
call costs more than the arithmetic it does, so every step works on the
packed floats, unpacked into named local floats with every entry
written out as one expression. Storing one triangle keeps P exactly
symmetric, which removes the usual weakness of the standard form
P - K H P that the measurement updates use.

Each measurement observes one error state directly, so every update is
one scalar update: the gain is a column of P over one innovation
variance, and P loses a rank-1 term. The magnetometer layer is one such
update on yaw; the accelerometer layer is one on roll and then one on
pitch. That chain equals the joint 2-row update because the roll and
pitch noise are uncorrelated: every noise, Q included, is held as one
variance per error state or measured angle. No update inverts or
factorises a matrix.

Measurements follow the convention ``z = measured - estimated``, in any
range, so the converged state is the correction to add to the estimate.
All functions are pure: they return new states and never mutate inputs.

This module holds the filter's state, its tuning and its measurement
layers. A run does not call the layers: `pipeline._dlkf_step` runs the
whole epoch (propagation, time update, both layers and the feedback
correction) on local floats, its updates being `_observe`'s body,
written once and applied to each of the epoch's observations in turn:
roll and pitch, as `accel_update` orders them, then yaw. That step's
comment derives the time update. `accel_update` and `mag_update` stay as
the layers the two-layer equivalence is stated and tested on, and
`tests/test_dlkf_epoch.py` pins the fused epoch to a chain of them bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from operator import itemgetter
from typing import Tuple

import numpy as np

from .geometry import wrap_pi

N_STATES = 6

_DEG2RAD_SQ = (math.pi / 180.0) ** 2

# Packed covariance: the upper triangle row by row, P00..P05, P11..P15,
# P22..P25, P33..P35, P44, P45, P55. _UNPACK holds the packed index of
# every entry of the full matrix.
_ROWS, _COLS = (tuple(a.tolist()) for a in np.triu_indices(N_STATES))
_UNPACK = np.empty((N_STATES, N_STATES), dtype=np.intp)
_UNPACK[_ROWS, _COLS] = _UNPACK[_COLS, _ROWS] = np.arange(len(_ROWS))
# _COLUMNS[i](p) is column i of the packed P as a 6-tuple
_COLUMNS = tuple(itemgetter(*row) for row in _UNPACK.tolist())
_ZERO_X = (0.0,) * N_STATES


def _pack(P: np.ndarray) -> tuple:
    """The upper triangle of (P + P^T) / 2; a symmetric P packs unchanged."""
    return tuple(((P + P.T) * 0.5)[_ROWS, _COLS].tolist())


class FilterState:
    """Error state (6,) and covariance (6, 6), stored as Python floats.

    Built from arrays, it keeps x as six floats and P as the 21 floats of
    the upper triangle of (P + P^T) / 2. `x` and `P` unpack them into new
    arrays on every read, so a symmetric P round-trips bit for bit.
    """

    __slots__ = ("_x", "_p")

    def __init__(self, x, P):
        x = np.asarray(x, dtype=float)
        P = np.asarray(P, dtype=float)
        if x.shape != (N_STATES,) or P.shape != (N_STATES, N_STATES):
            raise ValueError(f"x must be a 6-vector and P a 6x6 matrix, "
                             f"got shapes {x.shape} and {P.shape}")
        self._x = tuple(x.tolist())
        self._p = _pack(P)

    @classmethod
    def initial(cls) -> "FilterState":
        # zero error state, identity covariance; like the noise defaults
        # the identity is denominated in degrees and stored in rad^2
        return _packed(_ZERO_X, tuple([_DEG2RAD_SQ if i == j else 0.0
                                       for i, j in zip(_ROWS, _COLS)]))

    @property
    def x(self) -> np.ndarray:
        return np.array(self._x)

    @property
    def P(self) -> np.ndarray:
        return np.array(self._p)[_UNPACK]

    def __repr__(self) -> str:
        return f"FilterState(x={self.x!r}, P={self.P!r})"


def _packed(x: tuple, p: tuple) -> FilterState:
    """A FilterState around tuples the layers computed, without conversion."""
    fs = object.__new__(FilterState)
    fs._x, fs._p = x, p
    return fs


def _variances(name: str, values, n: int, zero_ok: bool) -> Tuple[float, ...]:
    """`values` as n Python floats, each finite and > 0 (>= 0 if
    `zero_ok`); a matrix of them, or anything else, is a ValueError."""
    try:
        out = tuple([float(v) if isinstance(v, Real) else math.nan for v in values])
    except TypeError:
        out = ()
    if len(out) != n or not all((0.0 <= v if zero_ok else 0.0 < v) and v < math.inf
                                for v in out):
        raise ValueError(f"{name} must be {'two' if n == 2 else 'six'} finite "
                         f"variances {'>=' if zero_ok else '>'} 0, got {values!r}")
    return out


@dataclass(frozen=True)
class NoiseConfig:
    """Filter noise tuning.

    The default numeric values are denominated in degrees squared (the
    usual field-tuning convention) and converted to rad^2 here; override
    with rad^2 variances if you tune in SI directly.

    Attributes:
        Q: six per-step process-noise variances, one per error state
            (roll, pitch, yaw, three bias states), each finite and >= 0.
        Ra_nominal: two roll and pitch measurement-noise variances at
            rest, each finite and > 0.
        Rm: yaw measurement-noise variance.
        tau_g: gyro-bias Markov correlation time, s.
        lambda_a: weight on | ||accel|| - g | in the accel-noise factor
            gamma^2, (m/s^2)^-1; 0 disables the adaptation (gamma^2 = 1).
        gamma2_max: ceiling on gamma^2.
        gravity: local gravity g, m/s^2, centre of gate and gamma^2 alike.
        accel_gate: norm gate, m/s^2: rejects | ||accel|| - g | above it.
    """

    Q: Tuple[float, ...] = tuple([v * 1e-4 * _DEG2RAD_SQ
                                  for v in (0.1, 0.1, 0.1, 0.01, 0.01, 0.01)])
    Ra_nominal: Tuple[float, float] = (0.5 * _DEG2RAD_SQ, 5.0 * _DEG2RAD_SQ)
    Rm: float = 5.0 * _DEG2RAD_SQ
    tau_g: float = 100.0
    lambda_a: float = 5.0
    gamma2_max: float = 100.0
    gravity: float = 9.81
    accel_gate: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "Q", _variances("Q", self.Q, N_STATES, zero_ok=True))
        object.__setattr__(self, "Ra_nominal",
                           _variances("Ra_nominal", self.Ra_nominal, 2, zero_ok=False))
        for name, low, op in (("Rm", 0.0, ">"), ("tau_g", 0.0, ">"),
                              ("lambda_a", 0.0, ">="), ("gamma2_max", 1.0, ">="),
                              ("gravity", 0.0, ">"), ("accel_gate", 0.0, ">")):
            v = getattr(self, name)
            if not (isinstance(v, Real) and (v > low if op == ">" else v >= low)
                    and v < math.inf):
                raise ValueError(f"{name} must be finite and {op} {low:g}, got {v!r}")


def _observe(fs: FilterState, i: int, z: float, r: float) -> FilterState:
    """Scalar update on a direct observation of error state `i`.

    `z` is measured minus estimated, a real number in any range; the
    innovation is z - x[i] wrapped to (-pi, pi], so no angle near
    +-180 deg yields a 2 pi residual. `r` is its variance, finite and > 0
    as the caller has checked. H selects state i, so the gain is column
    i of P over s = P[i, i] + r, and P takes the standard form
    P - K (P H^T)^T, a rank-1 update computed on the packed upper
    triangle.
    """
    if not isinstance(z, Real):  # float() would parse a string
        raise ValueError(f"innovation must be a real number, got {z!r}")
    x0, x1, x2, x3, x4, x5 = x = fs._x
    innov = wrap_pi(float(z) - x[i])
    p = fs._p
    (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15,
     p22, p23, p24, p25, p33, p34, p35, p44, p45, p55) = p
    h = _COLUMNS[i](p)
    h0, h1, h2, h3, h4, h5 = h
    s = h[i] + r
    if not s > 0.0:
        # only a P that is not positive semi-definite gets here
        raise ValueError(f"innovation variance must be > 0, got {s}")
    g0, g1, g2, g3, g4, g5 = h0 / s, h1 / s, h2 / s, h3 / s, h4 / s, h5 / s
    x = (x0 + g0 * innov, x1 + g1 * innov, x2 + g2 * innov,
         x3 + g3 * innov, x4 + g4 * innov, x5 + g5 * innov)
    p = (p00 - g0 * h0, p01 - g0 * h1, p02 - g0 * h2,
         p03 - g0 * h3, p04 - g0 * h4, p05 - g0 * h5,
         p11 - g1 * h1, p12 - g1 * h2, p13 - g1 * h3, p14 - g1 * h4, p15 - g1 * h5,
         p22 - g2 * h2, p23 - g2 * h3, p24 - g2 * h4, p25 - g2 * h5,
         p33 - g3 * h3, p34 - g3 * h4, p35 - g3 * h5,
         p44 - g4 * h4, p45 - g4 * h5,
         p55 - g5 * h5)
    return _packed(x, p)


def accel_update(fs: FilterState, z1, ra) -> FilterState:
    """First measurement layer: roll/pitch error observation.

    z1 is the roll and pitch (measured - estimated), rad, in any range,
    and ra their two variances, real numbers. The layer is one scalar
    update on roll and then one on pitch, against the state the roll
    update left; with uncorrelated noise that chain is the joint update.
    """
    try:
        r0, r1 = ra
        # math.isfinite takes only a real scalar: an array is a TypeError
        ok = 0.0 < r0 and 0.0 < r1 and math.isfinite(r0) and math.isfinite(r1)
    except (TypeError, ValueError):  # not two real numbers
        ok = False
    if not ok:
        raise ValueError(f"ra must be two finite variances > 0, got {ra!r}")
    return _observe(_observe(fs, 0, z1[0], r0), 1, z1[1], r1)


def mag_update(fs: FilterState, z2: float, Rm: float) -> FilterState:
    """Second measurement layer: yaw error observation.

    z2 is the yaw (measured - estimated), rad, in any range, and Rm its
    variance, a real number. Runs on the output of accel_update so the
    pair is equivalent to one joint update.
    """
    try:
        ok = 0.0 < Rm and math.isfinite(Rm)
    except (TypeError, ValueError):  # not a real number
        ok = False
    if not ok:
        raise ValueError(f"Rm must be finite and > 0, got {Rm!r}")
    return _observe(fs, 2, z2, Rm)
