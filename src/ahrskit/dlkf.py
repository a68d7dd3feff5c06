"""Six-state error-state Kalman filter with two sequential measurement layers.

State vector ``x = [d_roll, d_pitch, d_yaw, bias_x, bias_y, bias_z]``:
attitude-angle errors (rad) and residual gyro bias (rad/s), both small
quantities around the dead-reckoned attitude. The accelerometer layer
corrects roll/pitch, the magnetometer layer corrects yaw on the output
of the first layer, so the two layers together equal one joint update
while tolerating sensors that arrive at different rates.

Measurements follow the convention ``z = measured - estimated``, so the
converged state is the correction to add to the current estimate.
All functions are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

import numpy as np

from .geometry import EulerAngles, Quaternion, euler_to_quat, wrap_pi, wrap_yaw
from .propagation import PropagatorState

N_STATES = 6

_DEG2RAD_SQ = (math.pi / 180.0) ** 2

# The accelerometer layer observes the roll/pitch error states (0, 1);
# the magnetometer layer observes the yaw error state.
YAW_STATE = 2

_IDENTITY = np.eye(N_STATES)  # never written: mag_update works on a copy


class FilterState(NamedTuple):
    """Error state (6,) and covariance (6, 6)."""

    x: np.ndarray
    P: np.ndarray

    @classmethod
    def initial(cls) -> "FilterState":
        # zero error state, identity covariance; like the noise defaults
        # the identity is denominated in degrees and stored in rad^2
        return cls(np.zeros(N_STATES), np.eye(N_STATES) * _DEG2RAD_SQ)


def _default_Q() -> np.ndarray:
    # Per-step process noise, tuned in deg^2 and stored in rad^2:
    # 0.1e-4 deg^2 on the attitude errors, 0.01e-4 on the bias states.
    return np.diag([0.1, 0.1, 0.1, 0.01, 0.01, 0.01]) * 1e-4 * _DEG2RAD_SQ


def _default_Ra() -> np.ndarray:
    return np.diag([0.5, 5.0]) * _DEG2RAD_SQ


@dataclass(frozen=True)
class NoiseConfig:
    """Filter noise tuning.

    The default numeric values are denominated in degrees squared (the
    usual field-tuning convention) and converted to rad^2 here; override
    with rad^2 matrices if you tune in SI directly.

    Attributes:
        Q: (6, 6) per-step process noise, positive semi-definite.
        Ra_nominal: (2, 2) roll/pitch measurement noise at rest.
        Rm: scalar yaw measurement noise.
        tau_g: gyro-bias Markov correlation time, s.
        lambda_a: weight on | ||accel|| - g | in the accel-noise factor
            gamma^2, (m/s^2)^-1; 0 disables the adaptation (gamma^2 = 1).
        gamma2_max: ceiling on gamma^2.
        gravity: local gravity g, m/s^2, centre of gate and gamma^2 alike.
        accel_gate: norm gate, m/s^2: rejects | ||accel|| - g | above it.
    """

    Q: np.ndarray = field(default_factory=_default_Q)
    Ra_nominal: np.ndarray = field(default_factory=_default_Ra)
    Rm: float = 5.0 * _DEG2RAD_SQ
    tau_g: float = 100.0
    lambda_a: float = 5.0
    gamma2_max: float = 100.0
    gravity: float = 9.81
    accel_gate: float = 0.5

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Ra = np.asarray(self.Ra_nominal, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Ra_nominal", Ra)
        if (Q.shape != (N_STATES, N_STATES) or not np.isfinite(Q).all()
                or np.linalg.eigvalsh(Q).min() < 0.0):
            raise ValueError("Q must be a finite 6x6 positive semi-definite matrix")
        if (Ra.shape != (2, 2) or not np.isfinite(Ra).all()
                or np.linalg.eigvalsh(Ra).min() <= 0.0):
            raise ValueError("Ra_nominal must be a finite 2x2 positive definite matrix")
        if not 0.0 < self.Rm < math.inf:
            raise ValueError(f"Rm must be finite and > 0, got {self.Rm}")
        if not 0.0 < self.tau_g < math.inf:
            raise ValueError(f"tau_g must be finite and > 0, got {self.tau_g}")
        if not 0.0 <= self.lambda_a < math.inf:
            raise ValueError(f"lambda_a must be finite and >= 0, got {self.lambda_a}")
        if not 1.0 <= self.gamma2_max < math.inf:
            raise ValueError(f"gamma2_max must be finite and >= 1, got {self.gamma2_max}")
        if not 0.0 < self.gravity < math.inf:
            raise ValueError(f"gravity must be finite and > 0, got {self.gravity}")
        if not 0.0 < self.accel_gate < math.inf:
            raise ValueError(f"accel_gate must be finite and > 0, got {self.accel_gate}")


def _symmetrize(P: np.ndarray) -> np.ndarray:
    """Symmetrize a covariance this module just computed, in place."""
    P += P.T.copy()  # an explicit copy is cheaper than NumPy's overlap check
    P *= 0.5
    return P


def _all_finite(*arrays) -> bool:
    # A sum of squares is finite only if every entry is, so one cheap
    # product per array settles the common case; the exact test runs
    # only when that sum is not finite (a bad entry, or an overflow).
    if math.isfinite(sum(np.vdot(a, a) for a in arrays)):
        return True
    return all(np.isfinite(a).all() for a in arrays)


def transition_matrix(q: Quaternion, dt: float, tau_g: float) -> np.ndarray:
    """First-order discretization of the error dynamics, built in one call.

    Attitude errors integrate the residual body-frame bias mapped to
    Euler-angle rates; the bias states decay with the Markov time
    constant. The attitude-error states are Euler-angle errors (that is
    what the measurements observe), so the bias drives them through the
    body-rate to Euler-rate map E(roll, pitch), read off the bottom row
    of the DCM of q, not through the full body-to-navigation rotation:
    E is independent of yaw, which keeps the bias feedback loop stable
    at any heading. E is singular at pitch +-90 deg; the pitch cosine is
    floored at 1e-6 (error-state operation stays far from gimbal lock).

        [ I   -E dt            ]
        [ 0   (1 - dt/tau_g) I ]
    """
    w, x, y, z = q
    c20 = 2.0 * (x * z - w * y)  # quat_to_dcm's expressions
    c21 = 2.0 * (y * z + w * x)
    c22 = 1.0 - 2.0 * (x * x + y * y)
    sin_pitch = -c20
    cos_pitch = math.hypot(c21, c22)
    if cos_pitch < 1e-6:
        cos_pitch = 1e-6
    sin_roll = c21 / cos_pitch
    cos_roll = c22 / cos_pitch
    tan_pitch = sin_pitch / cos_pitch
    decay = 1.0 - dt / tau_g
    return np.array((
        1.0, 0.0, 0.0, -dt, -sin_roll * tan_pitch * dt, -cos_roll * tan_pitch * dt,
        0.0, 1.0, 0.0, 0.0, -cos_roll * dt, sin_roll * dt,
        0.0, 0.0, 1.0, 0.0, -sin_roll / cos_pitch * dt, -cos_roll / cos_pitch * dt,
        0.0, 0.0, 0.0, decay, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, decay, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, decay,
    ), dtype=float).reshape(N_STATES, N_STATES)


def time_update(fs: FilterState, q: Quaternion, dt: float,
                cfg: NoiseConfig) -> FilterState:
    """Propagate state and covariance one step at attitude `q`."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    trans = transition_matrix(q, dt, cfg.tau_g)
    # a non-finite q or dt shows up in trans
    if not _all_finite(fs.x, fs.P, trans):
        raise ValueError("time_update inputs must be finite")
    P = trans @ fs.P @ trans.T
    P += cfg.Q
    return FilterState(trans @ fs.x, _symmetrize(P))


def _require_pd_2x2(a: float, b: float, c: float) -> None:
    # The Cholesky recurrence on the lower triangle [[a, .], [b, c]],
    # with LAPACK's operations (b scaled by 1/sqrt(a)), so it fails
    # exactly where potrf does; unlike potrf it also fails on NaN.
    if a > 0.0:
        l10 = b * (1.0 / math.sqrt(a))
        if c - l10 * l10 > 0.0:
            return
    raise ValueError("Ra must be positive definite")


def accel_update(fs: FilterState, z1, Ra) -> FilterState:
    """First measurement layer: roll/pitch error observation.

    z1 is the 2-vector (measured - estimated) of roll and pitch, rad.
    With H selecting the roll/pitch states, HP is the first two rows P2
    of P and S = P[:2, :2] + Ra, so the gain K = P H^T S^-1 comes from
    the closed-form inverse of the 2x2 S. The covariance uses the Joseph
    form for numerical robustness, expanded for this H as
    P - K P2 - (K P2)^T + K S K^T.
    """
    Ra = np.asarray(Ra, dtype=float)
    if Ra.shape != (2, 2):
        raise ValueError(f"Ra must be a 2x2 matrix, got shape {Ra.shape}")
    (r00, r01), (r10, r11) = Ra.tolist()
    _require_pd_2x2(r00, r10, r11)
    x, P = fs
    (p00, p01), (p10, p11) = P[:2, :2].tolist()
    s00, s01, s10, s11 = p00 + r00, p01 + r01, p10 + r10, p11 + r11
    det = s00 * s11 - s01 * s10
    if det == 0.0:
        raise ValueError("innovation covariance is singular")
    inv_det = 1.0 / det
    gain = P[:, :2] @ np.array(((s11 * inv_det, -s01 * inv_det),
                                (-s10 * inv_det, s00 * inv_det)), dtype=float)
    x = x + gain @ (float(z1[0]) - x[0], float(z1[1]) - x[1])
    kp2 = gain @ P[:2]
    P = P - kp2
    P -= kp2.T
    P += gain @ np.array(((s00, s01), (s10, s11)), dtype=float) @ gain.T
    return FilterState(x, _symmetrize(P))


def mag_update(fs: FilterState, z2: float, Rm: float) -> FilterState:
    """Second measurement layer: yaw error observation.

    Runs on the output of accel_update so the pair is equivalent to one
    joint update. The innovation is wrapped to (-pi, pi] so headings on
    either side of north never produce a near-360-degree residual.
    """
    if Rm <= 0.0:
        raise ValueError(f"Rm must be positive, got {Rm}")
    s = fs.P[YAW_STATE, YAW_STATE] + Rm
    gain = fs.P[:, YAW_STATE] / s
    innov = wrap_pi(float(z2) - fs.x[YAW_STATE])
    x = fs.x + gain * innov
    ikh = _IDENTITY.copy()
    ikh[:, YAW_STATE] -= gain
    P = ikh @ fs.P @ ikh.T + np.outer(gain, gain) * Rm
    return FilterState(x, _symmetrize(P))


def apply_correction(prop: PropagatorState, fs: FilterState,
                     est: EulerAngles) -> Tuple[PropagatorState, FilterState]:
    """Feed the estimated errors back and reset the error state.

    `est` must be the Euler angles of `prop.q`; the caller already has
    them, since its measurement innovations are taken against them. The
    attitude-error estimate is added to those angles (the measurements
    are Euler-angle differences, so this is the consistent feedback);
    the bias estimate folds into the persistent accumulator that
    propagate() subtracts. The covariance is kept: only the state
    expectation moves to zero.
    """
    dx = fs.x.tolist()
    if not any(dx):
        return prop, fs
    corrected = EulerAngles(wrap_pi(est.roll + dx[0]),
                            est.pitch + dx[1],
                            wrap_yaw(est.yaw + dx[2]))
    q = euler_to_quat(corrected)
    bias = prop.bias + fs.x[3:6]
    return (PropagatorState(q, bias),
            FilterState(np.zeros(N_STATES), fs.P))
