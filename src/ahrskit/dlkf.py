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

from .geometry import EulerAngles, euler_to_quat, quat_to_euler, wrap_pi, wrap_yaw
from .propagation import PropagatorState

N_STATES = 6

_DEG2RAD_SQ = (math.pi / 180.0) ** 2

# Accelerometer measurement matrix selects the roll/pitch error states;
# the magnetometer layer observes the yaw error state (index 2).
H_ACCEL = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
YAW_STATE = 2


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
        lambda_a: adaptive weight on | ||accel|| - g |, (m/s^2)^-1;
            0 disables the adaptation (the factor stays at 1).
        gamma2_max: ceiling on the adaptive factor.
        gravity: local gravity, m/s^2.
    """

    Q: np.ndarray = field(default_factory=_default_Q)
    Ra_nominal: np.ndarray = field(default_factory=_default_Ra)
    Rm: float = 5.0 * _DEG2RAD_SQ
    tau_g: float = 100.0
    lambda_a: float = 5.0
    gamma2_max: float = 100.0
    gravity: float = 9.81

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Ra = np.asarray(self.Ra_nominal, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Ra_nominal", Ra)
        if Q.shape != (N_STATES, N_STATES) or np.linalg.eigvalsh(Q).min() < 0.0:
            raise ValueError("Q must be a 6x6 positive semi-definite matrix")
        if Ra.shape != (2, 2) or np.linalg.eigvalsh(Ra).min() <= 0.0:
            raise ValueError("Ra_nominal must be a 2x2 positive definite matrix")
        if self.Rm <= 0.0:
            raise ValueError(f"Rm must be positive, got {self.Rm}")
        if self.tau_g <= 0.0:
            raise ValueError(f"tau_g must be positive, got {self.tau_g}")
        if self.lambda_a < 0.0:
            raise ValueError(f"lambda_a must be non-negative, got {self.lambda_a}")
        if self.gamma2_max < 1.0:
            raise ValueError(f"gamma2_max must be >= 1, got {self.gamma2_max}")
        if self.gravity <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def _euler_rate_matrix(cbn: np.ndarray) -> np.ndarray:
    """Body-rate to Euler-rate map E(roll, pitch) read off the DCM.

    The attitude-error states are Euler-angle errors (that is what the
    measurements observe), so a residual body-frame gyro bias drives
    them through E, not through the full body-to-navigation rotation:
    E is independent of yaw, which keeps the bias feedback loop stable
    at any heading. Singular at pitch +-90 deg; the pitch cosine is
    floored at 1e-6 (error-state operation stays far from gimbal lock).
    """
    sin_pitch = -cbn[2, 0]
    cos_pitch = math.hypot(cbn[2, 1], cbn[2, 2])
    if cos_pitch < 1e-6:
        cos_pitch = 1e-6
    sin_roll = cbn[2, 1] / cos_pitch
    cos_roll = cbn[2, 2] / cos_pitch
    tan_pitch = sin_pitch / cos_pitch
    return np.array([
        [1.0, sin_roll * tan_pitch, cos_roll * tan_pitch],
        [0.0, cos_roll, -sin_roll],
        [0.0, sin_roll / cos_pitch, cos_roll / cos_pitch],
    ])


def transition_matrix(cbn: np.ndarray, dt: float, tau_g: float) -> np.ndarray:
    """First-order discretization of the error dynamics.

    Attitude errors integrate the residual body-frame bias mapped to
    Euler-angle rates; the bias states decay with the Markov time
    constant.
    """
    trans = np.eye(N_STATES)
    trans[0:3, 3:6] = -_euler_rate_matrix(cbn) * dt
    trans[3:6, 3:6] *= 1.0 - dt / tau_g
    return trans


def time_update(fs: FilterState, cbn: np.ndarray, dt: float,
                cfg: NoiseConfig) -> FilterState:
    """Propagate state and covariance one step."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.isfinite(fs.x).all() and np.isfinite(fs.P).all()
            and np.isfinite(cbn).all()):
        raise ValueError("time_update inputs must be finite")
    trans = transition_matrix(cbn, dt, cfg.tau_g)
    x = trans @ fs.x
    P = trans @ fs.P @ trans.T + cfg.Q
    return FilterState(x, _symmetrize(P))


def adaptive_factor(accel, cfg: NoiseConfig) -> float:
    """Measurement-noise multiplier for the current accelerometer sample.

    Grows with | ||accel|| - g |, de-weighting the accelerometer while
    the vehicle maneuvers; clamped to [1, gamma2_max] so the noise never
    drops below nominal and stays finite. 1 means fully trusted.
    """
    ax, ay, az = float(accel[0]), float(accel[1]), float(accel[2])
    gamma2 = cfg.lambda_a * abs(math.sqrt(ax * ax + ay * ay + az * az) - cfg.gravity)
    return min(max(gamma2, 1.0), cfg.gamma2_max)


def accel_update(fs: FilterState, z1, Ra) -> FilterState:
    """First measurement layer: roll/pitch error observation.

    z1 is the 2-vector (measured - estimated) of roll and pitch, rad.
    Uses the Joseph-form covariance update for numerical robustness.
    """
    Ra = np.asarray(Ra, dtype=float)
    try:
        np.linalg.cholesky(Ra)
    except np.linalg.LinAlgError:
        raise ValueError("Ra must be positive definite") from None
    innov_cov = fs.P[:2, :2] + Ra
    gain = np.linalg.solve(innov_cov.T, fs.P[:, :2].T).T  # P H^T S^-1
    innov = np.array([float(z1[0]), float(z1[1])]) - fs.x[:2]
    x = fs.x + gain @ innov
    ikh = np.eye(N_STATES) - gain @ H_ACCEL
    P = ikh @ fs.P @ ikh.T + gain @ Ra @ gain.T
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
    ikh = np.eye(N_STATES)
    ikh[:, YAW_STATE] -= gain
    P = ikh @ fs.P @ ikh.T + np.outer(gain, gain) * Rm
    return FilterState(x, _symmetrize(P))


def apply_correction(prop: PropagatorState,
                     fs: FilterState) -> Tuple[PropagatorState, FilterState]:
    """Feed the estimated errors back and reset the error state.

    The attitude-error estimate is added to the Euler angles of the
    current attitude (the measurements are Euler-angle differences, so
    this is the consistent feedback); the bias estimate folds into the
    persistent accumulator that propagate() subtracts. The covariance is
    kept: only the state expectation moves to zero.
    """
    if not np.any(fs.x):
        return prop, fs
    e = quat_to_euler(prop.q)
    corrected = EulerAngles(wrap_pi(e.roll + fs.x[0]),
                            e.pitch + fs.x[1],
                            wrap_yaw(e.yaw + fs.x[2]))
    q = euler_to_quat(corrected)
    bias = prop.bias + fs.x[3:6]
    return (PropagatorState(q, bias),
            FilterState(np.zeros(N_STATES), fs.P))
