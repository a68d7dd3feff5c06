"""The dlkf layers against textbook formulas, on random inputs: the
measurement layers of `ahrskit.dlkf`, and the time update's reference
writing in `test_dlkf`, which the fused epoch matches bit for bit.

Each oracle writes its update the long way: the transition matrix built
from np.eye, the gain from np.linalg.solve, the Joseph products in full.
The layers compute the same quantities in closed form, so the two agree
to rounding: every entry within RTOL of the largest entry of the result.
The states exclude subnormal numbers, where relative error has no
meaning: two correctly rounded results can differ by one subnormal ulp
(5e-324), which RTOL times a subnormal result underflows below. A tiny
innovation still makes the state subnormal, so the tolerance never
drops below SUBNORMAL_FLOOR, a few subnormal ulps.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ahrskit.dlkf import FilterState, NoiseConfig, accel_update, mag_update
from ahrskit.geometry import EulerAngles, euler_to_quat, wrap_pi
from test_dlkf import time_update

RTOL = 1e-12
SUBNORMAL_FLOOR = 4 * 5e-324
CFG = NoiseConfig()

factors = arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0))
# covariance scale, rad^2: from far below to far above Ra_nominal
scales = st.floats(-8.0, -2.0).map(lambda e: 10.0 ** e)
states = arrays(np.float64, 6, elements=st.floats(-0.1, 0.1, allow_subnormal=False))
attitudes = st.builds(EulerAngles, st.floats(-3.1, 3.1),
                      st.floats(-1.4, 1.4),  # |pitch| < 80 deg
                      st.floats(0.0, 6.28))
innovations = st.floats(-0.5, 0.5)


def spd(a, scale):
    """Symmetric positive definite 6x6 from a random factor."""
    return (a @ a.T + 0.01 * np.eye(6)) * scale


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL,
                               atol=max(RTOL * np.abs(expected).max(), SUBNORMAL_FLOOR))


def oracle_time_update(x, P, e, dt, cfg):
    sr, cr = math.sin(e.roll), math.cos(e.roll)
    tp, cp = math.tan(e.pitch), math.cos(e.pitch)
    euler_rates = np.array([[1.0, sr * tp, cr * tp],
                            [0.0, cr, -sr],
                            [0.0, sr / cp, cr / cp]])
    F = np.eye(6)
    F[0:3, 3:6] = -euler_rates * dt
    F[3:6, 3:6] *= 1.0 - dt / cfg.tau_g
    P_new = F @ P @ F.T + np.diag(cfg.Q)
    return F @ x, 0.5 * (P_new + P_new.T)


def oracle_update(x, P, H, z, R):
    """One Kalman update, gain by solve, Joseph form in full."""
    S = H @ P @ H.T + R
    K = np.linalg.solve(S.T, (P @ H.T).T).T
    x_new = x + K @ z
    ikh = np.eye(6) - K @ H
    P_new = ikh @ P @ ikh.T + K @ R @ K.T
    return x_new, 0.5 * (P_new + P_new.T)


@settings(deadline=None)
@given(states, factors, scales, attitudes, st.floats(1e-4, 0.1))
def test_time_update_matches_textbook(x, a, scale, e, dt):
    P = spd(a, scale)
    out = time_update(FilterState(x, P), euler_to_quat(e), dt, CFG)
    x_ref, P_ref = oracle_time_update(x, P, e, dt, CFG)
    assert_close(out.x, x_ref)
    assert_close(out.P, P_ref)


@settings(deadline=None)
@given(states, factors, scales, st.floats(1.0, 100.0), innovations, innovations)
# a rank-one factor: the standard form through S^-1 cancels here
@example(x=np.zeros(6), a=np.ones((6, 6)), scale=10.0 ** -2.0078125, gamma2=1.0,
         z0=0.0, z1=0.0)
# a subnormal innovation: layer and oracle differ by one subnormal ulp
@example(x=np.zeros(6), a=np.ones((6, 6)), scale=0.01, gamma2=1.0,
         z0=2.2250738585e-313, z1=0.0)
def test_accel_update_matches_textbook(x, a, scale, gamma2, z0, z1):
    P = spd(a, scale)
    ra = gamma2 * np.array(CFG.Ra_nominal)
    out = accel_update(FilterState(x, P), (z0, z1), ra)
    H = np.eye(6)[:2]
    innov = np.array([wrap_pi(z0 - x[0]), wrap_pi(z1 - x[1])])
    x_ref, P_ref = oracle_update(x, P, H, innov, np.diag(ra))
    assert_close(out.x, x_ref)
    assert_close(out.P, P_ref)


@settings(deadline=None)
@given(states, factors, scales, st.floats(0.1, 10.0), innovations)
def test_mag_update_matches_textbook(x, a, scale, rm_factor, z2):
    P = spd(a, scale)
    Rm = rm_factor * CFG.Rm
    out = mag_update(FilterState(x, P), z2, Rm)
    H = np.eye(6)[2:3]
    x_ref, P_ref = oracle_update(x, P, H, np.array([wrap_pi(z2 - x[2])]),
                                 np.array([[Rm]]))
    assert_close(out.x, x_ref)
    assert_close(out.P, P_ref)
