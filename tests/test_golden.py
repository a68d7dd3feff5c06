"""Bit-identity of the pipeline outputs on a short manoeuvring log.

The digests pin the exact float64 bytes of the (t, euler, q, gyro_bias)
estimate series for each algorithm. They were computed with CPython
3.11.7 and NumPy 2.4.6; a refactor of the estimator must leave them
unchanged, while a deliberate behaviour change updates them and says so.
"""

import hashlib
import math

import numpy as np
import pytest

from ahrskit.benchmark import matched_noise_config, mems_models
from ahrskit.pipeline import PipelineConfig, run_pipeline
from ahrskit.simulate import Segment, TrajectorySpec, simulate

RATE = 250.0

GOLDEN = {
    "dlkf": "d30a3f4f837694e5e7b47d4125495c3a158cbf345df5647a73c2ccd38f5d856a",
    "cf": "16c90c0161a6b6f1717c2bb6aefe64df407a3ccd3ef1808e9e7b362358755914",
    "gyro-only": "ead03e14528a40858b0e6289ce823be4786ce10c97fc8a988103f08debcfb9e6",
}


def golden_records():
    """13 s log: hover for alignment, a roll doublet, a forward push that
    raises the adaptive factor above 1 while passing the accel gate, a
    harder push that fails the gate, then a yaw turn."""
    rate = math.radians(10.0)
    traj = TrajectorySpec((
        Segment(3.0, (0.0, 0.0, 0.0)),
        Segment(1.0, (rate, 0.0, 0.0)),
        Segment(1.0, (-rate, 0.0, 0.0)),
        Segment(2.0, (0.0, 0.0, 0.0), (2.5, 0.0, 0.0)),   # gamma^2 ~ 1.6
        Segment(2.0, (0.0, 0.0, 0.0), (4.0, 0.0, 0.0)),   # gated
        Segment(2.0, (0.0, 0.0, 3.0 * rate)),
        Segment(2.0, (0.0, 0.0, 0.0)),
    ))
    gm, am, mm = mems_models(gyro_bias=(0.01, -0.008, 0.006))
    return simulate(traj, gm, am, mm, RATE, seed=5)


def estimate_digest(estimates):
    h = hashlib.sha256()
    for column in (np.array([e.t for e in estimates]),
                   np.array([e.euler for e in estimates]),
                   np.array([e.q for e in estimates]),
                   np.array([e.gyro_bias for e in estimates])):
        h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def records():
    return golden_records()


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_estimates_bit_identical(records, algorithm):
    cfg = PipelineConfig(algorithm=algorithm, noise=matched_noise_config(RATE))
    assert estimate_digest(run_pipeline(records, cfg)) == GOLDEN[algorithm]
