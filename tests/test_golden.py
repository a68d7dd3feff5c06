"""Bit-identity of the pipeline outputs on a short manoeuvring log.

The digests pin the exact float64 bytes of the (t, euler, q, gyro_bias)
estimate series for each algorithm. They were computed with CPython
3.11.7 and NumPy 2.4.6; a refactor of the estimator must leave them
unchanged, while a deliberate behaviour change updates them and says so.

The dlkf digest was re-pinned when the accelerometer layer moved to a
closed-form 2x2 gain and an expanded Joseph form: same formulas, other
rounding, so the last bits moved. `data/golden_dlkf.npy` holds every
10th row (and the last) of the dlkf series as it was before that change,
and the new series must stay within a stated tolerance of it. Never
regenerate that file: it is the fixed point that tolerance refers to.
`data/golden_cf.npy` and `data/golden_gyro_only.npy` hold the cf and
gyro-only series in the same layout, written before the complementary
filter was moved onto the shared gyro integrator; the same tolerances
apply to all three algorithms.

The cf digest was re-pinned when the complementary filter began to
integrate through the shared gyro step: the corrected rate is now summed as
g - (b - kp*err) rather than (g + kp*err) + integral, which moves the
last bits (at most 2.2e-16 on the quaternion of this log).

All three digests were re-pinned when `rotvec_to_quat` stopped
normalising its result, leaving the one normalisation per gyro step to
`quat_multiply`. The simulator's step quaternions move too, so the log
itself changes in its last bits. Against the reference series: dlkf
1.5e-14 rad and 6.1e-15 rad/s, cf and gyro-only 3.6e-15 rad.

The cf digest was re-pinned again when the cf step moved its error
terms from NumPy vectors onto Python floats: the norms and the two
matrix-vector products sum in another order than NumPy's dot products,
so the last bits move (2.2e-16 on the quaternion, 2.0e-18 rad/s on the
bias; 3.6e-15 rad and 8.5e-17 rad/s from `data/golden_cf.npy`).

The dlkf digest was re-pinned when the filter moved from 6x6 NumPy
matrices to Python floats, with the covariance packed as the 21 entries
of its upper triangle. Each covariance entry is now computed once, not
twice and averaged, and no sum goes through BLAS. The time update sums
each block product in the order of the full product F P F^T, as
(A + G B^T) + M G^T, and scales the bias block as (d C) d; both
measurement layers take the standard form P - K H P. Against
`data/golden_dlkf.npy`: 1.4e-14 rad on the Euler angles, 6.9e-15 on
the quaternion and 6.1e-15 rad/s on the bias.

No digest depends on the BLAS build: no arithmetic that reaches one,
in `simulate` (which forms its mag column elementwise) or in the
filters, goes through BLAS. The digests still depend on CPython's
`math` (libm), NumPy's elementwise ufuncs and its axis-0 `np.mean` (the
alignment window), and `default_rng`.

The dlkf digest was re-pinned when the accelerometer layer began to
evaluate P - M S^-1 M^T through an LDU factorisation of the 2x2 S, as a
scalar update on roll and one on what is left of pitch, instead of as
P - K M^T with K = M S^-1. The latter multiplied the rounding of a
strongly correlated P by the condition number of S and failed the
textbook oracle of `test_dlkf_oracle.py` by 2.5e-12 relative. Against
`data/golden_dlkf.npy`: 1.6e-14 rad on the Euler angles, 7.4e-15 on the
quaternion and 6.7e-15 rad/s on the bias.

The dlkf digest was re-pinned when the accelerometer layer became two
sequential scalar updates, roll and then pitch, on a diagonal Ra: the
same scalar update the magnetometer layer makes on yaw. That equals the
joint update, but rounds differently from the LDU form. Against
`data/golden_dlkf.npy`: 1.55e-14 rad on the Euler angles, 7.3e-15 on
the quaternion and 6.8e-15 rad/s on the bias. On `benchmark_records`
at seeds 11 and 23, with lambda_a 5 and 50, it is within 2.3e-14 rad of
the LDU form.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ahrskit import complementary, dlkf, fasteuler, geometry, pipeline, propagation
from ahrskit.benchmark import benchmark_records, matched_noise_config, mems_models
from ahrskit.geometry import quat_to_euler
from ahrskit.pipeline import PipelineConfig, run_pipeline
from ahrskit.simulate import _CHUNK, Segment, SensorLog, TrajectorySpec, simulate

RATE = 250.0

DATA = Path(__file__).parent / "data"
REFERENCE = {"dlkf": DATA / "golden_dlkf.npy", "cf": DATA / "golden_cf.npy",
             "gyro-only": DATA / "golden_gyro_only.npy"}
ANGLE_TOL = 1e-12  # rad, on the Euler angles and the quaternion
# rad/s. The estimated bias swings to 0.2 rad/s on this log, where one
# ulp is 2.8e-17 and the accumulator's rounding differences add up to
# about 1.5e-15 over the run; 1e-14 is 5e-14 of the bias itself.
BIAS_TOL = 1e-14

GOLDEN = {
    "dlkf": "495b0a74aaf2bae8d008bd450b083467620890ca2db29e0595a050a5bcab6a3b",
    "cf": "15135b128d599df9b1692c96ac1256790c29242f8d76a6d7fd21967d9522ed0c",
    "gyro-only": "b9f9054ee5f3f7e86c7796d6f829fb70df53323f36b8b9ec300b00dce25bb2d2",
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


def estimate_rows(estimates):
    """(N, 11) rows of t, roll, pitch, yaw, qw, qx, qy, qz, bgx, bgy, bgz."""
    return np.array([(e.t, *e.euler, *e.q, *e.gyro_bias) for e in estimates])


@pytest.mark.parametrize("algorithm", sorted(REFERENCE))
def test_within_tolerance_of_reference(records, algorithm):
    cfg = PipelineConfig(algorithm=algorithm, noise=matched_noise_config(RATE))
    rows = estimate_rows(run_pipeline(records, cfg))
    rows = rows[sorted({*range(0, len(rows), 10), len(rows) - 1})]
    ref = np.load(REFERENCE[algorithm])
    assert rows.shape == ref.shape
    np.testing.assert_array_equal(rows[:, 0], ref[:, 0])
    # roll and yaw wrap; compare them as angles
    d_euler = np.abs(np.remainder(rows[:, 1:4] - ref[:, 1:4] + math.pi, 2.0 * math.pi)
                     - math.pi)
    assert d_euler.max() <= ANGLE_TOL
    np.testing.assert_allclose(rows[:, 4:8], ref[:, 4:8], rtol=0.0, atol=ANGLE_TOL)
    np.testing.assert_allclose(rows[:, 8:11], ref[:, 8:11], rtol=0.0, atol=BIAS_TOL)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_hot_path_calls(records, monkeypatch, algorithm):
    """No step calls a general 2x2 factorisation or solver, and no run
    calls `quat_to_euler`: each step returns its attitude as floats, and
    the driver converts the attitudes of all rows by the column."""
    cfg = PipelineConfig(algorithm=algorithm, noise=matched_noise_config(RATE))

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called on the hot path")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    calls = []

    def counted(q):
        calls.append(q)
        return quat_to_euler(q)

    for module in (geometry, pipeline, propagation, complementary, dlkf, fasteuler):
        monkeypatch.setattr(module, "quat_to_euler", counted, raising=False)
    assert run_pipeline(records, cfg)
    assert calls == []


# Python-level calls per estimate: the step, the float helpers it shares
# with the public layers (`_propagated`, `_dcm_entries`, and for dlkf
# `_euler_angles` of the innovations' attitude), the dlkf epoch's
# measured angles from `fasteuler` (`accel_roll_pitch` every sample,
# `mag_yaw` on a mag epoch), and the angle wraps of its innovations and
# correction. Gyro-only has no per-row step: it takes its increments and
# chains its products a `_CHUNK` of rows per call, so nearly all of its
# calls are the alignment's `accel_roll_pitch`, one per aligned sample.
# The Euler angles of the rows are converted by the column after the
# loop, a few calls per `_CHUNK` rows. Measured on this log: dlkf 7.69,
# cf 3.22, gyro-only 0.23; the dlkf and cf bounds add about 0.3, the
# gyro-only bound 0.07, far below the one call per estimate that any
# per-row call would add.
CALLS_PER_ESTIMATE = {"dlkf": 8, "cf": 3.5, "gyro-only": 0.3}


@pytest.mark.parametrize("algorithm", sorted(CALLS_PER_ESTIMATE))
def test_python_calls_per_estimate(records, algorithm):
    """A run of the golden log makes at most `CALLS_PER_ESTIMATE` Python-level
    calls per estimate, alignment included: each step runs inline on
    floats, gyro-only by the column, and builds no per-sample object.
    The chain of public layers (`test_dlkf_epoch.py`,
    `test_fused_steps.py`) makes 26 for dlkf, 10 for cf and 8 for
    gyro-only. A count, unlike a timing, is not blurred by the host's
    speed."""
    cfg = PipelineConfig(algorithm=algorithm, noise=matched_noise_config(RATE))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        estimates = run_pipeline(records, cfg)
    finally:
        sys.setprofile(None)
    assert calls <= CALLS_PER_ESTIMATE[algorithm] * len(estimates)


def test_dlkf_epoch_builds_no_6x6_array(records, monkeypatch):
    """The dlkf epoch runs on packed floats: through the `np` of
    `ahrskit.pipeline`, where the fused epoch is, and of `ahrskit.dlkf`,
    whose `FilterState` it starts from, a run builds no identity, outer
    or matrix product, and no array of more than four entries."""
    cfg = PipelineConfig(algorithm="dlkf", noise=matched_noise_config(RATE))

    def at_most_2x2(make):
        def checked(*args, **kwargs):
            out = make(*args, **kwargs)
            assert out.size <= 4, f"{out.shape} array built on the dlkf hot path"
            return out
        return checked

    class SmallArraysOnly:
        array = staticmethod(at_most_2x2(np.array))
        asarray = staticmethod(at_most_2x2(np.asarray))

        def __getattr__(self, name):
            if name in ("eye", "outer", "matmul", "dot", "einsum"):
                raise AssertionError(f"np.{name} called on the dlkf hot path")
            return getattr(np, name)

    for module in (pipeline, dlkf):
        monkeypatch.setattr(module, "np", SmallArraysOnly())
    assert run_pipeline(records, cfg)


class NoNumPy:
    """Stands in for `np` in a module whose per-sample path must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached on the per-sample path")


class CountedNumPy:
    """Stands in for `np` and counts the names read through it."""

    def __init__(self):
        self.reads = 0

    def __getattr__(self, name):
        self.reads += 1
        return getattr(np, name)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_hot_path_builds_no_array(records, monkeypatch, algorithm):
    """Every estimator steps on Python floats: a run reaches NumPy through
    none of the modules below, through `geometry` only in the column
    conversion of the Euler angles, and through `propagation` only in
    the gyro-only run's column increments, each once per `_CHUNK`
    estimates; `run_pipeline` builds no array per estimate, and every
    estimate carries its bias as a tuple of three Python floats."""
    cfg = PipelineConfig(algorithm=algorithm, noise=matched_noise_config(RATE))
    for module in (fasteuler, dlkf, complementary):
        monkeypatch.setattr(module, "np", NoNumPy(), raising=False)
    counted, counted_propagation = CountedNumPy(), CountedNumPy()
    monkeypatch.setattr(geometry, "np", counted)
    monkeypatch.setattr(propagation, "np", counted_propagation)
    geometry._euler_columns(*np.array([[1.0], [0.0], [0.0], [0.0]]))
    propagation._increments(np.zeros((1, 3)), np.arange(2.0))
    reads_per_chunk, counted.reads = counted.reads, 0
    propagation_reads_per_chunk = counted_propagation.reads if algorithm == "gyro-only" else 0
    counted_propagation.reads = 0
    built = []

    class CountedArrays:
        def __getattr__(self, name):
            make = getattr(np, name)
            if name not in ("array", "asarray"):
                return make

            def counted(*args, **kwargs):
                built.append(name)
                return make(*args, **kwargs)
            return counted

    monkeypatch.setattr(pipeline, "np", CountedArrays())
    estimates = run_pipeline(records, cfg)
    assert built == []
    chunks = -(-len(estimates) // _CHUNK)
    assert counted.reads == reads_per_chunk * chunks
    assert counted_propagation.reads == propagation_reads_per_chunk * chunks
    assert all(type(e.gyro_bias) is tuple and len(e.gyro_bias) == 3
               and all(type(b) is float for b in e.gyro_bias) for e in estimates)


def test_cf_hot_path_calls(records, monkeypatch):
    """The cf step does its 3-vector work on floats: no NumPy cross
    product or norm and no DCM array per sample."""
    cfg = PipelineConfig(algorithm="cf", noise=matched_noise_config(RATE))

    def forbidden(*args, **kwargs):
        raise AssertionError("vector helper called on the cf hot path")

    monkeypatch.setattr(np, "cross", forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)
    # `complementary._cf_step` writes the DCM out from `_dcm_entries`; no
    # module of the cf run may bind `quat_to_dcm`, and a call through
    # `geometry` fails the run
    assert not any(hasattr(m, "quat_to_dcm") for m in (complementary, pipeline, propagation))
    monkeypatch.setattr(geometry, "quat_to_dcm", forbidden)
    assert run_pipeline(records, cfg)


def accumulated_mag_schedule(times, period):
    """mag_due per sample of the driver's original schedule: one
    accumulated `next_mag += period` per elapsed epoch, from the first
    estimated sample on."""
    due, next_mag = [], times[0]
    for t in times:
        due.append(t >= next_mag)
        while next_mag <= t:
            next_mag += period
    return due


def mag_due_flags(monkeypatch, records, cfg):
    """(mag_due, t) per estimated sample, from a step that only records.
    Patched into `_STEPS`, a step factory runs through `run_pipeline`'s
    per-row loop, the one that schedules the mag epochs, for any
    algorithm, gyro-only included."""
    seen = []

    def recording_step(cfg, q0, bias_seed, on_epoch):
        estimate = (*q0, *bias_seed)

        def step(rec, dt, mag_due):
            seen.append(mag_due)
            return estimate

        return step

    monkeypatch.setitem(pipeline._STEPS, cfg.algorithm, recording_step)
    return seen, [e.t for e in run_pipeline(records, cfg)]


@pytest.mark.parametrize("log", ["golden", "benchmark"])
def test_mag_epochs_follow_accumulated_schedule(records, monkeypatch, log):
    if log == "benchmark":
        records = benchmark_records(seed=11)
    cfg = PipelineConfig()
    due, times = mag_due_flags(monkeypatch, records, cfg)
    assert due == accumulated_mag_schedule(times, 1.0 / cfg.mag_rate_hz)
    assert sum(due) == {"golden": 110, "benchmark": 1180}[log]


def test_mag_schedule_resumes_at_its_rate_after_a_gap(records, monkeypatch):
    gap_at = 1500
    table = records.table.copy()
    table[gap_at:, 0] += 1000.0
    records = SensorLog(table)
    due, times = mag_due_flags(monkeypatch, records, PipelineConfig())
    after = [i for i, (d, t) in enumerate(zip(due, times)) if d and t > 1000.0]
    assert times[after[0] - 1] < 1000.0  # the first sample after the gap
    # then back on the 10 Hz grid of a 250 Hz log: one epoch every 25
    # samples, give or take one where a sample sits on an epoch
    assert set(np.diff(after[1:])) <= {24, 25, 26}
