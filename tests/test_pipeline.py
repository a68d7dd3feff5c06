import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ahrskit

from ahrskit.benchmark import (benchmark_records, matched_noise_config, mems_models,
                               static_records)
from ahrskit.dlkf import NoiseConfig
from ahrskit.geometry import EulerAngles, Quaternion, quat_to_euler, wrap_pi
from ahrskit.pipeline import (AlignmentError, Estimates, PipelineConfig,
                              initial_alignment, run_pipeline)
from ahrskit.simulate import Segment, SensorLog, TrajectorySpec, simulate, truth_array

MATCHED = matched_noise_config(250.0)

_FIELDS = {"t": 0, "gyro": slice(1, 4), "accel": slice(4, 7), "mag": slice(7, 10)}


def rewritten(log, rows, field, value):
    """A log whose table is a copy of `log`'s with `value` written into
    `field` of `rows`."""
    table = log.table.copy()
    table[rows, _FIELDS[field]] = value
    return SensorLog(table)


def attitude_errors(estimates, records):
    truth = truth_array(records)[len(records) - len(estimates):]
    est = np.array([[e.euler.roll, e.euler.pitch, e.euler.yaw]
                    for e in estimates])
    return np.vectorize(wrap_pi)(est - truth)


class TestEndToEndIdentity:
    def test_noiseless_static_stays_exact(self):
        records = static_records(duration=10.0, noisy=False, seed=0)
        for algorithm in ("dlkf", "cf", "gyro-only"):
            cfg = PipelineConfig(algorithm=algorithm, noise=MATCHED)
            estimates = run_pipeline(records, cfg)
            err = attitude_errors(estimates, records)
            assert np.abs(err).max() < 1e-6, algorithm

    @pytest.mark.parametrize("attitude", [
        EulerAngles(math.radians(20.0), 0.0, math.radians(240.0)),
        EulerAngles(0.0, math.radians(-10.0), math.radians(80.0)),
    ])
    def test_noiseless_tilted_attitude_stays_exact(self, attitude):
        # single-axis tilts: the accelerometer pitch expression is exact
        # only at zero roll, so combined tilts carry its systematic error
        records = static_records(duration=5.0, noisy=False, seed=0,
                                 attitude=attitude)
        estimates = run_pipeline(records, PipelineConfig(noise=MATCHED))
        err = attitude_errors(estimates, records)
        assert np.abs(err).max() < 1e-6


class TestBiasEstimation:
    def test_injected_x_bias_recovered_after_60s(self):
        records = static_records(duration=60.0, gyro_bias=(0.02, 0.0, 0.0),
                                 noisy=True, seed=7)
        estimates = run_pipeline(records, PipelineConfig(noise=MATCHED))
        final = estimates[-1].gyro_bias
        assert 0.019 <= final[0] <= 0.021

    def test_gyro_only_drifts_while_dlkf_stays_bounded(self):
        bias = (0.02, 0.0, 0.0)
        records = static_records(duration=30.0, gyro_bias=bias, noisy=False,
                                 seed=0)
        err_gyro = attitude_errors(
            run_pipeline(records, PipelineConfig(algorithm="gyro-only")), records)
        err_dlkf = attitude_errors(
            run_pipeline(records, PipelineConfig(noise=MATCHED)), records)
        elapsed = records[-1].t - 2.0  # drift accrues after the alignment window
        assert abs(err_gyro[-1, 0]) == pytest.approx(bias[0] * elapsed, rel=0.05)
        assert np.abs(err_dlkf[-1]).max() < math.radians(0.1)


class TestInitialAlignment:
    def test_static_level_north(self):
        records = static_records(duration=2.0, noisy=False, seed=0)
        q0, bias_seed = initial_alignment(records, NoiseConfig())
        np.testing.assert_allclose(quat_to_euler(q0), (0.0, 0.0, 0.0), atol=1e-9)
        np.testing.assert_allclose(bias_seed, 0.0, atol=1e-12)

    def test_static_rolled_attitude_recovered(self):
        attitude = EulerAngles(math.radians(30.0), 0.0, 0.0)
        records = static_records(duration=2.0, noisy=True, seed=3,
                                 attitude=attitude)
        q0, _ = initial_alignment(records, NoiseConfig())
        e = quat_to_euler(q0)
        # averaging N samples leaves noise/sqrt(N) residual
        assert e.roll == pytest.approx(math.radians(30.0), abs=math.radians(0.5))

    def test_gyro_mean_seeds_bias(self):
        bias = (0.02, -0.01, 0.015)
        records = static_records(duration=2.0, gyro_bias=bias, noisy=True, seed=5)
        _, bias_seed = initial_alignment(records, NoiseConfig())
        np.testing.assert_allclose(bias_seed, bias, atol=5e-4)

    def test_shaking_rejected(self):
        # violent norm changes: the gate rejects most of the window
        records = static_records(duration=2.0, noisy=False, seed=0)
        gain = 1.0 + 0.5 * (np.arange(len(records)) % 3)
        shaken = rewritten(records, slice(None), "accel", records.accel * gain[:, None])
        with pytest.raises(AlignmentError):
            initial_alignment(shaken, NoiseConfig())

    def test_empty_window_rejected(self):
        with pytest.raises(AlignmentError):
            initial_alignment(static_records(duration=1.0)[:0], NoiseConfig())

    @pytest.mark.parametrize("field, sensor", [("gyro", "gyro"), ("mag", "magnetometer")])
    def test_non_finite_samples_left_out(self, field, sensor):
        records = static_records(duration=2.0, gyro_bias=(0.02, -0.01, 0.015),
                                 noisy=True, seed=5)
        clean = initial_alignment(records, NoiseConfig())
        faulty = rewritten(records, 7, field, math.nan)
        faulty = rewritten(faulty, 9, field, (0.1, math.inf, 0.2))
        q0, bias_seed = initial_alignment(faulty, NoiseConfig())
        assert np.isfinite([*q0, *bias_seed]).all()
        np.testing.assert_allclose([*q0, *bias_seed], [*clean[0], *clean[1]], atol=1e-4)
        bad = rewritten(records, slice(None), field, math.nan)
        with pytest.raises(AlignmentError, match=f"no finite {sensor} sample"):
            initial_alignment(bad, NoiseConfig())

    def test_accel_average_failing_the_gate_rejected(self):
        # every sample passes the norm gate, but half point up and half
        # down, so their average is near zero
        records = static_records(duration=2.0, noisy=False, seed=0)
        records = rewritten(records, slice(1, None, 2), "accel", -records.accel[1::2])
        with pytest.raises(AlignmentError, match="averaged accelerometer failed"):
            initial_alignment(records, NoiseConfig())

    def test_zero_mag_average_rejected(self):
        records = rewritten(static_records(duration=2.0, noisy=False, seed=0),
                            slice(None), "mag", 0.0)
        with pytest.raises(AlignmentError, match="averaged magnetometer is zero"):
            initial_alignment(records, NoiseConfig())


class TestMultiRate:
    @pytest.mark.parametrize("mag_rate", [10.0, 50.0])
    def test_mag_rate_changes_yaw_but_preserves_covariance(self, mag_rate):
        records = static_records(duration=10.0, gyro_bias=(0.0, 0.0, 0.01),
                                 noisy=True, seed=9)
        worst_eig = [np.inf]

        def check(_t, fs):
            np.testing.assert_allclose(fs.P, fs.P.T, atol=1e-10)
            worst_eig[0] = min(worst_eig[0], np.linalg.eigvalsh(fs.P).min())

        cfg = PipelineConfig(noise=MATCHED, mag_rate_hz=mag_rate)
        estimates = run_pipeline(records, cfg, on_epoch=check)
        assert worst_eig[0] >= -1e-10
        assert all(np.isfinite(e.euler).all() for e in estimates)

    def test_different_mag_rates_give_different_yaw(self):
        records = static_records(duration=10.0, gyro_bias=(0.0, 0.0, 0.01),
                                 noisy=True, seed=9)
        yaw = {}
        for mag_rate in (10.0, 50.0):
            cfg = PipelineConfig(noise=MATCHED, mag_rate_hz=mag_rate)
            estimates = run_pipeline(records, cfg)
            yaw[mag_rate] = np.array([e.euler.yaw for e in estimates])
        assert not np.array_equal(yaw[10.0], yaw[50.0])


class TestDeterminism:
    def test_identical_input_gives_bit_identical_estimates(self):
        records = static_records(duration=5.0, gyro_bias=(0.01, 0.0, 0.0),
                                 noisy=True, seed=21)
        cfg = PipelineConfig(noise=MATCHED)
        a = run_pipeline(records, cfg)
        b = run_pipeline(records, cfg)
        for ea, eb in zip(a, b):
            assert ea.t == eb.t
            assert ea.euler == eb.euler
            assert ea.q == eb.q
            np.testing.assert_array_equal(ea.gyro_bias, eb.gyro_bias)


@pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
def test_estimate_bias_cannot_be_written_into(algorithm):
    # the bias is a tuple, and the table it is read from is read-only
    estimates = run_pipeline(static_records(duration=4.0, seed=1),
                             PipelineConfig(algorithm=algorithm))
    before = [list(e.gyro_bias) for e in estimates]
    with pytest.raises(TypeError):
        estimates[0].gyro_bias[0] = 1.0
    assert [list(e.gyro_bias) for e in estimates] == before


@pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
def test_run_keeps_no_object_per_sample(algorithm):
    """Holding a run's result holds a few GC-tracked objects whatever the
    log length, not an estimate, Euler angles and quaternion per sample."""
    cfg = PipelineConfig(algorithm=algorithm)
    run_pipeline(static_records(duration=3.0, seed=1), cfg)  # warm-up
    growth = {}
    for duration in (3.0, 6.0):
        records = static_records(duration=duration, seed=1)
        gc.collect()
        before = len(gc.get_objects())
        estimates = run_pipeline(records, cfg)
        gc.collect()
        growth[len(estimates)] = len(gc.get_objects()) - before
        del estimates
    assert min(growth) > 200
    assert max(growth.values()) <= 10, growth


def test_gyro_only_peak_memory_is_the_table():
    """A gyro-only run by the column writes its attitudes into the (N, 11)
    table a chunk at a time: on a 30 000-row log it holds no second copy
    of the quaternion columns and no full-length list of floats. Measured
    above the table: 0.40 MB (0.51 MB with the per-row loop's growing
    buffer); a second copy of the (N, 4) quaternions would add 0.94 MB."""
    log = benchmark_records(seed=11)
    cfg = PipelineConfig(algorithm="gyro-only")
    run_pipeline(log[:3000], cfg)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        estimates = run_pipeline(log, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 30_000
    assert peak - estimates.table.nbytes <= 512 * 1024, peak - estimates.table.nbytes


class TestEstimates:
    """`Estimates`: a read-only table that reads as a sequence of
    `AttitudeEstimate`s of Python floats."""

    @pytest.fixture(scope="class")
    def estimates(self):
        # longer than one conversion chunk, so iteration crosses chunks
        return run_pipeline(static_records(duration=8.0, gyro_bias=(0.01, 0.0, 0.0),
                                           noisy=True, seed=3), PipelineConfig())

    def test_columns_are_read_only_views(self, estimates):
        columns = (estimates.table, estimates.t, estimates.euler, estimates.q,
                   estimates.gyro_bias)
        for column in columns:
            assert np.shares_memory(column, estimates.table)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_table_cannot_be_made_writable(self, estimates):
        for column in (estimates.table, estimates.t, estimates[3:9].euler):
            with pytest.raises(ValueError):
                column.flags.writeable = True
        assert estimates[5].t == estimates.t[5]

    def test_columns_follow_the_elements(self, estimates):
        listed = list(estimates)
        assert estimates.t.tolist() == [e.t for e in listed]
        assert estimates.euler.tolist() == [list(e.euler) for e in listed]
        assert estimates.q.tolist() == [list(e.q) for e in listed]
        assert estimates.gyro_bias.tolist() == [list(e.gyro_bias) for e in listed]

    def test_index_matches_iteration(self, estimates):
        listed = list(estimates)
        n = len(listed)
        assert n == len(estimates) > 1024
        for i in (0, 1, 1023, 1024, n - 1, -1, -n):
            assert estimates[i] == listed[i]
        assert estimates[-1] == listed[-1] == listed[n - 1]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                estimates[i]
        with pytest.raises(TypeError):
            estimates[1.0]

    @pytest.mark.parametrize("part", [slice(None, 5), slice(-3, None), slice(1, 1500, 7),
                                      slice(None, None, -1), slice(5, 5)])
    def test_slices(self, estimates, part):
        listed = list(estimates)
        sliced = estimates[part]
        assert isinstance(sliced, Estimates)
        assert list(sliced) == listed[part]
        assert sliced == Estimates(estimates.table[part].copy())
        assert len(sliced) == len(listed[part])

    def test_elements_are_python_floats(self, estimates):
        for e in (*estimates, estimates[0], estimates[-1]):
            assert type(e.t) is float
            assert type(e.euler) is EulerAngles and type(e.q) is Quaternion
            assert type(e.gyro_bias) is tuple and len(e.gyro_bias) == 3
            assert all(type(v) is float for v in (*e.euler, *e.q, *e.gyro_bias))

    def test_equality_is_element_by_element(self, estimates):
        # equal to another `Estimates` with an equal table, and to nothing else
        listed = list(estimates)
        assert estimates == Estimates(estimates.table.copy())
        assert estimates != listed and listed != estimates
        assert estimates != tuple(listed)
        assert estimates != estimates[:-1]
        changed = estimates.table.copy()
        changed[-1, 5] += 1e-9
        assert estimates != Estimates(changed)
        # cells compare as floats: -0.0 equals 0.0, and NaN differs from itself
        table = np.zeros((2, 11))
        table[0, 0] = -0.0
        assert Estimates(table) == Estimates(np.zeros((2, 11)))
        table[1, 1] = math.nan
        assert Estimates(table) != Estimates(table)

    def test_table_shape_is_checked(self):
        with pytest.raises(ValueError, match=r"\(N, 11\) float64"):
            Estimates(np.zeros((3, 10)))
        with pytest.raises(ValueError, match=r"\(N, 11\) float64"):
            Estimates(np.zeros((3, 11), dtype=np.float32))


HANG_CHILD = """
import sys
import numpy as np
from ahrskit.benchmark import static_records
from ahrskit.pipeline import PipelineConfig, run_pipeline
from ahrskit.simulate import SensorLog
algorithm, last_t = sys.argv[1], float(sys.argv[2])
table = static_records(duration=4.0, seed=1).table.copy()
table[-1, 0] = last_t
records = SensorLog(table)
try:
    estimates = run_pipeline(records, PipelineConfig(algorithm=algorithm))
except ValueError as exc:
    print("error:", exc)
else:
    finite = np.isfinite([[*e.euler, *e.q, *e.gyro_bias] for e in estimates]).all()
    print("estimates:", len(estimates), "finite:", finite)
"""


class TestErrors:
    def test_unordered_timestamps_reported_with_index(self):
        records = static_records(duration=3.0, noisy=False, seed=0)
        bad = rewritten(records, 600, "t", records.t[599])
        with pytest.raises(ValueError, match="not strictly increasing"):
            run_pipeline(bad, PipelineConfig())

    @pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
    def test_non_finite_gyro_reported_with_sample_index(self, algorithm):
        records = rewritten(static_records(duration=3.0, noisy=False, seed=0),
                            600, "gyro", (np.nan, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"sample 600 .*gyro sample must be finite"):
            run_pipeline(records, PipelineConfig(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
    def test_nan_timestamp_reported_as_timestamp_fault(self, algorithm):
        records = rewritten(static_records(duration=4.0, seed=1), 700, "t", math.nan)
        with pytest.raises(ValueError, match=r"sample 700 .*timestamps"):
            run_pipeline(records, PipelineConfig(algorithm=algorithm, noise=MATCHED))

    @pytest.mark.parametrize("align_s", [2.0, 0.0], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("t, fault", [(0.4, "not strictly increasing"),
                                          (-5.0, "not strictly increasing"),
                                          (math.nan, "not finite"),
                                          (-math.inf, "not finite")],
                             ids=["repeated", "backwards", "nan", "-inf"])
    def test_bad_timestamp_in_alignment_window_reported(self, t, fault, align_s):
        # sample 100 lies inside the 2 s window; its predecessor is at 0.4 s
        records = rewritten(static_records(duration=4.0, seed=1), 100, "t", t)
        message = f"sample 100 (t={t}): timestamps {fault} (previous t=0.4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_pipeline(records, PipelineConfig(align_duration_s=align_s))

    def test_nan_timestamp_mid_log_reported_before_the_run(self):
        records = rewritten(static_records(duration=8.0, seed=1), 1500, "t", math.nan)
        epochs = []
        with pytest.raises(ValueError, match=r"^sample 1500 \(t=nan\): timestamps "
                                             r"not finite \(previous t=6\.0\)$"):
            run_pipeline(records, PipelineConfig(noise=MATCHED),
                         on_epoch=lambda t, fs: epochs.append(t))
        assert epochs == []

    @pytest.mark.parametrize("align_s", [2.0, 0.0], ids=["aligned", "unaligned"])
    def test_nan_first_timestamp_reported_as_timestamp_fault(self, align_s):
        records = rewritten(static_records(duration=4.0, seed=1), 0, "t", math.nan)
        with pytest.raises(ValueError,
                           match=r"^sample 0 \(t=nan\): timestamp not finite$"):
            run_pipeline(records, PipelineConfig(align_duration_s=align_s))

    @pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
    @pytest.mark.parametrize("last_t, expected", [
        ("inf", r"error: sample 999 \(t=inf\): timestamps not finite"),
        ("1e9", r"estimates: 499 finite: True"),
    ], ids=["inf", "1e9"])
    def test_last_sample_far_in_time_does_not_hang(self, algorithm, last_t, expected):
        # the run happens in a child process so that a hang fails the
        # test after the timeout instead of stalling the suite
        src = str(Path(ahrskit.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", HANG_CHILD, algorithm, last_t],
                             capture_output=True, text=True, env=env, timeout=60,
                             check=True).stdout
        assert re.search(expected, out), out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
    def test_huge_time_step_reported(self, algorithm):
        # a finite gap so long that the gyro step's rotation angle overflows
        records = rewritten(static_records(duration=4.0, seed=1), -1, "t", 1e300)
        with pytest.raises(ValueError, match=r"sample 999 .*not finite"):
            run_pipeline(records, PipelineConfig(algorithm=algorithm))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(static_records(duration=1.0)[:0], PipelineConfig())

    def test_alignment_window_swallowing_everything_rejected(self):
        records = static_records(duration=1.0, noisy=False, seed=0)
        with pytest.raises(ValueError):
            run_pipeline(records, PipelineConfig(align_duration_s=10.0))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(algorithm="ukf")


class TestGatedEpochs:
    def test_sustained_acceleration_keeps_filter_healthy(self):
        # accel gated out for a stretch: layers skip, covariance flows on
        segments = (Segment(15.0, (0.0, 0.0, 0.0)),
                    Segment(2.0, (0.0, 0.0, 0.0), (6.0, 0.0, 0.0)),
                    Segment(3.0, (0.0, 0.0, 0.0)))
        gm, am, mm = mems_models(noisy=True)
        records = simulate(TrajectorySpec(segments), gm, am, mm, 250.0, 2)
        estimates = run_pipeline(records, PipelineConfig(noise=MATCHED))
        err = np.degrees(attitude_errors(estimates, records))
        t = np.array([e.t for e in estimates])
        settled = t >= 10.0  # past the initial covariance transient
        assert np.abs(err[settled, :2]).max() < 0.6
        assert np.abs(err[settled, 2]).max() < 2.0


# first sample after the 2 s alignment window of a static_records log;
# the mag schedule starts there, so it is a mag epoch
FIRST_ESTIMATE = 501


class TestBadSamples:
    """A non-finite accel or mag sample skips its layer for that epoch."""

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("algorithm", ["dlkf", "cf"])
    @pytest.mark.parametrize("index, field", [(700, "accel"), (FIRST_ESTIMATE, "mag")])
    def test_nan_sample_skips_its_layer(self, index, field, algorithm, value):
        records = static_records(duration=4.0, seed=1)
        cfg = PipelineConfig(algorithm=algorithm, noise=MATCHED)
        clean = run_pipeline(records, cfg)
        faulty = run_pipeline(rewritten(records, index, field, value), cfg)
        assert len(faulty) == 499
        assert np.isfinite([[*e.euler, *e.q, *e.gyro_bias] for e in faulty]).all()
        k = index - FIRST_ESTIMATE
        assert [e.q for e in faulty[:k]] == [e.q for e in clean[:k]]
        assert faulty[k].q != clean[k].q

    @pytest.mark.parametrize("algorithm", ["dlkf", "cf"])
    @pytest.mark.parametrize("field", ["gyro", "mag"])
    def test_nan_sample_in_alignment_window_is_left_out(self, field, algorithm):
        # one bad sample inside the window must neither abort the alignment
        # (mag) nor seed a NaN bias that fails the run's first sample (gyro)
        records = rewritten(static_records(duration=6.0, seed=1), 200, field, math.nan)
        estimates = run_pipeline(records, PipelineConfig(algorithm=algorithm, noise=MATCHED))
        assert len(estimates) == len(records) - FIRST_ESTIMATE
        assert np.isfinite(estimates.table).all()
