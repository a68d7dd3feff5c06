import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ahrskit

from ahrskit.benchmark import matched_noise_config, mems_models, static_records
from ahrskit.dlkf import NoiseConfig
from ahrskit.geometry import EulerAngles, quat_to_euler, wrap_pi
from ahrskit.pipeline import (AlignmentError, PipelineConfig,
                              initial_alignment, run_pipeline)
from ahrskit.simulate import (Segment, SensorRecord, TrajectorySpec,
                              simulate, truth_array)

MATCHED = matched_noise_config(250.0)


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
        shaken = [
            SensorRecord(r.t, r.gyro, r.accel * (1.0 + 0.5 * (i % 3)), r.mag,
                         r.truth)
            for i, r in enumerate(records)
        ]
        with pytest.raises(AlignmentError):
            initial_alignment(shaken, NoiseConfig())

    def test_empty_window_rejected(self):
        with pytest.raises(AlignmentError):
            initial_alignment([], NoiseConfig())


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

    def test_mag_rate_cannot_exceed_imu_rate(self):
        with pytest.raises(ValueError):
            PipelineConfig(imu_rate_hz=100.0, mag_rate_hz=200.0)


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


HANG_CHILD = """
import sys
import numpy as np
from ahrskit.benchmark import static_records
from ahrskit.pipeline import PipelineConfig, run_pipeline
algorithm, last_t = sys.argv[1], float(sys.argv[2])
records = static_records(duration=4.0, seed=1)
records[-1] = records[-1]._replace(t=last_t)
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
        bad = list(records)
        bad[600] = bad[600]._replace(t=bad[599].t)
        with pytest.raises(ValueError, match="not strictly increasing"):
            run_pipeline(bad, PipelineConfig())

    @pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
    def test_non_finite_gyro_reported_with_sample_index(self, algorithm):
        records = list(static_records(duration=3.0, noisy=False, seed=0))
        records[600] = records[600]._replace(gyro=np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"sample 600 .*gyro sample must be finite"):
            run_pipeline(records, PipelineConfig(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
    def test_nan_timestamp_reported_as_timestamp_fault(self, algorithm):
        records = list(static_records(duration=4.0, seed=1))
        records[700] = records[700]._replace(t=math.nan)
        with pytest.raises(ValueError, match=r"sample 700 .*timestamps"):
            run_pipeline(records, PipelineConfig(algorithm=algorithm, noise=MATCHED))

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
        records = list(static_records(duration=4.0, seed=1))
        records[-1] = records[-1]._replace(t=1e300)
        with pytest.raises(ValueError, match=r"sample 999 .*not finite"):
            run_pipeline(records, PipelineConfig(algorithm=algorithm))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([], PipelineConfig())

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
        records = list(static_records(duration=4.0, seed=1))
        cfg = PipelineConfig(algorithm=algorithm, noise=MATCHED)
        clean = run_pipeline(records, cfg)
        records[index] = records[index]._replace(**{field: np.full(3, value)})
        faulty = run_pipeline(records, cfg)
        assert len(faulty) == 499
        assert np.isfinite([[*e.euler, *e.q, *e.gyro_bias] for e in faulty]).all()
        k = index - FIRST_ESTIMATE
        assert [e.q for e in faulty[:k]] == [e.q for e in clean[:k]]
        assert faulty[k].q != clean[k].q
