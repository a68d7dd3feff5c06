"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to watch).

Criteria, with their tolerances pinned here:
  1. Published improvement percentages reproduced within 0.1 pp, < 1 ms.
  2. Two-layer update equals the joint 3-row update, 1e-9 max-abs over
     1000 randomized positive-definite instances, < 5 s.
  3. Static 60 s at 250/10 Hz with injected bias (0.02, -0.01, 0.015)
     rad/s and datasheet noise: accumulated bias within 10 percent over
     all of t >= 30 s, roll/pitch RMS < 0.5 deg after 30 s, < 10 s.
  4. Dynamic 120 s benchmark, fixed seed: the double-layer filter beats
     the complementary baseline on all three angle RMSEs, and adaptive
     accelerometer noise beats the fixed setting on roll/pitch RMSE
     inside the forward-acceleration segment, < 30 s.
  5. Noiseless bias-free static input: attitude error < 1e-6 rad on
     every emitted estimate.
  6. Property sweep: quaternion norm within 1e-9 over 1e6 products;
     covariance symmetric/PSD (eig >= -1e-10) at every epoch of the
     criterion-4 run; accel roll round-trip 1e-9 over 1000 attitudes;
     tilt-compensated yaw within 1e-6 of a brute-force search oracle;
     RMSE matches a brute-force recomputation to 1e-12; Markov-drift
     stationary variance within 10 percent; bit-identical reruns.
"""

import math
import time
from dataclasses import replace

import numpy as np

from ahrskit.benchmark import (ACCEL_SEGMENT, benchmark_records,
                               matched_noise_config, static_records)
from ahrskit.dlkf import FilterState, NoiseConfig, accel_update, mag_update
from ahrskit.fasteuler import accel_roll_pitch, mag_yaw
from ahrskit.geometry import Quaternion, quat_multiply, wrap_pi, wrap_yaw
from ahrskit.metrics import improvement, rmse
from ahrskit.pipeline import PipelineConfig, run_pipeline
from ahrskit.simulate import (AccelModel, GyroModel, MagModel, Segment,
                              TrajectorySpec, simulate, truth_array)

from test_dlkf import joint_update, random_pd
from test_fasteuler import body_field, brute_force_yaw, specific_force
from test_metrics import brute_force_rmse

BIAS = (0.02, -0.01, 0.015)
MATCHED = matched_noise_config(250.0)
# scenario-matched tuning: constant-bias gyro, densities from benchmark.py
CRIT3_CONFIG = PipelineConfig(noise=MATCHED)
CRIT4_CONFIG = PipelineConfig(noise=replace(MATCHED, lambda_a=50.0))
CRIT4_SEED = 11


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def angles(estimates):
    return np.array([[e.euler.roll, e.euler.pitch, e.euler.yaw]
                     for e in estimates])


def test_criterion_1_improvement_arithmetic():
    cases = [(1.7967, 1.3156, 36.6), (1.4317, 1.0091, 41.9),
             (4.0636, 2.850, 42.6)]
    improvement(1.0, 1.0)  # warm-up
    start = time.perf_counter()
    results = [improvement(b, c) for b, c, _ in cases]
    elapsed = time.perf_counter() - start
    ok = all(abs(r - expect) <= 0.1 for r, (_, _, expect) in zip(results, cases))
    ok = ok and elapsed < 1e-3
    report(1, ok, f"improvements {[round(r, 2) for r in results]} vs "
                  f"(36.6, 41.9, 42.6) +-0.1 pp in {elapsed * 1e6:.0f} us")


def test_criterion_2_sequential_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(scale=0.1, size=6)
        P = random_pd(rng)
        z = rng.normal(scale=0.3, size=3)
        ra = rng.uniform(0.1, 5.0, 2)
        rm = rng.uniform(0.1, 5.0)
        out = mag_update(accel_update(FilterState(x, P), z[:2], ra), z[2], rm)
        R = np.zeros((3, 3))
        R[:2, :2] = np.diag(ra)
        R[2, 2] = rm
        x_ref, p_ref = joint_update(x, P, z, R)
        worst = max(worst, np.abs(out.x - x_ref).max(), np.abs(out.P - p_ref).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(2, ok, f"1000 instances, max-abs deviation {worst:.2e} "
                  f"(tol 1e-9) in {elapsed:.2f} s")


def test_criterion_3_bias_convergence():
    start = time.perf_counter()
    records = static_records(duration=60.0, gyro_bias=BIAS, noisy=True, seed=7)
    estimates = run_pipeline(records, CRIT3_CONFIG)
    elapsed = time.perf_counter() - start

    t = np.array([e.t for e in estimates])
    bias_est = np.array([e.gyro_bias for e in estimates])
    settled = t >= 30.0
    rel_err = np.abs((bias_est[settled] - BIAS) / np.asarray(BIAS))
    worst_bias = rel_err.max()

    truth = truth_array(records)[len(records) - len(estimates):]
    resid = angles(estimates)[settled] - truth[settled]
    rp_rms = np.degrees(np.sqrt(np.mean(resid[:, :2] ** 2, axis=0)))

    ok = worst_bias <= 0.10 and rp_rms.max() < 0.5 and elapsed < 10.0
    report(3, ok, f"bias error <= {100 * worst_bias:.2f}% (tol 10%), "
                  f"roll/pitch RMS {rp_rms.round(3)} deg (tol 0.5) "
                  f"in {elapsed:.1f} s")


def test_criterion_4_dynamic_comparison_and_criterion_6_psd():
    start = time.perf_counter()
    records = benchmark_records(seed=CRIT4_SEED)
    truth = truth_array(records)
    t_rec = np.array([r.t for r in records])

    cov_ok = [True]

    def check_cov(_t, fs):
        if not np.allclose(fs.P, fs.P.T, atol=1e-10) or \
                np.linalg.eigvalsh(fs.P).min() < -1e-10:
            cov_ok[0] = False

    est_dlkf = run_pipeline(records, CRIT4_CONFIG, on_epoch=check_cov)
    est_cf = run_pipeline(records, replace(CRIT4_CONFIG, algorithm="cf"))
    fixed = replace(CRIT4_CONFIG, noise=replace(CRIT4_CONFIG.noise, lambda_a=0.0))
    est_fixed = run_pipeline(records, fixed)
    elapsed = time.perf_counter() - start

    n_skip = len(records) - len(est_dlkf)
    tr = truth[n_skip:]
    t_est = t_rec[n_skip:]
    rmse_dlkf = rmse(angles(est_dlkf), tr)
    rmse_cf = rmse(angles(est_cf), tr)
    beats_cf = all(d < c for d, c in zip(rmse_dlkf, rmse_cf))

    seg = (t_est >= ACCEL_SEGMENT[0]) & (t_est <= ACCEL_SEGMENT[1])
    seg_adaptive = rmse(angles(est_dlkf)[seg], tr[seg])
    seg_fixed = rmse(angles(est_fixed)[seg], tr[seg])
    adaptive_wins = (seg_adaptive[0] < seg_fixed[0]
                     and seg_adaptive[1] < seg_fixed[1])

    ok = beats_cf and adaptive_wins and elapsed < 30.0
    report(4, ok,
           f"dlkf {np.round(rmse_dlkf, 3)} < cf {np.round(rmse_cf, 3)} deg "
           f"on all angles: {beats_cf}; accel-segment roll/pitch "
           f"{np.round(seg_adaptive[:2], 3)} < fixed "
           f"{np.round(seg_fixed[:2], 3)}: {adaptive_wins}; {elapsed:.1f} s")

    ok6 = cov_ok[0]
    report("6 (covariance)", ok6,
           "P symmetric and PSD (eig >= -1e-10) at every epoch of the "
           "benchmark run")


def test_criterion_5_end_to_end_identity():
    records = static_records(duration=20.0, noisy=False, seed=0)
    estimates = run_pipeline(records, PipelineConfig())
    truth = truth_array(records)[len(records) - len(estimates):]
    resid = angles(estimates) - truth
    resid[:, 2] = [wrap_pi(v) for v in resid[:, 2]]
    worst = np.abs(resid).max()
    ok = worst < 1e-6
    report(5, ok, f"max attitude error {worst:.2e} rad (tol 1e-6) over "
                  f"{len(estimates)} noiseless estimates")


class TestCriterion6Properties:
    def test_quaternion_norm_over_1e6_operations(self):
        rng = np.random.default_rng(60)
        pool = [Quaternion(*q).normalized()
                for q in rng.normal(size=(4096, 4))]
        q = Quaternion.identity()
        worst = 0.0
        for i in range(1_000_000):
            q = quat_multiply(q, pool[i & 4095])
            if i % 1024 == 0:
                worst = max(worst, abs(q.norm() - 1.0))
        worst = max(worst, abs(q.norm() - 1.0))
        ok = worst < 1e-9
        report("6 (quat norm)", ok,
               f"norm deviation {worst:.2e} over 1e6 products (tol 1e-9)")

    def test_roll_round_trip_1000_attitudes(self):
        rng = np.random.default_rng(61)
        cfg = NoiseConfig()
        worst = 0.0
        for roll in rng.uniform(math.radians(-80.0), math.radians(80.0), 1000):
            out = accel_roll_pitch(specific_force(roll, 0.0), cfg)
            worst = max(worst, abs(out[0] - roll))
        ok = worst < 1e-9
        report("6 (roll round-trip)", ok,
               f"max roll error {worst:.2e} rad over 1000 attitudes (tol 1e-9)")

    def test_yaw_round_trip_against_oracle(self):
        # headings are referenced to the field's horizontal direction, so
        # both the true yaw and the grid-search oracle shift by it
        rng = np.random.default_rng(62)
        worst = 0.0
        for _ in range(200):
            roll = rng.uniform(-math.radians(60.0), math.radians(60.0))
            pitch = rng.uniform(-math.radians(60.0), math.radians(60.0))
            yaw = rng.uniform(0.0, 2.0 * math.pi)
            dec = rng.uniform(-math.pi, math.pi)
            down = rng.uniform(-1.5, 1.5)
            m_b = body_field(roll, pitch, yaw, dec, down)
            measured = mag_yaw(m_b, roll, pitch)
            oracle = brute_force_yaw(roll, pitch, m_b,
                                     np.array([math.cos(dec), math.sin(dec), down]))
            worst = max(worst,
                        abs(wrap_pi(measured - wrap_yaw(yaw - dec))),
                        abs(wrap_pi(measured - wrap_yaw(oracle - dec))))
        ok = worst < 1e-6
        report("6 (yaw round-trip)", ok,
               f"max yaw error {worst:.2e} rad over 200 attitudes (tol 1e-6)")

    def test_rmse_against_brute_force(self):
        rng = np.random.default_rng(63)
        worst = 0.0
        for _ in range(10):
            est = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (51, 3))
            truth = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (51, 3))
            a = np.asarray(rmse(est, truth))
            b = np.asarray(brute_force_rmse(est, truth))
            worst = max(worst, np.abs(a - b).max())
        ok = worst < 1e-12
        report("6 (rmse oracle)", ok,
               f"max deviation {worst:.2e} deg from brute-force recompute "
               f"(tol 1e-12)")

    def test_markov_stationary_variance(self):
        tau, sigma = 0.5, 1e-3
        gm = GyroModel(tau=tau, sigma_markov=sigma)
        records = simulate(TrajectorySpec((Segment(600.0, (0.0, 0.0, 0.0)),)),
                           gm, AccelModel(), MagModel(), rate=100.0, seed=123)
        drift = np.array([r.gyro for r in records])
        measured = drift[int(5 * tau * 100):].var(axis=0).mean()
        expected = sigma ** 2 * tau / 2.0
        rel = abs(measured - expected) / expected
        ok = rel <= 0.10
        report("6 (Markov variance)", ok,
               f"stationary variance off by {100 * rel:.1f}% (tol 10%)")

    def test_determinism_bit_identical(self):
        def one_run():
            records = static_records(duration=5.0, gyro_bias=BIAS, noisy=True,
                                     seed=99)
            estimates = run_pipeline(records, CRIT3_CONFIG)
            return (np.array([r.gyro for r in records]),
                    angles(estimates),
                    np.array([e.gyro_bias for e in estimates]))

        a, b = one_run(), one_run()
        ok = all(np.array_equal(x, y) for x, y in zip(a, b))
        report("6 (determinism)", ok,
               "simulator and pipeline reruns are bit-identical")
