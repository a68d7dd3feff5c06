"""Gyro-bias estimation on a static vehicle.

A stationary IMU with a constant rate bias drifts when integrated
openly; the error-state filter observes the drift through the
accelerometer and magnetometer and folds the bias into its accumulator.
This script simulates 60 s of static data with a known injected bias and
watches the estimate converge.
"""

import numpy as np

from ahrskit.benchmark import matched_noise_config, static_records
from ahrskit.pipeline import PipelineConfig, run_pipeline

INJECTED = np.array([0.02, -0.01, 0.015])  # rad/s

log = static_records(duration=60.0, gyro_bias=tuple(INJECTED), noisy=True, seed=7)
print(f"simulated {len(log)} samples at 250 Hz, injected gyro bias "
      f"{INJECTED} rad/s")

config = PipelineConfig(noise=matched_noise_config(250.0))
estimates = run_pipeline(log, config)

print("\n  time    bias estimate (rad/s)              error (%)")
for mark in (5.0, 10.0, 20.0, 30.0, 45.0, 60.0):
    # the last estimate at or before the mark
    bias = estimates.gyro_bias[np.searchsorted(estimates.t, mark, side="right") - 1]
    err = 100.0 * (bias - INJECTED) / INJECTED
    print(f"  {mark:4.0f} s  [{bias[0]: .6f} {bias[1]: .6f} "
          f"{bias[2]: .6f}]  [{err[0]: 5.2f} {err[1]: 5.2f} {err[2]: 5.2f}]")

# attitude stays put while the bias is being learned
angles = estimates.euler[estimates.t >= 30.0, :2]
rms = np.degrees(np.sqrt(np.mean(angles ** 2, axis=0)))
print(f"\nroll/pitch RMS after convergence: {rms[0]:.3f} / {rms[1]:.3f} deg")

# contrast: integrate the same gyros without any correction
open_loop = run_pipeline(log, PipelineConfig(algorithm="gyro-only"))
drift = np.degrees(abs(open_loop[-1].euler.roll))
print(f"open-loop roll drift over the same minute: {drift:.1f} deg")
