"""Double-layer Kalman filter vs complementary filter on a maneuver mix.

The 120 s benchmark trajectory covers hover, roll/pitch doublets, a
90 degree heading turn and a sustained forward push, flown with
datasheet-level sensor noise and a constant gyro bias. Both estimators
see identical data; the table at the end mirrors a published-style
side-by-side RMSE comparison.
"""

from dataclasses import replace

import numpy as np

from ahrskit.benchmark import benchmark_records, matched_noise_config
from ahrskit.metrics import evaluate, format_comparison
from ahrskit.pipeline import PipelineConfig, run_pipeline

log = benchmark_records(seed=11)  # a SensorLog: read-only t, gyro, ... and truth columns
print(f"benchmark: {len(log)} samples, {log.t[-1]:.0f} s, maneuvers + "
      "constant gyro bias (0.01, -0.008, 0.006) rad/s")

config = PipelineConfig(noise=replace(matched_noise_config(250.0), lambda_a=50.0))

results = {}
for algorithm in ("cf", "dlkf"):
    estimates = run_pipeline(log, replace(config, algorithm=algorithm))
    results[algorithm] = evaluate(estimates.t, estimates.euler, log.t, log.truth,
                                  algorithm=algorithm)
    print(f"{algorithm:>5}: per-angle RMSE "
          f"{np.round(results[algorithm].rmse_deg, 4)} deg")

print()
print(format_comparison(results["cf"], results["dlkf"]))
