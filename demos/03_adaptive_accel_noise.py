"""What the adaptive accelerometer noise buys during linear acceleration.

While the vehicle accelerates, the specific force no longer points along
gravity and the accelerometer "tilt" measurement lies. The norm gate
rejects gross offenders; samples inside the gate are de-weighted by a
factor that grows with | ||accel|| - g |. This script pushes the vehicle
forward at 3 m/s^2 for ten seconds and compares the roll/pitch damage
with the factor enabled and disabled.
"""

from dataclasses import replace

import numpy as np

from ahrskit.benchmark import matched_noise_config, mems_models
from ahrskit.fasteuler import accel_roll_pitch
from ahrskit.metrics import rmse
from ahrskit.pipeline import PipelineConfig, run_pipeline
from ahrskit.simulate import Segment, TrajectorySpec, simulate

PUSH = (15.0, 25.0)
results = {}
segments = (Segment(PUSH[0], (0.0, 0.0, 0.0)),
            Segment(PUSH[1] - PUSH[0], (0.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
            Segment(10.0, (0.0, 0.0, 0.0)))
gm, am, mm = mems_models(noisy=True)
log = simulate(TrajectorySpec(segments), gm, am, mm, 250.0, 5)

noise = replace(matched_noise_config(250.0), lambda_a=50.0)
sample = next(r for r in log if PUSH[0] + 1.0 < r.t < PUSH[1])
print("specific-force norm during the push: "
      f"{np.linalg.norm(sample.accel):.2f} m/s^2 (gravity 9.81)")
print(f"adaptive noise factor for that sample: "
      f"{accel_roll_pitch(sample.accel, noise)[2]:.1f}x nominal")

print(f"\n{'setting':<12}{'roll RMSE':>12}{'pitch RMSE':>12}   (deg, during the push)")
for label, lam in (("adaptive", noise.lambda_a), ("fixed", 0.0)):
    cfg = PipelineConfig(noise=replace(noise, lambda_a=lam))
    estimates = run_pipeline(log, cfg)
    n_skip = len(log) - len(estimates)
    in_push = (log.t[n_skip:] >= PUSH[0]) & (log.t[n_skip:] <= PUSH[1])
    r = rmse(estimates.euler[in_push], log.truth[n_skip:][in_push])
    results[label] = r
    print(f"{label:<12}{r[0]:>12.3f}{r[1]:>12.3f}")

ratio = results["fixed"][1] / results["adaptive"][1]
print(f"\nthe fixed setting drags pitch toward atan2(3, 9.81) = 17 deg; "
      f"de-weighting cuts the damage {ratio:.1f}x")
