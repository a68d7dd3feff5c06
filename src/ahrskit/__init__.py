"""Attitude-heading estimation for small UAVs.

A gyro-propagated, accelerometer/magnetometer-corrected attitude
estimator built around a six-state error-state Kalman filter with two
sequential measurement layers and adaptive accelerometer noise, plus a
complementary-filter baseline, a synthetic sensor simulator, and an
RMSE evaluation harness.
"""

from .dlkf import FilterState, NoiseConfig, accel_update, mag_update
from .fasteuler import accel_roll_pitch, mag_yaw
from .geometry import (EulerAngles, Quaternion, euler_to_quat, quat_multiply,
                       quat_to_dcm, quat_to_euler, rotvec_to_quat, wrap_pi,
                       wrap_yaw)
from .metrics import RunResult, align_series, evaluate, improvement, rmse
from .pipeline import (AlignmentError, AttitudeEstimate, Estimates,
                       PipelineConfig, initial_alignment, run_pipeline)
from .simulate import (AccelModel, GyroModel, MagModel, Segment, SensorLog,
                       SensorRecord, TrajectorySpec, simulate)

__version__ = "0.1.0"

__all__ = [
    "AccelModel", "AlignmentError", "AttitudeEstimate", "Estimates",
    "EulerAngles", "FilterState", "GyroModel", "MagModel", "NoiseConfig",
    "PipelineConfig", "Quaternion", "RunResult", "Segment", "SensorLog",
    "SensorRecord", "TrajectorySpec",
    "accel_roll_pitch", "accel_update", "align_series", "euler_to_quat",
    "evaluate", "improvement", "initial_alignment", "mag_update", "mag_yaw",
    "quat_multiply", "quat_to_dcm", "quat_to_euler", "rmse", "rotvec_to_quat",
    "run_pipeline", "simulate", "wrap_pi", "wrap_yaw",
]
