"""Flat key-value text files for run configs and simulation scenarios.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored. Unknown keys are errors so typos fail loudly instead
of silently falling back to defaults. Angle-valued keys carry their unit
in the name (``*_deg``, ``*_deg2``, ``*_dps``); everything else is SI.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .dlkf import _DEG2RAD_SQ, NoiseConfig
from .geometry import EulerAngles
from .pipeline import PipelineConfig
from .simulate import (AccelModel, GyroModel, MagModel, Segment,
                       TrajectorySpec)


def parse_kv_lines(text: str, source: str = "<config>") -> List[Tuple[str, str]]:
    """Parse key-value lines, preserving order and repeated keys."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"{source}:{lineno}: empty key or value in {raw!r}")
        pairs.append((key, value))
    return pairs


def _floats(value: str, n: int, key: str) -> List[float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise ValueError(f"key {key!r}: expected {n} comma-separated values, "
                         f"got {len(parts)}")
    return [float(p) for p in parts]


# ---------------------------------------------------------------------------
# pipeline config files

def _text(value: str, key: str) -> str:
    return value


def _number(value: str, key: str) -> float:
    return float(value)


def _deg2(value: str, key: str) -> float:
    return float(value) * _DEG2RAD_SQ


def _deg2_diag(n: int):
    return lambda value, key: np.diag(_floats(value, n, key)) * _DEG2RAD_SQ


# key -> (owner class, field name, parser): each key sets one field of
# PipelineConfig or its NoiseConfig; an absent key keeps the default.
_PIPELINE_KEYS = {
    "algorithm": (PipelineConfig, "algorithm", _text),
    "imu_rate_hz": (PipelineConfig, "imu_rate_hz", _number),
    "mag_rate_hz": (PipelineConfig, "mag_rate_hz", _number),
    "align_s": (PipelineConfig, "align_duration_s", _number),
    "cf_kp": (PipelineConfig, "cf_kp", _number),
    "cf_ki": (PipelineConfig, "cf_ki", _number),
    "gravity": (NoiseConfig, "gravity", _number),
    "accel_gate": (NoiseConfig, "accel_gate", _number),
    "q_diag_deg2": (NoiseConfig, "Q", _deg2_diag(6)),
    "ra_diag_deg2": (NoiseConfig, "Ra_nominal", _deg2_diag(2)),
    "rm_deg2": (NoiseConfig, "Rm", _deg2),
    "tau_g_s": (NoiseConfig, "tau_g", _number),
    "lambda_a": (NoiseConfig, "lambda_a", _number),
    "gamma2_max": (NoiseConfig, "gamma2_max", _number),
}


def pipeline_config_from_text(text: str, source: str = "<config>") -> PipelineConfig:
    fields: Dict[type, dict] = {PipelineConfig: {}, NoiseConfig: {}}
    for key, value in parse_kv_lines(text, source):
        if key not in _PIPELINE_KEYS:
            raise ValueError(f"{source}: unknown config key {key!r}")
        owner, name, parse = _PIPELINE_KEYS[key]
        if name in fields[owner]:
            raise ValueError(f"{source}: duplicate config key {key!r}")
        fields[owner][name] = parse(value, key)
    return PipelineConfig(noise=NoiseConfig(**fields[NoiseConfig]),
                          **fields[PipelineConfig])


def load_pipeline_config(path) -> PipelineConfig:
    path = Path(path)
    return pipeline_config_from_text(path.read_text(encoding="utf-8"), str(path))


def config_hash(path) -> str:
    """Short content hash used to tag evaluation results."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# scenario files for the simulator

def _vector3(value: str, key: str) -> Tuple[float, float, float]:
    return tuple(_floats(value, 3, key))


def _rpy_deg(value: str, key: str) -> EulerAngles:
    return EulerAngles(*(math.radians(a) for a in _floats(value, 3, key)))


# key -> (owner, field name, parser): each key sets one field of the
# trajectory or a sensor model, and an absent key keeps its default;
# rate_hz and seed belong to the run, whose defaults are _RUN_DEFAULTS.
_SCENARIO_KEYS = {
    "rate_hz": ("run", "rate_hz", _number),
    "seed": ("run", "seed", lambda value, key: int(value)),
    "initial_rpy_deg": (TrajectorySpec, "initial_attitude", _rpy_deg),
    "gyro_bias_rps": (GyroModel, "bias", _vector3),
    "gyro_tau_s": (GyroModel, "tau", _number),
    "gyro_sigma_markov": (GyroModel, "sigma_markov", _number),
    "gyro_sigma_white": (GyroModel, "sigma_white", _number),
    "accel_sigma_white": (AccelModel, "sigma_white", _number),
    "gravity": (AccelModel, "gravity", _number),
    "mag_field_ned": (MagModel, "field_ned", _vector3),
    "mag_sigma_white": (MagModel, "sigma_white", _number),
}
_RUN_DEFAULTS = {"rate_hz": 250.0, "seed": 0}


def scenario_from_text(text: str, source: str = "<scenario>"):
    """Parse a scenario file.

    Returns (TrajectorySpec, GyroModel, AccelModel, MagModel, rate, seed).
    ``segment`` lines repeat, in order, each holding
    ``duration_s, wx_dps, wy_dps, wz_dps, ax, ay, az``.
    """
    fields: Dict[object, dict] = {owner: {} for owner, _, _ in _SCENARIO_KEYS.values()}
    segments: List[Segment] = []
    for key, value in parse_kv_lines(text, source):
        if key == "segment":
            v = _floats(value, 7, "segment")
            segments.append(Segment(v[0], tuple(math.radians(x) for x in v[1:4]),
                                    tuple(v[4:7])))
            continue
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{source}: unknown scenario key {key!r}")
        owner, name, parse = _SCENARIO_KEYS[key]
        if name in fields[owner]:
            raise ValueError(f"{source}: duplicate scenario key {key!r}")
        fields[owner][name] = parse(value, key)
    if not segments:
        raise ValueError(f"{source}: scenario needs at least one 'segment' line")
    run = {**_RUN_DEFAULTS, **fields["run"]}
    return (TrajectorySpec(tuple(segments), **fields[TrajectorySpec]),
            GyroModel(**fields[GyroModel]), AccelModel(**fields[AccelModel]),
            MagModel(**fields[MagModel]), run["rate_hz"], run["seed"])


def load_scenario(path):
    path = Path(path)
    return scenario_from_text(path.read_text(encoding="utf-8"), str(path))
