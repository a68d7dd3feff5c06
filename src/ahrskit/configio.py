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
from typing import Callable, Dict, List, Tuple

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


def _floats(value: str, n: int) -> List[float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(parts)}")
    return [float(p) for p in parts]


def _read(text: str, source: str, keys: dict, kind: str, build: Callable,
          repeated: str = ""):
    """`build` of {owner: {field name: value}} read from `text` by `keys`;
    `repeated`'s values become a tuple. Errors name the source (and key)."""
    fields: Dict[object, dict] = {owner: {} for owner, _, _ in keys.values()}
    for key, value in parse_kv_lines(text, source):
        if key not in keys:
            raise ValueError(f"{source}: unknown {kind} key {key!r}")
        owner, name, parse = keys[key]
        if name in fields[owner] and key != repeated:
            raise ValueError(f"{source}: duplicate {kind} key {key!r}")
        try:
            value = parse(value)
        except ValueError as exc:
            raise ValueError(f"{source}: key {key!r}: {exc}") from exc
        fields[owner][name] = fields[owner].get(name, ()) + (value,) \
            if key == repeated else value
    try:
        return build(fields)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# pipeline config files

def _deg2(value: str) -> float:
    return float(value) * _DEG2RAD_SQ


def _deg2_diag(n: int):
    return lambda value: tuple([v * _DEG2RAD_SQ for v in _floats(value, n)])


# key -> (owner class, field name, parser): each key sets one field of
# PipelineConfig or its NoiseConfig; an absent key keeps the default.
_PIPELINE_KEYS = {
    "algorithm": (PipelineConfig, "algorithm", str),
    "mag_rate_hz": (PipelineConfig, "mag_rate_hz", float),
    "align_s": (PipelineConfig, "align_duration_s", float),
    "cf_kp": (PipelineConfig, "cf_kp", float),
    "cf_ki": (PipelineConfig, "cf_ki", float),
    "gravity": (NoiseConfig, "gravity", float),
    "accel_gate": (NoiseConfig, "accel_gate", float),
    "q_diag_deg2": (NoiseConfig, "Q", _deg2_diag(6)),
    "ra_diag_deg2": (NoiseConfig, "Ra_nominal", _deg2_diag(2)),
    "rm_deg2": (NoiseConfig, "Rm", _deg2),
    "tau_g_s": (NoiseConfig, "tau_g", float),
    "lambda_a": (NoiseConfig, "lambda_a", float),
    "gamma2_max": (NoiseConfig, "gamma2_max", float),
}


def pipeline_config_from_text(text: str, source: str = "<config>") -> PipelineConfig:
    return _read(text, source, _PIPELINE_KEYS, "config", lambda fields: PipelineConfig(
        noise=NoiseConfig(**fields[NoiseConfig]), **fields[PipelineConfig]))


def load_pipeline_config(path) -> PipelineConfig:
    path = Path(path)
    return pipeline_config_from_text(path.read_text(encoding="utf-8"), str(path))


def config_hash(path) -> str:
    """Short content hash used to tag evaluation results."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# scenario files for the simulator

def _seed(value: str | int) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


def _rate(value: str) -> float:
    rate = float(value)
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    return rate


def _vector3(value: str) -> Tuple[float, float, float]:
    return tuple(_floats(value, 3))


def _rpy_deg(value: str) -> EulerAngles:
    return EulerAngles(*(math.radians(a) for a in _floats(value, 3)))


def _segment(value: str) -> Segment:
    v = _floats(value, 7)
    return Segment(v[0], tuple(math.radians(x) for x in v[1:4]), tuple(v[4:7]))


# key -> (owner, field name, parser): each key sets one field of the
# trajectory or a sensor model, and an absent key keeps its default;
# rate_hz and seed belong to the run, whose defaults are _RUN_DEFAULTS.
_SCENARIO_KEYS = {
    "rate_hz": ("run", "rate_hz", _rate),
    "seed": ("run", "seed", _seed),
    "initial_rpy_deg": (TrajectorySpec, "initial_attitude", _rpy_deg),
    "gyro_bias_rps": (GyroModel, "bias", _vector3),
    "gyro_tau_s": (GyroModel, "tau", float),
    "gyro_sigma_markov": (GyroModel, "sigma_markov", float),
    "gyro_sigma_white": (GyroModel, "sigma_white", float),
    "accel_sigma_white": (AccelModel, "sigma_white", float),
    "gravity": (AccelModel, "gravity", float),
    "mag_field_ned": (MagModel, "field_ned", _vector3),
    "mag_sigma_white": (MagModel, "sigma_white", float),
}
_RUN_DEFAULTS = {"rate_hz": 250.0, "seed": 0}


def _scenario(fields: dict):
    if "segments" not in fields[TrajectorySpec]:
        raise ValueError("scenario needs at least one 'segment' line")
    run = {**_RUN_DEFAULTS, **fields["run"]}
    return (TrajectorySpec(**fields[TrajectorySpec]), GyroModel(**fields[GyroModel]),
            AccelModel(**fields[AccelModel]), MagModel(**fields[MagModel]),
            run["rate_hz"], run["seed"])


def scenario_from_text(text: str, source: str = "<scenario>"):
    """Parse a scenario file.

    Returns (TrajectorySpec, GyroModel, AccelModel, MagModel, rate, seed).
    ``segment`` lines repeat, in order, each holding
    ``duration_s, wx_dps, wy_dps, wz_dps, ax, ay, az``.
    """
    keys = {**_SCENARIO_KEYS, "segment": (TrajectorySpec, "segments", _segment)}
    return _read(text, source, keys, "scenario", _scenario, repeated="segment")


def load_scenario(path):
    path = Path(path)
    return scenario_from_text(path.read_text(encoding="utf-8"), str(path))
