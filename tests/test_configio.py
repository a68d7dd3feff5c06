import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from ahrskit import configio
from ahrskit.configio import (config_hash, load_pipeline_config, load_scenario,
                              parse_kv_lines, pipeline_config_from_text,
                              scenario_from_text)
from ahrskit.pipeline import PipelineConfig
from ahrskit.simulate import AccelModel, GyroModel, MagModel, simulate

FULL_CONFIG = """
# benchmark tuning
algorithm = cf
mag_rate_hz = 20
align_s = 1.5
gravity = 9.80665
accel_gate = 0.3
q_diag_deg2 = 1e-5, 1e-5, 1e-5, 1e-6, 1e-6, 1e-6
ra_diag_deg2 = 0.5, 5
rm_deg2 = 5
tau_g_s = 120
lambda_a = 10
gamma2_max = 50
cf_kp = 2.0
cf_ki = 0.1
"""

SCENARIO = """
rate_hz = 100
seed = 42
initial_rpy_deg = 10, -5, 90
segment = 2.0, 0, 0, 0, 0, 0, 0          # hover
segment = 1.0, 10, 0, 0, 0, 0, 0         # roll rate 10 dps
segment = 1.5, 0, 0, 0, 3, 0, 0          # forward push
gyro_bias_rps = 0.02, -0.01, 0.015
gyro_tau_s = 50
gyro_sigma_white = 8.7e-5
accel_sigma_white = 0.004
mag_sigma_white = 0.002
mag_field_ned = 0.5, 0, 0.866
"""

D2R2 = (math.pi / 180.0) ** 2

# per config key: a value off its default, and the one field it must set
ONE_KEY = {
    "algorithm": ("cf", "algorithm"),
    "mag_rate_hz": ("20", "mag_rate_hz"),
    "align_s": ("1.5", "align_duration_s"),
    "cf_kp": ("2", "cf_kp"),
    "cf_ki": ("0.1", "cf_ki"),
    "gravity": ("9.80665", "noise.gravity"),
    "accel_gate": ("0.3", "noise.accel_gate"),
    "q_diag_deg2": ("1e-5, 1e-5, 1e-5, 1e-6, 1e-6, 1e-6", "noise.Q"),
    "ra_diag_deg2": ("1, 2", "noise.Ra_nominal"),
    "rm_deg2": ("3", "noise.Rm"),
    "tau_g_s": ("120", "noise.tau_g"),
    "lambda_a": ("10", "noise.lambda_a"),
    "gamma2_max": ("50", "noise.gamma2_max"),
}


def config_fields(cfg):
    """Every settable value of a PipelineConfig, by dotted field name."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "noise"}
    out.update({"noise." + f.name: getattr(cfg.noise, f.name)
                for f in fields(cfg.noise)})
    return out


def changed_fields(a, b):
    fa, fb = config_fields(a), config_fields(b)
    return [name for name in fa if not np.array_equal(fa[name], fb[name])]


SEGMENT = "segment = 1, 0, 0, 0, 0, 0, 0\n"

# per scenario key: a value off its default, and the one field it must set
ONE_SCENARIO_KEY = {
    "rate_hz": ("100", "rate"),
    "seed": ("42", "seed"),
    "initial_rpy_deg": ("10, -5, 90", "traj.initial_attitude"),
    "gravity": ("9.80665", "accel.gravity"),
    "gyro_bias_rps": ("0.02, -0.01, 0.015", "gyro.bias"),
    "gyro_tau_s": ("50", "gyro.tau"),
    "gyro_sigma_markov": ("1e-5", "gyro.sigma_markov"),
    "gyro_sigma_white": ("8.7e-5", "gyro.sigma_white"),
    "accel_sigma_white": ("0.004", "accel.sigma_white"),
    "mag_sigma_white": ("0.002", "mag.sigma_white"),
    "mag_field_ned": ("0.6, 0, 0.8", "mag.field_ned"),
}


def scenario_fields(scenario):
    """Every value a scenario sets, by dotted field name."""
    traj, gyro, accel, mag, rate, seed = scenario
    out = {"rate": rate, "seed": seed}
    for prefix, obj in (("traj", traj), ("gyro", gyro), ("accel", accel), ("mag", mag)):
        out.update({f"{prefix}.{f.name}": getattr(obj, f.name) for f in fields(obj)})
    return out


def test_parse_kv_lines_comments_and_blanks():
    pairs = parse_kv_lines("a = 1\n\n# note\nb = 2  # trailing\n")
    assert pairs == [("a", "1"), ("b", "2")]


def test_parse_kv_lines_rejects_malformed():
    with pytest.raises(ValueError, match="key = value"):
        parse_kv_lines("just a line\n")
    with pytest.raises(ValueError, match="empty"):
        parse_kv_lines("key =\n")


class TestPipelineConfig:
    def test_full_config(self):
        cfg = pipeline_config_from_text(FULL_CONFIG)
        assert cfg.algorithm == "cf"
        assert cfg.mag_rate_hz == 20.0
        assert cfg.align_duration_s == 1.5
        assert cfg.noise.accel_gate == 0.3
        assert cfg.cf_kp == 2.0 and cfg.cf_ki == 0.1
        assert cfg.noise.tau_g == 120.0
        assert cfg.noise.lambda_a == 10.0
        assert cfg.noise.gamma2_max == 50.0
        assert cfg.noise.gravity == 9.80665
        assert cfg.noise.Ra_nominal == (0.5 * D2R2, 5.0 * D2R2)
        assert cfg.noise.Rm == pytest.approx(5.0 * D2R2)
        assert cfg.noise.Q == (1e-5 * D2R2,) * 3 + (1e-6 * D2R2,) * 3

    def test_equal_texts_give_equal_configs_and_hashes(self):
        a, b = (pipeline_config_from_text(FULL_CONFIG) for _ in range(2))
        assert a == b and hash(a) == hash(b)
        default = pipeline_config_from_text("")
        assert default == PipelineConfig() and hash(default) == hash(PipelineConfig())
        assert replace(default, cf_kp=2.0) != default
        assert replace(default, noise=replace(default.noise, Q=(0.0,) * 6)) != default

    def test_empty_text_gives_defaults(self):
        cfg = pipeline_config_from_text("")
        assert cfg.algorithm == "dlkf"
        assert cfg.mag_rate_hz == 10.0
        assert changed_fields(cfg, PipelineConfig()) == []

    def test_every_key_has_a_case(self):
        assert set(ONE_KEY) == set(configio._PIPELINE_KEYS)

    @pytest.mark.parametrize("key", ONE_KEY)
    def test_key_sets_exactly_one_field(self, key):
        value, field = ONE_KEY[key]
        changed = changed_fields(pipeline_config_from_text(f"{key} = {value}"),
                                 pipeline_config_from_text(""))
        assert changed == [field]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("key", [k for k in ONE_KEY if k != "algorithm"])
    def test_non_finite_value_rejected(self, key, bad):
        # the bad value replaces the first entry of a vector
        value = ", ".join([bad, *ONE_KEY[key][0].split(",")[1:]])
        with pytest.raises(ValueError, match=r"\bfinite"):
            pipeline_config_from_text(f"{key} = {value}")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'qdiag'"):
            pipeline_config_from_text("qdiag = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pipeline_config_from_text("cf_kp = 1\ncf_kp = 2\n")

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError, match="ra_diag_deg2"):
            pipeline_config_from_text("ra_diag_deg2 = 1, 2, 3\n")

    def test_file_round_trip_and_hash(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(FULL_CONFIG)
        cfg = load_pipeline_config(path)
        assert cfg.algorithm == "cf"
        h = config_hash(path)
        assert len(h) == 12
        assert h == config_hash(path)


class TestScenario:
    def test_full_scenario(self):
        traj, gyro, accel, mag, rate, seed = scenario_from_text(SCENARIO)
        assert rate == 100.0 and seed == 42
        assert len(traj.segments) == 3
        assert traj.segments[0].duration == 2.0
        assert traj.segments[1].rate[0] == pytest.approx(math.radians(10.0))
        assert traj.segments[2].accel == (3.0, 0.0, 0.0)
        assert traj.initial_attitude.yaw == pytest.approx(math.radians(90.0))
        assert gyro.bias == (0.02, -0.01, 0.015)
        assert gyro.tau == 50.0
        assert accel.sigma_white == 0.004
        assert mag.sigma_white == 0.002
        np.testing.assert_allclose(np.linalg.norm(mag.field_ned), 1.0, atol=1e-9)

    def test_segment_only_gives_defaults(self):
        traj, gyro, accel, mag, rate, seed = scenario_from_text(SEGMENT)
        assert (gyro, accel, mag) == (GyroModel(), AccelModel(), MagModel())
        assert traj.initial_attitude == (0.0, 0.0, 0.0)
        assert rate == 250.0 and seed == 0

    def test_every_key_has_a_case(self):
        assert set(ONE_SCENARIO_KEY) == set(configio._SCENARIO_KEYS)

    @pytest.mark.parametrize("key", ONE_SCENARIO_KEY)
    def test_key_sets_exactly_one_field(self, key):
        value, field = ONE_SCENARIO_KEY[key]
        a = scenario_fields(scenario_from_text(f"{SEGMENT}{key} = {value}\n"))
        b = scenario_fields(scenario_from_text(SEGMENT))
        assert [name for name in a if a[name] != b[name]] == [field]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("key", [*(k for k in ONE_SCENARIO_KEY if k != "seed"),
                                     "segment"])
    def test_non_finite_value_rejected(self, key, bad):
        # the bad value replaces the first entry of a vector or segment
        good = SEGMENT.split("=")[1] if key == "segment" else ONE_SCENARIO_KEY[key][0]
        value = ", ".join([bad, *good.split(",")[1:]])
        with pytest.raises(ValueError, match=r"\bfinite"):
            simulate(*scenario_from_text(f"{SEGMENT}{key} = {value}\n"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario key 'seed'"):
            scenario_from_text(f"{SEGMENT}seed = 1\nseed = 2\n")

    def test_segmentless_scenario_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            scenario_from_text("rate_hz = 100\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            scenario_from_text("segment = 1,0,0,0,0,0,0\nwind = 5\n")

    def test_segment_arity_checked(self):
        with pytest.raises(ValueError, match="segment"):
            scenario_from_text("segment = 1, 0, 0\n")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "hover.scn"
        path.write_text(SCENARIO)
        traj, *_ = load_scenario(path)
        assert traj.duration == pytest.approx(4.5)


class TestValueErrorsNameFileAndKey:
    """A value a parser rejects names the source and the key; a value the
    config or model class rejects names the source."""

    @pytest.mark.parametrize("line, message", [
        ("cf_kp = 1.o", "<config>: key 'cf_kp': could not convert string to float: '1.o'"),
        ("ra_diag_deg2 = 1, 2, 3",
         "<config>: key 'ra_diag_deg2': expected 2 comma-separated values, got 3"),
        ("mag_rate_hz = 0", "<config>: mag rate must be finite and > 0"),
        ("accel_gate = -1", "<config>: accel_gate must be finite and > 0, got -1.0"),
        ("q_diag_deg2 = 1, 1, 1, 1, 1, -1", "<config>: Q must be six finite variances "
         f">= 0, got {(D2R2,) * 5 + (-D2R2,)!r}"),
        ("ra_diag_deg2 = 0.5, 0", "<config>: Ra_nominal must be two finite variances "
         f"> 0, got {(0.5 * D2R2, 0.0)!r}"),
    ])
    def test_config(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pipeline_config_from_text(line)

    @pytest.mark.parametrize("line, message", [
        ("seed = 1.5", "<scenario>: key 'seed': invalid literal for int() with base 10: '1.5'"),
        ("seed = -1", "<scenario>: key 'seed': expected a non-negative integer, got -1"),
        ("rate_hz = 0", "<scenario>: key 'rate_hz': rate must be finite and > 0, got 0.0"),
        ("rate_hz = -250",
         "<scenario>: key 'rate_hz': rate must be finite and > 0, got -250.0"),
        ("rate_hz = inf", "<scenario>: key 'rate_hz': rate must be finite and > 0, got inf"),
        ("rate_hz = nan", "<scenario>: key 'rate_hz': rate must be finite and > 0, got nan"),
        ("gyro_tau_s = -3", "<scenario>: tau must be finite and > 0, got -3.0"),
        ("segment = 1, 0, x, 0, 0, 0, 0",
         "<scenario>: key 'segment': could not convert string to float: 'x'"),
        ("mag_field_ned = 1, 0", "<scenario>: key 'mag_field_ned': "
                                 "expected 3 comma-separated values, got 2"),
    ])
    def test_scenario(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_from_text(f"{SEGMENT}{line}\n")

    def test_files(self, tmp_path):
        cfg, scn = tmp_path / "run.cfg", tmp_path / "hover.scn"
        cfg.write_text("cf_kp = 1.o\n")
        scn.write_text(f"{SEGMENT}gyro_tau_s = -3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}: key 'cf_kp': "):
            load_pipeline_config(cfg)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scn))}: tau must be"):
            load_scenario(scn)
