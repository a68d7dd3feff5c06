"""The benchmark's three workloads.

A workload is built from a seed. ``setup`` makes its inputs, ``run`` does
one timed unit of the work a user would do and returns the outputs with
the seconds spent inside ``run_pipeline``, and ``check`` verifies those
outputs untimed. Every call into the package goes through a module
attribute (``pipeline.run_pipeline``, ``metrics.rmse``, ``cli.main``) so
that the traced run's wrappers see it.

- ``replay``: the fixed dynamic scenario (``benchmark_records``, 30 000
  samples) run in memory through ``dlkf``, ``cf`` and ``gyro-only``. The
  dlkf hot path; cf and gyro-only share the input but skip the filter.
- ``sweep``: six short static logs, each simulated, run through ``dlkf``
  and scored. Many short runs, so per-run fixed costs weigh more, and the
  accelerometer is never gated.
- ``cli-roundtrip``: ``ahrskit sim``, ``run`` (gyro-only) and ``eval``
  through CSV files. CSV I/O, config parsing, the simulator and metrics
  do the work; the filter almost none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, NamedTuple

import numpy as np

from ahrskit import cli, metrics, pipeline
from ahrskit.benchmark import (ACCEL_NOISE_DENSITY, BENCHMARK_GYRO_BIAS,
                               GYRO_NOISE_DENSITY, MAG_NOISE_DENSITY,
                               benchmark_records, dynamic_trajectory,
                               matched_noise_config, static_records)
from ahrskit.simulate import truth_array

IMU_RATE_HZ = 250.0
# scratch files of cli-roundtrip live inside the checkout and are removed
WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_work"


class Checked(NamedTuple):
    """Result of checking one unit's outputs."""

    failures: List[str]        # empty when every check passed
    digests: Dict[str, str]    # sha256 of each estimate series
    rmse_max_deg: float        # worst-angle RMSE of the workload's estimate


def estimate_array(estimates) -> np.ndarray:
    """(N, 11) rows of t, roll, pitch, yaw, qw, qx, qy, qz, bgx, bgy, bgz."""
    return np.array([(e.t, *e.euler, *e.q, *e.gyro_bias) for e in estimates],
                    dtype=float).reshape(-1, 11)


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def expected_estimates(times, align_s: float) -> int:
    """Samples the pipeline emits: all after the alignment window."""
    end = times[0] + align_s
    return sum(1 for t in times if t > end)


def _check_series(label: str, arr: np.ndarray, expected: int) -> List[str]:
    failures = []
    if len(arr) != expected:
        failures.append(f"{label}: {len(arr)} estimates, expected {expected}")
    if not np.isfinite(arr).all():
        failures.append(f"{label}: non-finite estimate values")
    return failures


class Replay:
    """The ROADMAP's fixed scenario through all three algorithms."""

    name = "replay"
    algorithms = ("dlkf", "cf", "gyro-only")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        # criterion-4 tuning: matched noise with a strong adaptive weight
        base = pipeline.PipelineConfig(
            noise=replace(matched_noise_config(IMU_RATE_HZ), lambda_a=50.0))
        self.configs = {a: replace(base, algorithm=a) for a in self.algorithms}
        self.records = benchmark_records(rate=IMU_RATE_HZ, seed=self.seed)
        n = expected_estimates([r.t for r in self.records], base.align_duration_s)
        self.truth = truth_array(self.records[len(self.records) - n:])
        self.samples = len(self.records) * len(self.algorithms)

    def run(self, on_epoch=None):
        estimates, seconds = {}, {}
        for algorithm, cfg in self.configs.items():
            hook = on_epoch if algorithm == "dlkf" else None
            start = time.perf_counter()
            estimates[algorithm] = pipeline.run_pipeline(self.records, cfg, hook)
            seconds[algorithm] = time.perf_counter() - start
        return estimates, seconds

    def check(self, estimates) -> Checked:
        failures, digests, errors = [], {}, {}
        for algorithm, est in estimates.items():
            arr = estimate_array(est)
            digests[algorithm] = digest(arr)
            bad = _check_series(algorithm, arr, len(self.truth))
            failures += bad
            if not bad:
                errors[algorithm] = metrics.rmse(arr[:, 1:4], self.truth)
        if "dlkf" in errors and "cf" in errors:
            # criterion 4: the filter beats the complementary baseline on
            # every angle of the dynamic scenario
            for angle, d, c in zip(("roll", "pitch", "yaw"), errors["dlkf"], errors["cf"]):
                if not d < c:
                    failures.append(f"dlkf {angle} RMSE {d:.4f} deg not below cf {c:.4f} deg")
        return Checked(failures, digests, max(errors.get("dlkf", (math.nan,))))

    def teardown(self) -> None:
        pass


class Sweep:
    """Monte Carlo evaluation: simulate, run and score six static logs."""

    name = "sweep"
    runs = 6
    duration_s = 20.0
    gyro_bias = (0.02, -0.01, 0.015)   # criterion-3 bias, rad/s
    settle_s = 10.0
    settled_limit_deg = 0.5            # criterion-3 roll/pitch rule

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.config = pipeline.PipelineConfig(noise=matched_noise_config(IMU_RATE_HZ))
        self.seeds = [int(s) for s in np.random.SeedSequence(self.seed).generate_state(self.runs)]
        self.samples = self.runs * round(self.duration_s * IMU_RATE_HZ)

    def run(self, on_epoch=None):
        results, seconds = [], 0.0
        for seed in self.seeds:
            records = static_records(duration=self.duration_s, rate=IMU_RATE_HZ,
                                     gyro_bias=self.gyro_bias, noisy=True, seed=seed)
            start = time.perf_counter()
            est = pipeline.run_pipeline(records, self.config)
            seconds += time.perf_counter() - start
            arr = estimate_array(est)
            truth = truth_array(records[len(records) - len(arr):])
            results.append((records, arr, truth, metrics.rmse(arr[:, 1:4], truth)))
        return results, {"dlkf": seconds}

    def check(self, results) -> Checked:
        failures, worst = [], []
        for seed, (records, arr, truth, errors) in zip(self.seeds, results):
            expected = expected_estimates([r.t for r in records],
                                          self.config.align_duration_s)
            bad = _check_series(f"seed {seed}", arr, expected)
            failures += bad
            if bad:
                continue
            worst.append(max(errors))
            settled = arr[:, 0] >= self.settle_s
            roll, pitch, _ = metrics.rmse(arr[settled, 1:4], truth[settled])
            if not max(roll, pitch) < self.settled_limit_deg:
                failures.append(f"seed {seed}: settled roll/pitch RMS "
                                f"{max(roll, pitch):.4f} deg over {self.settled_limit_deg}")
        digests = {"dlkf": digest(np.concatenate([r[1] for r in results]))}
        return Checked(failures, digests,
                       float(np.mean(worst)) if worst else math.nan)

    def teardown(self) -> None:
        pass


def scenario_text(seed: int) -> str:
    """The dynamic benchmark trajectory and sensor models as a scenario file."""
    lines = [
        f"rate_hz = {IMU_RATE_HZ!r}",
        f"seed = {seed}",
        "gyro_bias_rps = " + ", ".join(repr(b) for b in BENCHMARK_GYRO_BIAS),
        f"gyro_sigma_white = {GYRO_NOISE_DENSITY!r}",
        f"accel_sigma_white = {ACCEL_NOISE_DENSITY!r}",
        f"mag_sigma_white = {MAG_NOISE_DENSITY!r}",
    ]
    for seg in dynamic_trajectory().segments:
        values = (seg.duration, *(math.degrees(w) for w in seg.rate), *seg.accel)
        lines.append("segment = " + ", ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


_RMSE_LINE = re.compile(r"^rmse_(roll|pitch|yaw)_deg=(\S+)$", re.MULTILINE)


class CliRoundtrip:
    """The file workflow: sim, run (gyro-only) and eval through the CLI."""

    name = "cli-roundtrip"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-roundtrip-", dir=WORK_ROOT))
        self.scenario = self.work / "dynamic.scn"
        self.scenario.write_text(scenario_text(self.seed), encoding="utf-8")
        self.config = self.work / "gyro-only.cfg"
        self.config.write_text("algorithm = gyro-only\n", encoding="utf-8")
        self.log = self.work / "log.csv"
        self.estimates = self.work / "est.csv"
        self.samples = round(sum(s.duration for s in dynamic_trajectory().segments)
                             * IMU_RATE_HZ)
        # time the estimator inside `ahrskit run` without changing what it calls
        self._pipeline_s = 0.0
        self._cli_run_pipeline = cli.run_pipeline
        cli.run_pipeline = self._timed_run_pipeline

    def _timed_run_pipeline(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return pipeline.run_pipeline(*args, **kwargs)
        finally:
            self._pipeline_s += time.perf_counter() - start

    def run(self, on_epoch=None):
        self._pipeline_s = 0.0
        commands = {
            "sim": ["sim", "--scenario", str(self.scenario), "--out", str(self.log)],
            "run": ["run", "--log", str(self.log), "--config", str(self.config),
                    "--out", str(self.estimates)],
            "eval": ["eval", "--estimates", str(self.estimates), "--truth", str(self.log),
                     "--name", "gyro-only"],
        }
        codes, stdout = {}, {}
        for command, argv in commands.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[command] = cli.main(argv)
            stdout[command] = buf.getvalue()
        return (codes, stdout), {"gyro-only": self._pipeline_s}

    def bytes_written(self) -> int:
        return self.log.stat().st_size + self.estimates.stat().st_size

    def estimate_rows(self) -> int:
        return len(self.estimates.read_text(encoding="utf-8").splitlines()) - 1

    def check(self, outputs) -> Checked:
        codes, stdout = outputs
        failures = [f"ahrskit {c} exited {code}" for c, code in codes.items() if code != 0]
        errors = {angle: float(value) for angle, value in _RMSE_LINE.findall(stdout["eval"])}
        if sorted(errors) != ["pitch", "roll", "yaw"]:
            failures.append("ahrskit eval printed no rmse_{roll,pitch,yaw}_deg lines")
        digests = {}
        if not failures:
            body = self.estimates.read_text(encoding="utf-8").split("\n", 1)[1]
            arr = np.array([v for v in body.replace("\n", ",").split(",") if v],
                           dtype=float).reshape(-1, 11)
            # CSV floats round-trip exactly: equal to replay's gyro-only digest
            digests["gyro-only"] = digest(arr)
            log_rows = self.log.read_text(encoding="utf-8").splitlines()[1:]
            times = [float(row.split(",", 1)[0]) for row in log_rows if row]
            align_s = pipeline.PipelineConfig().align_duration_s
            failures += _check_series("gyro-only", arr, expected_estimates(times, align_s))
        return Checked(failures, digests, max(errors.values()) if errors else math.nan)

    def teardown(self) -> None:
        cli.run_pipeline = self._cli_run_pipeline
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


WORKLOADS = {w.name: w for w in (Replay, Sweep, CliRoundtrip)}
