"""Attitude accuracy metrics: per-angle RMSE and run-to-run improvement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
from .simulate import _check_times


@dataclass
class RunResult:
    """Aligned estimate/truth angle series plus the derived RMSE."""

    t: np.ndarray          # (N,) s
    est: np.ndarray        # (N, 3) roll/pitch/yaw, rad
    truth: np.ndarray      # (N, 3) rad
    rmse_deg: np.ndarray   # (3,) degrees
    algorithm: str = ""
    config_hash: str = ""


def _wrap_residual(diff: np.ndarray) -> np.ndarray:
    # (-pi, pi]: equal residuals for headings on either side of north
    r = np.mod(diff, TWO_PI)
    return np.where(r > np.pi, r - TWO_PI, r)


def rmse(est, truth) -> tuple[float, float, float]:
    """Per-angle root-mean-square error in degrees.

    est, truth: (N, 3) roll/pitch/yaw in radians, N >= 1. Every residual
    is wrapped to (-180, 180] degrees before squaring, so 359 deg vs
    1 deg counts as a 2 degree error. Every angle must be finite.
    """
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.ndim != 2 or est.shape[1] != 3 or est.shape[0] < 1:
        raise ValueError(f"expected (N, 3) angle array with N >= 1, got {est.shape}")
    if est.shape != truth.shape:
        raise ValueError(f"estimate/truth shape mismatch: {est.shape} vs {truth.shape}")
    for name, angles in (("estimate", est), ("truth", truth)):
        bad = angles[~np.isfinite(angles)]
        if bad.size:
            raise ValueError(f"{name} angles must be finite, got {bad[0]}")
    resid = _wrap_residual(est - truth)
    out = np.degrees(np.sqrt(np.mean(resid * resid, axis=0)))
    return float(out[0]), float(out[1]), float(out[2])


def improvement(baseline_rmse: float, candidate_rmse: float) -> float:
    """Percent accuracy gain of the candidate over the baseline.

    Computed as 100 * (baseline - candidate) / candidate: the gain is
    expressed relative to the candidate's error, which must be finite
    and > 0; the baseline's must be finite and >= 0.
    """
    if not 0.0 < candidate_rmse < math.inf:
        raise ValueError(f"candidate RMSE must be finite and > 0, got {candidate_rmse}")
    if not 0.0 <= baseline_rmse < math.inf:
        raise ValueError(f"baseline RMSE must be finite and >= 0, got {baseline_rmse}")
    return 100.0 * (baseline_rmse - candidate_rmse) / candidate_rmse


def align_series(t_est, est, t_truth, truth):
    """Pair estimate and truth samples by nearest timestamp.

    Each truth sample is matched to the nearest estimate, the earlier on
    a tie; pairs further apart than half the median estimate period are
    dropped (none, with a single estimate). Each series must have one
    row per time, and estimate and truth times must each be finite and
    strictly increasing, or a ValueError names the series or the first
    row that is not. Returns (t, est_matched, truth_matched).
    """
    t_est = np.asarray(t_est, dtype=float)
    est = np.asarray(est, dtype=float)
    t_truth = np.asarray(t_truth, dtype=float)
    truth = np.asarray(truth, dtype=float)
    for name, times, rows in (("estimate", t_est, est), ("truth", t_truth, truth)):
        if len(rows) != len(times):
            raise ValueError(f"{name} series has {len(rows)} rows for {len(times)} times")
    if len(t_est) == 0 or len(t_truth) == 0:
        raise ValueError("cannot align empty series")
    _check_times(t_est, "estimate")
    _check_times(t_truth, "truth")
    max_gap = 0.5 * np.median(np.diff(t_est)) if len(t_est) > 1 else np.inf

    # the estimates either side of each truth time; before t_est[0], the first twice
    after = np.minimum(np.searchsorted(t_est, t_truth), len(t_est) - 1)
    before = np.maximum(after - 1, 0)
    idx = np.where(np.abs(t_truth - t_est[before]) <= np.abs(t_truth - t_est[after]),
                   before, after)
    gap = np.abs(t_truth - t_est[idx])
    keep = gap <= max_gap
    if not np.any(keep):
        raise ValueError("no estimate/truth pairs within the alignment window")
    return t_truth[keep], est[idx[keep]], truth[keep]


def evaluate(t_est, est, t_truth, truth, algorithm: str = "",
             config_hash: str = "") -> RunResult:
    """Align two angle series and compute their RunResult."""
    t, est_m, truth_m = align_series(t_est, est, t_truth, truth)
    return RunResult(t, est_m, truth_m, np.asarray(rmse(est_m, truth_m)),
                     algorithm=algorithm, config_hash=config_hash)


_ANGLES = ("roll", "pitch", "yaw")


def format_report(result: RunResult) -> str:
    """Plain-text RMSE table plus a machine-readable key=value block."""
    lines = []
    name = result.algorithm or "run"
    lines.append(f"{'angle':<8}{'rmse_deg':>12}")
    for i, angle in enumerate(_ANGLES):
        lines.append(f"{angle:<8}{result.rmse_deg[i]:>12.4f}")
    lines.append("")
    lines.append(f"algorithm={name}")
    if result.config_hash:
        lines.append(f"config_hash={result.config_hash}")
    lines.append(f"samples={len(result.t)}")
    for i, angle in enumerate(_ANGLES):
        lines.append(f"rmse_{angle}_deg={result.rmse_deg[i]:.6f}")
    return "\n".join(lines) + "\n"


def format_comparison(baseline: RunResult, candidate: RunResult) -> str:
    """Side-by-side RMSE table with per-angle improvement percentages."""
    base_name = baseline.algorithm or "baseline"
    cand_name = candidate.algorithm or "candidate"
    lines = [f"{'angle':<8}{base_name:>14}{cand_name:>14}{'improvement':>14}"]
    gains = []
    for i, angle in enumerate(_ANGLES):
        gain = improvement(float(baseline.rmse_deg[i]), float(candidate.rmse_deg[i]))
        gains.append(gain)
        lines.append(f"{angle:<8}{baseline.rmse_deg[i]:>14.4f}"
                     f"{candidate.rmse_deg[i]:>14.4f}{gain:>13.1f}%")
    lines.append("")
    for i, angle in enumerate(_ANGLES):
        lines.append(f"rmse_{angle}_deg_baseline={baseline.rmse_deg[i]:.6f}")
        lines.append(f"rmse_{angle}_deg_candidate={candidate.rmse_deg[i]:.6f}")
        lines.append(f"improvement_{angle}_pct={gains[i]:.2f}")
    return "\n".join(lines) + "\n"
