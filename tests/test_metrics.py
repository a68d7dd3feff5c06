import math
import re

import numpy as np
import pytest

from ahrskit.metrics import (align_series, evaluate, format_comparison,
                             format_report, improvement, rmse)


def brute_force_rmse(est, truth):
    """Element-by-element oracle, recomputed without numpy reductions."""
    n = len(est)
    sums = [0.0, 0.0, 0.0]
    for i in range(n):
        for j in range(3):
            d = est[i][j] - truth[i][j]
            while d > math.pi:
                d -= 2.0 * math.pi
            while d <= -math.pi:
                d += 2.0 * math.pi
            sums[j] += d * d
    return tuple(math.degrees(math.sqrt(s / n)) for s in sums)


class TestRmse:
    def test_identical_series(self):
        rng = np.random.default_rng(50)
        ang = rng.uniform(-1.0, 1.0, (100, 3))
        assert rmse(ang, ang) == (0.0, 0.0, 0.0)

    def test_constant_one_degree_roll_offset(self):
        truth = np.zeros((50, 3))
        est = truth.copy()
        est[:, 0] += math.radians(1.0)
        out = rmse(est, truth)
        assert out[0] == pytest.approx(1.0, rel=1e-12)
        assert out[1] == 0.0 and out[2] == 0.0

    def test_yaw_residual_wraps_across_north(self):
        est = np.array([[0.0, 0.0, math.radians(359.0)]])
        truth = np.array([[0.0, 0.0, math.radians(1.0)]])
        assert rmse(est, truth)[2] == pytest.approx(2.0, rel=1e-12)

    def test_invariant_under_full_turn_offsets(self):
        rng = np.random.default_rng(51)
        est = rng.uniform(0.0, 2.0 * math.pi, (200, 3))
        truth = rng.uniform(0.0, 2.0 * math.pi, (200, 3))
        shifted = est.copy()
        shifted[:, 2] += 2.0 * math.pi * rng.integers(-3, 4, 200)
        np.testing.assert_allclose(rmse(shifted, truth), rmse(est, truth),
                                   atol=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            est = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (37, 3))
            truth = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (37, 3))
            np.testing.assert_allclose(rmse(est, truth),
                                       brute_force_rmse(est, truth), atol=1e-12)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            rmse(np.zeros((5, 3)), np.zeros((6, 3)))
        with pytest.raises(ValueError):
            rmse(np.zeros((5, 2)), np.zeros((5, 2)))


    @pytest.mark.parametrize("side", ["estimate", "truth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, side, value):
        angles = {"estimate": np.zeros((5, 3)), "truth": np.zeros((5, 3))}
        angles[side][2, 1] = value
        with pytest.raises(ValueError, match=f"^{side} angles must be finite, "
                                             f"got {value}$"):
            rmse(angles["estimate"], angles["truth"])


class TestImprovement:
    @pytest.mark.parametrize("baseline, candidate, expected", [
        (1.7967, 1.3156, 36.6),   # published roll comparison
        (1.4317, 1.0091, 41.9),   # published pitch comparison
        (4.0636, 2.850, 42.6),    # published yaw comparison
    ])
    def test_reproduces_published_percentages(self, baseline, candidate, expected):
        assert improvement(baseline, candidate) == pytest.approx(expected, abs=0.1)

    def test_rejects_non_positive_candidate(self):
        with pytest.raises(ValueError):
            improvement(1.0, 0.0)

    @pytest.mark.parametrize("candidate", [-1.0, math.nan, math.inf])
    def test_candidate_must_be_finite_and_positive(self, candidate):
        with pytest.raises(ValueError, match="^candidate RMSE must be finite and > 0"):
            improvement(1.0, candidate)

    @pytest.mark.parametrize("baseline", [-1.0, math.nan, math.inf])
    def test_baseline_must_be_finite_and_non_negative(self, baseline):
        with pytest.raises(ValueError, match="^baseline RMSE must be finite and >= 0"):
            improvement(baseline, 1.0)

    def test_sign_convention(self):
        assert improvement(2.0, 1.0) == pytest.approx(100.0)
        assert improvement(1.0, 2.0) == pytest.approx(-50.0)
        assert improvement(0.0, 2.0) == -100.0  # a zero baseline is allowed


class TestAlign:
    def test_exact_timestamps_pass_through(self):
        t = np.arange(100) * 0.01
        est = np.random.default_rng(53).normal(size=(100, 3))
        truth = est + 0.1
        t_out, e_out, tr_out = align_series(t, est, t, truth)
        np.testing.assert_array_equal(e_out, est)
        np.testing.assert_array_equal(tr_out, truth)
        np.testing.assert_array_equal(t_out, t)

    def test_nearest_neighbor_within_half_period(self):
        t_est = np.arange(10) * 0.1
        est = np.arange(30, dtype=float).reshape(10, 3)
        t_truth = t_est + 0.02  # within 0.05 of each estimate
        _, e_out, _ = align_series(t_est, est, t_truth, est)
        np.testing.assert_array_equal(e_out, est)

    def test_truth_outside_window_dropped(self):
        t_est = np.arange(10) * 0.1
        est = np.zeros((10, 3))
        t_truth = np.array([0.0, 0.5, 5.0])  # last has no estimate nearby
        truth = np.ones((3, 3))
        t_out, _, _ = align_series(t_est, est, t_truth, truth)
        assert len(t_out) == 2

    def test_single_estimate_pairs_with_every_truth_sample(self):
        est = np.array([[0.1, 0.2, 0.3]])
        t_truth = np.array([-1.0, 0.5, 7.0])
        truth = np.zeros((3, 3))
        t_out, e_out, tr_out = align_series(np.array([0.5]), est, t_truth, truth)
        np.testing.assert_array_equal(t_out, t_truth)
        np.testing.assert_array_equal(e_out, np.repeat(est, 3, axis=0))
        np.testing.assert_array_equal(tr_out, truth)

    def test_no_overlap_raises(self):
        with pytest.raises(ValueError):
            align_series(np.arange(5) * 0.1, np.zeros((5, 3)),
                         np.array([100.0]), np.zeros((1, 3)))

    def test_estimate_out_of_order_rejected(self):
        # row 5 moved past its successors carries a 1 rad roll error; a
        # silent nearest-neighbour match would pair around it
        t = np.arange(10) * 0.1
        est = np.zeros((10, 3))
        est[5, 0] = 1.0
        t_est = t.copy()
        t_est[5] = 0.95
        message = "estimate 6 (t=0.6000000000000001): timestamps not strictly " \
                  "increasing (previous t=0.95)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(t_est, est, t, np.zeros((10, 3)))

    def test_non_finite_estimate_time_rejected(self):
        t = np.arange(10) * 0.1
        t_est = t.copy()
        t_est[5] = math.nan
        with pytest.raises(ValueError, match=r"^estimate 5 \(t=nan\): timestamps not "
                                             r"finite \(previous t=0\.4\)$"):
            align_series(t_est, np.zeros((10, 3)), t, np.zeros((10, 3)))

    def test_non_finite_truth_time_rejected(self):
        # a NaN truth time pairs with no estimate, so the 1 rad error on
        # its row would silently drop out of the RMSE
        t = np.arange(10) * 0.1
        t_truth = t.copy()
        t_truth[5] = math.nan
        truth = np.zeros((10, 3))
        truth[5, 0] = 1.0
        with pytest.raises(ValueError, match=r"^truth 5 \(t=nan\): timestamps not "
                                             r"finite \(previous t=0\.4\)$"):
            evaluate(t, np.zeros((10, 3)), t_truth, truth)

    @pytest.mark.parametrize("est_rows, truth_rows, message", [
        (12, 10, "estimate series has 12 rows for 10 times"),
        (8, 10, "estimate series has 8 rows for 10 times"),
        (10, 9, "truth series has 9 rows for 10 times"),
    ])
    def test_rows_must_match_times(self, est_rows, truth_rows, message):
        # 12 estimate rows paired their first 10 and dropped the rest
        # silently; 8 estimate rows or 9 truth rows raised an IndexError
        t = np.arange(10) * 0.1
        with pytest.raises(ValueError, match=f"^{message}$"):
            align_series(t, np.zeros((est_rows, 3)), t, np.zeros((truth_rows, 3)))


class TestReports:
    def test_report_contains_machine_keys(self):
        t = np.arange(10) * 0.1
        est = np.zeros((10, 3))
        truth = np.full((10, 3), math.radians(1.0))
        result = evaluate(t, est, t, truth, algorithm="dlkf", config_hash="abc123")
        text = format_report(result)
        assert "rmse_roll_deg=1.000000" in text
        assert "algorithm=dlkf" in text
        assert "config_hash=abc123" in text

    def test_comparison_reproduces_improvement_keys(self):
        t = np.arange(10) * 0.1
        zeros = np.zeros((10, 3))
        base = evaluate(t, zeros + math.radians(2.0), t, zeros, algorithm="cf")
        cand = evaluate(t, zeros + math.radians(1.0), t, zeros, algorithm="dlkf")
        text = format_comparison(base, cand)
        assert "improvement_roll_pct=100.00" in text
        assert "rmse_pitch_deg_candidate=1.000000" in text
