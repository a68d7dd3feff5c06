"""End-to-end workflow through the command-line surface."""

import numpy as np
import pytest

from ahrskit.cli import main
from ahrskit.logio import read_estimates, read_log, write_log
from ahrskit.simulate import SensorLog

SCENARIO = """
rate_hz = 250
seed = 3
segment = 20.0, 0, 0, 0, 0, 0, 0
gyro_bias_rps = 0.01, 0, 0
gyro_sigma_white = 8.7e-5
accel_sigma_white = 0.004
mag_sigma_white = 0.002
"""

DLKF_CONFIG = """
algorithm = dlkf
lambda_a = 50
"""

CF_CONFIG = """
algorithm = cf
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "hover.scn").write_text(SCENARIO)
    (tmp_path / "dlkf.cfg").write_text(DLKF_CONFIG)
    (tmp_path / "cf.cfg").write_text(CF_CONFIG)
    return tmp_path


def test_full_workflow(workspace, capsys):
    log = workspace / "log.csv"
    assert main(["sim", "--scenario", str(workspace / "hover.scn"),
                 "--out", str(log)]) == 0
    records = read_log(log)
    assert len(records) == 5000
    assert records[0].truth is not None

    est_dlkf = workspace / "dlkf.csv"
    est_cf = workspace / "cf.csv"
    assert main(["run", "--log", str(log), "--config",
                 str(workspace / "dlkf.cfg"), "--out", str(est_dlkf)]) == 0
    assert main(["run", "--log", str(log), "--config",
                 str(workspace / "cf.cfg"), "--out", str(est_cf)]) == 0
    assert len(read_estimates(est_dlkf)) > 0

    report = workspace / "report.txt"
    assert main(["eval", "--estimates", str(est_dlkf), "--truth", str(log),
                 "--config", str(workspace / "dlkf.cfg"), "--name", "dlkf",
                 "--report", str(report)]) == 0
    text = report.read_text()
    assert "rmse_roll_deg=" in text
    assert "algorithm=dlkf" in text
    assert "config_hash=" in text

    capsys.readouterr()
    assert main(["compare", "--baseline", str(est_cf), "--candidate",
                 str(est_dlkf), "--truth", str(log)]) == 0
    out = capsys.readouterr().out
    assert "improvement_roll_pct=" in out
    assert "rmse_yaw_deg_candidate=" in out


def test_run_without_config_uses_defaults(workspace):
    log = workspace / "log.csv"
    main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
    out = workspace / "est.csv"
    assert main(["run", "--log", str(log), "--out", str(out)]) == 0


def test_run_prints_the_time_range_of_its_estimates(workspace, capsys):
    log, est = workspace / "log.csv", workspace / "est.csv"
    main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
    capsys.readouterr()
    assert main(["run", "--log", str(log), "--out", str(est)]) == 0
    t = read_estimates(est).t
    assert t[0] > read_log(log).t[0] + 1.0  # the alignment window is not in it
    assert capsys.readouterr().out == \
        f"dlkf: {len(t)} estimates ({t[0]:.2f}..{t[-1]:.2f} s) to {est}\n"


def test_sim_seed_override_changes_noise(workspace):
    a = workspace / "a.csv"
    b = workspace / "b.csv"
    main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(a)])
    main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(b),
          "--seed", "99"])
    ga = np.array([r.gyro for r in read_log(a)])
    gb = np.array([r.gyro for r in read_log(b)])
    assert not np.array_equal(ga, gb)


def test_sim_reruns_are_bit_identical(workspace):
    a = workspace / "a.csv"
    b = workspace / "b.csv"
    main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(a)])
    main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


class TestDiagnostics:
    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--log", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_nonzero(self, workspace, capsys):
        (workspace / "bad.cfg").write_text("not_a_key = 1\n")
        log = workspace / "log.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        code = main(["run", "--log", str(log), "--config",
                     str(workspace / "bad.cfg"), "--out", str(workspace / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not_a_key" in err

    def test_bad_config_value_names_file_and_key(self, workspace, capsys):
        cfg = workspace / "bad.cfg"
        cfg.write_text("cf_kp = 1.o\n")
        log = workspace / "log.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        code = main(["run", "--log", str(log), "--config", str(cfg),
                     "--out", str(workspace / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {cfg}: key 'cf_kp': "
                                           "could not convert string to float: '1.o'\n")

    @pytest.mark.parametrize("line", ["segment = inf, 0, 0, 0, 0, 0, 0",
                                      "rate_hz = inf", "rate_hz = nan",
                                      "gravity = nan"])
    def test_non_finite_scenario_value_exits_with_one_line(self, tmp_path, capsys,
                                                           line):
        (tmp_path / "bad.scn").write_text(f"segment = 1, 0, 0, 0, 0, 0, 0\n{line}\n")
        log = tmp_path / "log.csv"
        code = main(["sim", "--scenario", str(tmp_path / "bad.scn"), "--out", str(log)])
        err = capsys.readouterr().err
        assert code == 1 and not log.exists()
        assert err.startswith("error:") and err.count("\n") == 1 and " finite" in err

    def test_negative_seed_override_names_the_option(self, workspace, capsys):
        log = workspace / "log.csv"
        code = main(["sim", "--scenario", str(workspace / "hover.scn"),
                     "--out", str(log), "--seed", "-1"])
        assert code == 1 and not log.exists()
        assert capsys.readouterr().err == \
            "error: --seed: expected a non-negative integer, got -1\n"

    @pytest.mark.parametrize("side", ["baseline", "candidate"])
    def test_compare_with_a_nan_estimate_exits_nonzero(self, workspace, capsys, side):
        log = workspace / "log.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        est = {}
        for name, algorithm in (("baseline", "cf"), ("candidate", "dlkf")):
            est[name] = workspace / f"{algorithm}.csv"
            main(["run", "--log", str(log), "--config",
                  str(workspace / f"{algorithm}.cfg"), "--out", str(est[name])])
        lines = est[side].read_text().splitlines()
        cells = lines[100].split(",")
        cells[1] = "nan"  # one roll estimate
        lines[100] = ",".join(cells)
        est[side].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["compare", "--baseline", str(est["baseline"]),
                     "--candidate", str(est["candidate"]), "--truth", str(log)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: estimate angles must be finite, got nan\n"

    def test_eval_with_a_nan_estimate_exits_nonzero(self, workspace, capsys):
        log, est = workspace / "log.csv", workspace / "est.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        main(["run", "--log", str(log), "--out", str(est)])
        lines = est.read_text().splitlines()
        cells = lines[50].split(",")
        cells[1] = "nan"  # one roll estimate
        lines[50] = ",".join(cells)
        est.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--estimates", str(est), "--truth", str(log)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: estimate angles must be finite, got nan\n"

    def test_eval_with_estimates_out_of_order_exits_nonzero(self, workspace, capsys):
        log, est = workspace / "log.csv", workspace / "est.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        main(["run", "--log", str(log), "--out", str(est)])
        lines = est.read_text().splitlines()
        lines[50], lines[51] = lines[51], lines[50]  # rows 49 and 50 swap places
        est.write_text("\n".join(lines) + "\n")
        t_late, t_early = (line.split(",")[0] for line in lines[50:52])
        capsys.readouterr()
        code = main(["eval", "--estimates", str(est), "--truth", str(log)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: estimate 50 (t={t_early}): timestamps not "
                                f"strictly increasing (previous t={t_late})\n")

    def test_eval_with_a_nan_truth_time_exits_nonzero(self, workspace, capsys):
        log, est = workspace / "log.csv", workspace / "est.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        main(["run", "--log", str(log), "--out", str(est)])
        table = read_log(log).table.copy()
        t_prev = float(table[699, 0])
        table[700, 0] = np.nan
        write_log(log, SensorLog(table))
        capsys.readouterr()
        code = main(["eval", "--estimates", str(est), "--truth", str(log)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: truth 700 (t=nan): timestamps not finite "
                                f"(previous t={t_prev!r})\n")

    def test_eval_without_truth_columns(self, workspace, capsys):
        log = workspace / "log.csv"
        main(["sim", "--scenario", str(workspace / "hover.scn"), "--out", str(log)])
        est = workspace / "est.csv"
        main(["run", "--log", str(log), "--out", str(est)])
        # strip the truth columns: eval must refuse cleanly
        bare = workspace / "bare.csv"
        write_log(bare, SensorLog(read_log(log).table[:, :10]))
        code = main(["eval", "--estimates", str(est), "--truth", str(bare)])
        assert code == 1
        assert "truth" in capsys.readouterr().err
