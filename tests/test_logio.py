import hashlib

import numpy as np
import pytest

from ahrskit.benchmark import static_records
from ahrskit.geometry import EulerAngles, Quaternion
from ahrskit.logio import (EST_HEADER, LOG_HEADER, read_estimates, read_log,
                           write_estimates, write_log)
from ahrskit.pipeline import AttitudeEstimate, PipelineConfig, run_pipeline

# a reader that warns (e.g. NumPy on a file without data rows) is a failure
pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture
def records():
    return static_records(duration=1.0, gyro_bias=(0.01, 0.0, 0.0), noisy=True,
                          seed=77)


def assert_same_records(records, back):
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.t == b.t
        np.testing.assert_array_equal(a.gyro, b.gyro)
        np.testing.assert_array_equal(a.accel, b.accel)
        np.testing.assert_array_equal(a.mag, b.mag)
        assert a.truth == b.truth


def test_log_round_trip_is_lossless(tmp_path, records):
    path = tmp_path / "log.csv"
    write_log(path, records)
    assert_same_records(records, read_log(path))


def test_log_rewrite_is_bit_identical(tmp_path, records):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_log(first, records)
    write_log(second, read_log(first))
    assert first.read_bytes() == second.read_bytes()


def test_log_without_truth(tmp_path, records):
    stripped = [r._replace(truth=None) for r in records]
    path = tmp_path / "log.csv"
    write_log(path, stripped)
    assert path.read_text().splitlines()[0] == "t,gx,gy,gz,ax,ay,az,mx,my,mz"
    back = read_log(path)
    assert all(r.truth is None for r in back)


def test_written_bytes_are_pinned(tmp_path, records):
    # sha256 of the files the repr writer produced before the reader and
    # writer were rebuilt on np.loadtxt; the estimates carry the log's own
    # numbers so that the pin does not move with the filters
    estimates = [AttitudeEstimate(r.t, EulerAngles(*r.gyro), Quaternion(r.t, *r.accel),
                                  r.mag) for r in records]
    write_log(tmp_path / "log.csv", records)
    write_estimates(tmp_path / "est.csv", estimates)
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("log.csv", "est.csv")}
    assert digest == {
        "log.csv": "b6b06cae05c15f62bea2dc2ab945441b0056e53fb2efcb89c29f5b97f0aed682",
        "est.csv": "3c58943c5eca76d066ac78b5a253dc94da2b8f12d2a0c151a4c4f78d96557bfb",
    }


def test_blank_lines_and_crlf_read_as_clean(tmp_path, records):
    clean = tmp_path / "clean.csv"
    write_log(clean, records)
    header, *rows = clean.read_text().splitlines()
    messy = [header, "", *rows[:3], "   ", "\t", *rows[3:], "", " "]
    path = tmp_path / "messy.csv"
    path.write_bytes("\r\n".join(messy).encode("utf-8"))
    assert_same_records(read_log(clean), read_log(path))


def test_log_uses_lf_and_utf8(tmp_path, records):
    path = tmp_path / "log.csv"
    write_log(path, records)
    raw = path.read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")


def test_mixed_truth_rejected(tmp_path, records):
    mixed = list(records)
    mixed[3] = mixed[3]._replace(truth=None)
    with pytest.raises(ValueError, match="truth"):
        write_log(tmp_path / "log.csv", mixed)


def test_estimates_round_trip(tmp_path, records):
    estimates = run_pipeline(records, PipelineConfig(align_duration_s=0.5))
    path = tmp_path / "est.csv"
    write_estimates(path, estimates)
    back = read_estimates(path)
    assert len(back) == len(estimates)
    for a, b in zip(estimates, back):
        assert a.t == b.t
        assert a.euler == b.euler
        assert a.q == b.q
        np.testing.assert_array_equal(a.gyro_bias, b.gyro_bias)


def test_estimates_single_row(tmp_path):
    est = AttitudeEstimate(0.5, EulerAngles(0.1, -0.2, 3.0),
                           Quaternion.identity(), np.array([1e-3, 0.0, -2e-3]))
    path = tmp_path / "est.csv"
    write_estimates(path, [est])
    back = read_estimates(path)
    assert back[0].euler == est.euler


def test_file_routed_run_matches_in_memory(tmp_path, records):
    # the repr round-trip makes the CSV layer fully transparent
    cfg = PipelineConfig(align_duration_s=0.5)
    direct = run_pipeline(records, cfg)
    path = tmp_path / "log.csv"
    write_log(path, records)
    rerun = run_pipeline(read_log(path), cfg)
    assert len(direct) == len(rerun)
    for a, b in zip(direct, rerun):
        assert a.t == b.t and a.euler == b.euler and a.q == b.q
        np.testing.assert_array_equal(a.gyro_bias, b.gyro_bias)


class TestMalformedFiles:
    """A malformed log is rejected with a ValueError that names the file."""

    read = staticmethod(read_log)
    write = staticmethod(write_log)
    header = LOG_HEADER

    def rejects(self, path, text, match=None):
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            self.read(path)
        assert str(path) in str(info.value)

    def row(self, n_cols):
        return ",".join(["0.0"] * n_cols)

    @property
    def n_cols(self):
        return self.header.count(",") + 1

    def test_wrong_header(self, tmp_path):
        self.rejects(tmp_path / "f.csv", "time,gx\n1,2\n", "header")

    def test_wrong_column_count(self, tmp_path):
        self.rejects(tmp_path / "f.csv", f"{self.header}\n1.0,0.0\n", "columns")

    def test_too_many_columns(self, tmp_path):
        self.rejects(tmp_path / "f.csv", f"{self.header}\n{self.row(self.n_cols + 1)}\n",
                     "columns")

    def test_ragged_middle_row(self, tmp_path):
        good, short = self.row(self.n_cols), self.row(self.n_cols - 1)
        self.rejects(tmp_path / "f.csv", f"{self.header}\n{good}\n{short}\n{good}\n",
                     "columns")

    def test_non_numeric_cell(self, tmp_path):
        row = ",".join(["zero"] + ["0.0"] * (self.n_cols - 1))
        self.rejects(tmp_path / "f.csv", f"{self.header}\n{row}\n")

    def test_empty_file(self, tmp_path):
        self.rejects(tmp_path / "f.csv", "")

    def test_header_only(self, tmp_path):
        self.rejects(tmp_path / "f.csv", f"{self.header}\n", "no samples")

    def test_refuses_empty_write(self, tmp_path):
        with pytest.raises(ValueError):
            self.write(tmp_path / "f.csv", [])


class TestMalformedEstimateFiles(TestMalformedFiles):
    """The same cases for the estimate reader and writer."""

    read = staticmethod(read_estimates)
    write = staticmethod(write_estimates)
    header = EST_HEADER
