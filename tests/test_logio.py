import gc
import hashlib

import numpy as np
import pytest

from ahrskit.benchmark import static_records
from ahrskit.geometry import EulerAngles, Quaternion
from ahrskit.logio import (EST_HEADER, LOG_HEADER, LOG_TRUTH_HEADER, read_estimates,
                           read_log, write_estimates, write_log)
from ahrskit.pipeline import (AttitudeEstimate, Estimates, PipelineConfig,
                              run_pipeline)
from ahrskit.simulate import _CHUNK, SensorLog

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
    stripped = SensorLog(records.table[:, :10])
    path = tmp_path / "log.csv"
    write_log(path, stripped)
    assert path.read_text().splitlines()[0] == "t,gx,gy,gz,ax,ay,az,mx,my,mz"
    back = read_log(path)
    assert all(r.truth is None for r in back)


@pytest.mark.parametrize("truth", [True, False], ids=["truth", "bare"])
def test_log_table_writes_as_its_records(tmp_path, truth):
    # the table reads back column for column, across several conversion chunks
    log = static_records(duration=10.0, noisy=True, seed=5)
    if not truth:
        log = SensorLog(log.table[:, :10])
    write_log(tmp_path / "table.csv", log)
    back = read_log(tmp_path / "table.csv")
    assert isinstance(back, SensorLog)
    for a, b in ((back.t, log.t), (back.gyro, log.gyro), (back.accel, log.accel),
                 (back.mag, log.mag)):
        np.testing.assert_array_equal(a, b)
    assert (back.truth is None) == (not truth)


def test_read_tables_cannot_be_made_writable(tmp_path, records):
    write_log(tmp_path / "log.csv", records)
    write_estimates(tmp_path / "est.csv", run_pipeline(records, PipelineConfig(
        align_duration_s=0.5)))
    log, est = read_log(tmp_path / "log.csv"), read_estimates(tmp_path / "est.csv")
    for column in (log.table, log.t, log.gyro, log.accel, log.mag, log.truth, est.table,
                   est.q):
        with pytest.raises(ValueError):
            column.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0


@pytest.mark.parametrize("source", ["simulate", "read_log"])
def test_log_keeps_no_object_per_sample(tmp_path, source):
    """Holding a log holds a few GC-tracked objects whatever its length,
    not a record and its truth angles per sample."""
    def make(duration):
        if source == "simulate":
            return static_records(duration=duration, seed=1)
        return read_log(tmp_path / f"{duration}.csv")

    for duration in (3.0, 6.0):
        write_log(tmp_path / f"{duration}.csv", static_records(duration=duration, seed=1))
    make(3.0)  # warm-up
    growth = {}
    for duration in (3.0, 6.0):
        gc.collect()
        before = len(gc.get_objects())
        log = make(duration)
        gc.collect()
        growth[len(log)] = len(gc.get_objects()) - before
        del log
    assert min(growth) > 200
    assert max(growth.values()) <= 10, growth


def test_written_bytes_are_pinned(tmp_path, records):
    # sha256 of the files the repr writer produced before the reader and
    # writer were rebuilt on np.loadtxt; the estimates carry the log's own
    # numbers so that the pin does not move with the filters
    estimates = Estimates(np.column_stack([records.t, records.gyro, records.t,
                                           records.accel, records.mag]))
    write_log(tmp_path / "log.csv", records)
    write_estimates(tmp_path / "est.csv", estimates)
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("log.csv", "est.csv")}
    assert digest == {
        "log.csv": "b6b06cae05c15f62bea2dc2ab945441b0056e53fb2efcb89c29f5b97f0aed682",
        "est.csv": "3c58943c5eca76d066ac78b5a253dc94da2b8f12d2a0c151a4c4f78d96557bfb",
    }


@pytest.mark.parametrize("n", [1, _CHUNK, _CHUNK + 1, 30_000])
def test_chunked_writer_matches_one_join_of_all_rows(tmp_path, n):
    # values over the whole float range, with a negative zero and a
    # subnormal, against the former writer: the file as one string
    rng = np.random.default_rng(n)
    table = rng.normal(size=(n, 13)) * 10.0 ** rng.integers(-300, 300, (n, 13))
    table[0, :2] = -0.0, 5e-324
    for path, header, write, written in (
            (tmp_path / "log.csv", LOG_TRUTH_HEADER, write_log, SensorLog(table)),
            (tmp_path / "est.csv", EST_HEADER, write_estimates,
             Estimates(table[:, :11].copy()))):
        write(path, written)
        lines = [header, *(",".join(map(repr, row)) for row in written.table.tolist())]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


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
    # records become a log through `SensorLog.of`, which refuses partial
    # truth before any file is opened
    mixed = list(records)
    mixed[3] = mixed[3]._replace(truth=None)
    with pytest.raises(ValueError, match="^truth must be present for all records or none$"):
        write_log(tmp_path / "log.csv", SensorLog.of(mixed))
    assert not (tmp_path / "log.csv").exists()


def test_estimates_round_trip(tmp_path, records):
    estimates = run_pipeline(records, PipelineConfig(align_duration_s=0.5))
    path = tmp_path / "est.csv"
    write_estimates(path, estimates)
    assert read_estimates(path) == estimates


@pytest.mark.parametrize("algorithm", ["dlkf", "cf", "gyro-only"])
def test_estimates_table_writes_as_its_rows(tmp_path, algorithm):
    # the table reads back bit for bit and rewrites as the same bytes
    estimates = run_pipeline(static_records(duration=8.0, noisy=True, seed=5),
                             PipelineConfig(algorithm=algorithm))
    write_estimates(tmp_path / "table.csv", estimates)
    back = read_estimates(tmp_path / "table.csv")
    assert isinstance(back, Estimates)
    np.testing.assert_array_equal(back.table, estimates.table)
    write_estimates(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def test_estimates_single_row(tmp_path):
    est = AttitudeEstimate(0.5, EulerAngles(0.1, -0.2, 3.0),
                           Quaternion.identity(), (1e-3, 0.0, -2e-3))
    path = tmp_path / "est.csv"
    write_estimates(path, Estimates(np.array([[est.t, *est.euler, *est.q, *est.gyro_bias]])))
    assert list(read_estimates(path)) == [est]


def test_file_routed_run_matches_in_memory(tmp_path, records):
    # the repr round-trip makes the CSV layer fully transparent
    cfg = PipelineConfig(align_duration_s=0.5)
    direct = run_pipeline(records, cfg)
    path = tmp_path / "log.csv"
    write_log(path, records)
    assert run_pipeline(read_log(path), cfg) == direct


class TestMalformedFiles:
    """A malformed log is rejected with a ValueError that names the file."""

    read = staticmethod(read_log)
    write = staticmethod(write_log)
    header = LOG_HEADER
    empty = SensorLog(np.empty((0, 10)))

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
            self.write(tmp_path / "f.csv", self.empty)


class TestMalformedEstimateFiles(TestMalformedFiles):
    """The same cases for the estimate reader and writer."""

    read = staticmethod(read_estimates)
    write = staticmethod(write_estimates)
    header = EST_HEADER
    empty = Estimates(np.empty((0, 11)))
