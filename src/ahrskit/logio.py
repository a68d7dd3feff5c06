"""CSV I/O for sensor logs and attitude estimates.

Log schema, one header line then one row per sample::

    t,gx,gy,gz,ax,ay,az,mx,my,mz[,troll,tpitch,tyaw]

SI units throughout (s, rad/s, m/s^2, unit-normalized field, rad), UTF-8,
LF line endings, '.' decimal separator. The three truth columns are
present either for every row or for none. Floats are written with
repr(), which round-trips exactly, so a write/read cycle is lossless and
rewriting produces bit-identical files. Readers skip blank and
whitespace-only lines, accept CRLF, and name the file in every error.
"""

from __future__ import annotations

import warnings
from itertools import repeat
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .geometry import EulerAngles, Quaternion
from .pipeline import AttitudeEstimate
from .simulate import SensorRecord

LOG_HEADER = "t,gx,gy,gz,ax,ay,az,mx,my,mz"
LOG_TRUTH_HEADER = LOG_HEADER + ",troll,tpitch,tyaw"
EST_HEADER = "t,roll,pitch,yaw,qw,qx,qy,qz,bgx,bgy,bgz"


def _read_table(path, headers, kind):
    """(header, (N, k) float array) of a CSV whose header is one of `headers`."""
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            header = fh.readline().strip()
            if header not in headers:
                raise ValueError(f"unrecognized {kind} header {header!r}")
            # a header-only file is reported below, as "no samples"
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt((line for line in fh if line.strip()),
                              delimiter=",", comments=None, ndmin=2)
        n_cols = header.count(",") + 1
        if not len(data):
            raise ValueError(f"{kind} file contains no samples")
        if data.shape[1] != n_cols:
            raise ValueError(f"expected {n_cols} columns, got {data.shape[1]}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return header, data


def _write_table(path, header: str, rows) -> None:
    """Write the header and one repr() row per item; nothing if a row raises."""
    lines = [header, *(",".join(map(repr, map(float, row))) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_log(path, records: Sequence[SensorRecord]) -> None:
    """Write sensor records; truth columns appear iff records carry truth."""
    if not records:
        raise ValueError("refusing to write an empty log")
    with_truth = records[0].truth is not None

    def rows():
        for rec in records:
            if (rec.truth is not None) != with_truth:
                raise ValueError(f"record at t={rec.t}: truth must be present for "
                                 "all records or none")
            yield (rec.t, *rec.gyro, *rec.accel, *rec.mag, *(rec.truth or ()))

    _write_table(path, LOG_TRUTH_HEADER if with_truth else LOG_HEADER, rows())


def read_log(path) -> List[SensorRecord]:
    """Read a sensor log; accepts both schema variants."""
    header, data = _read_table(path, (LOG_HEADER, LOG_TRUTH_HEADER), "log")
    truth = map(EulerAngles._make, data[:, 10:].tolist()) \
        if header == LOG_TRUTH_HEADER else repeat(None)
    return [SensorRecord(t, row[1:4], row[4:7], row[7:10], e)
            for t, row, e in zip(data[:, 0].tolist(), data, truth)]


def write_estimates(path, estimates: Sequence[AttitudeEstimate]) -> None:
    if not estimates:
        raise ValueError("refusing to write an empty estimate file")
    _write_table(path, EST_HEADER, ((e.t, *e.euler, *e.q, *e.gyro_bias)
                                    for e in estimates))


def read_estimates(path) -> List[AttitudeEstimate]:
    _, data = _read_table(path, (EST_HEADER,), "estimate")
    return [AttitudeEstimate(v[0], EulerAngles(*v[1:4]), Quaternion(*v[4:8]), row[8:])
            for v, row in zip(data[:, :8].tolist(), data)]
