"""CSV I/O for sensor logs and attitude estimates.

Log schema, one header line then one row per sample::

    t,gx,gy,gz,ax,ay,az,mx,my,mz[,troll,tpitch,tyaw]

SI units throughout (s, rad/s, m/s^2, unit-normalized field, rad), UTF-8,
LF line endings, '.' decimal separator. The three truth columns are
present either for every row or for none. Floats are written with
repr(), which round-trips exactly, so a write/read cycle is lossless and
rewriting produces bit-identical files. Readers skip blank and
whitespace-only lines, accept CRLF, and name the file in every error.
A log is read into, and written from, the one table of a `SensorLog` in
the column order of its header, and estimates the (N, 11) table of an
`Estimates`, without an object per row. A writer writes `_CHUNK` rows at
a time: the text of the whole file is never held at once.
"""

from __future__ import annotations

import warnings

import numpy as np

from .pipeline import Estimates
from .simulate import _CHUNK, SensorLog

LOG_HEADER = "t,gx,gy,gz,ax,ay,az,mx,my,mz"
LOG_TRUTH_HEADER = LOG_HEADER + ",troll,tpitch,tyaw"
EST_HEADER = "t,roll,pitch,yaw,qw,qx,qy,qz,bgx,bgy,bgz"


def _read_table(path, headers, kind):
    """The (N, k) float array of a CSV whose header is one of `headers`."""
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
    return data


def _write_table(path, header: str, table: np.ndarray) -> None:
    """Write the header and one repr() line per row of a float table,
    `_CHUNK` rows at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CHUNK):
            rows = zip(*table[start:start + _CHUNK].T.tolist())
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def write_log(path, log: SensorLog) -> None:
    """Write the table of a sensor log; truth columns appear iff the log
    carries truth."""
    if not log:
        raise ValueError("refusing to write an empty log")
    _write_table(path, LOG_HEADER if log.truth is None else LOG_TRUTH_HEADER, log.table)


def read_log(path) -> SensorLog:
    """Read a sensor log, as the one table of a `SensorLog`; accepts both
    schema variants."""
    return SensorLog(_read_table(path, (LOG_HEADER, LOG_TRUTH_HEADER), "log"))


def _truth_angles(path):
    """(t, (N, 3) roll/pitch/yaw truth) columns of a log with truth columns."""
    log = read_log(path)
    if log.truth is None:
        raise ValueError(f"{path}: log has no truth columns")
    return log.t, log.truth


def write_estimates(path, estimates: Estimates) -> None:
    """Write the table of a run's estimates."""
    if not estimates:
        raise ValueError("refusing to write an empty estimate file")
    _write_table(path, EST_HEADER, estimates.table)


def read_estimates(path) -> Estimates:
    """The estimates of a CSV, as one table parsed in a single pass."""
    return Estimates(_read_table(path, (EST_HEADER,), "estimate"))
