"""The file-based workflow: scenario -> log -> estimates -> report.

Everything the CLI consumes and produces is a small text file; this
script writes a scenario and two run configs into a scratch directory,
then drives the `sim`, `run`, `eval` and `compare` subcommands through
their Python entry point. Equivalent shell commands are printed as it
goes. The scratch directory is removed when the script ends.
"""

import tempfile
from pathlib import Path

from ahrskit.cli import main

SCENARIO = """\
# one minute of hover with a biased gyro
rate_hz = 250
seed = 3
segment = 60.0, 0, 0, 0, 0, 0, 0
gyro_bias_rps = 0.02, -0.01, 0.015
gyro_sigma_white = 8.7e-5
accel_sigma_white = 0.004
mag_sigma_white = 0.002
"""

DLKF_CFG = """\
algorithm = dlkf
lambda_a = 50
"""

CF_CFG = """\
algorithm = cf
"""


def run(argv):
    print(f"$ ahrskit {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"command failed with exit code {code}"
    print()


with tempfile.TemporaryDirectory(prefix="ahrskit-demo-") as tmp:
    work = Path(tmp)
    (work / "hover.scn").write_text(SCENARIO)
    (work / "dlkf.cfg").write_text(DLKF_CFG)
    (work / "cf.cfg").write_text(CF_CFG)
    print(f"working in {work}\n")

    run(["sim", "--scenario", str(work / "hover.scn"), "--out", str(work / "log.csv")])
    run(["run", "--log", str(work / "log.csv"), "--config", str(work / "dlkf.cfg"),
         "--out", str(work / "dlkf.csv")])
    run(["run", "--log", str(work / "log.csv"), "--config", str(work / "cf.cfg"),
         "--out", str(work / "cf.csv")])
    run(["eval", "--estimates", str(work / "dlkf.csv"), "--truth",
         str(work / "log.csv"), "--name", "dlkf",
         "--config", str(work / "dlkf.cfg")])
    run(["compare", "--baseline", str(work / "cf.csv"), "--candidate",
         str(work / "dlkf.csv"), "--truth", str(work / "log.csv")])
