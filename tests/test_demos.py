import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)


def run_demo(name, tmp_path):
    return run_python([str(ROOT / "demos" / name)], tmp_path)


@pytest.mark.parametrize("name, key_line", [
    ("01_static_bias_estimation.py", "roll/pitch RMS after convergence: "),
    ("02_dynamic_benchmark.py", "improvement_yaw_pct="),
    ("03_adaptive_accel_noise.py", "de-weighting cuts the damage"),
])
def test_demo_runs(tmp_path, name, key_line):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert key_line in proc.stdout


def test_cli_workflow_demo_cleans_up(tmp_path):
    proc = run_demo("04_cli_workflow.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "improvement_yaw_pct=" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_readme_quick_start_runs(tmp_path):
    # the first python block of the README, as a reader would paste it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL).group(1)
    assert "run_pipeline" in code
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
