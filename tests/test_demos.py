import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_workflow_demo_cleans_up(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_cli_workflow.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "improvement_yaw_pct=" in proc.stdout
    assert list(tmp_path.iterdir()) == []
