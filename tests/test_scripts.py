"""The README's experiment scripts run end to end.

Each script is copied to a temporary directory and run from there with
``PYTHONPATH=src``, so the SVG it writes next to itself lands in that
directory and nothing is written under ``scripts/``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, name):
    script = tmp_path / name
    shutil.copy(ROOT / "scripts" / name, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def test_separation_demo(tmp_path):
    done = run_script(tmp_path, "run_separation_demo.py")
    assert done.returncode == 0, done.stderr
    assert '"certificate"' in done.stdout
    assert (tmp_path / "out" / "separation_demo.svg").is_file()


def test_outer_approximation(tmp_path):
    done = run_script(tmp_path, "run_outer_approximation.py")
    assert done.returncode == 0, done.stderr
    assert "11 cuts" in done.stderr
    table = [line.split() for line in done.stderr.splitlines() if line.strip()[:1].isdigit()]
    assert table[-1][:2] == ["11", "114/3721"]
    assert (tmp_path / "out" / "outer_approximation.svg").is_file()
