"""The example scripts run to the end at their defaults.

Each script runs in a child interpreter with ``PYTHONPATH=src``; it must
exit 0, print no traceback and print its key result line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, key_line", [
    ("linearization_hunt.py", "N=4: 3-term relation at stride 12"),
    ("entropy_contrast.py", "entropy estimate"),
    ("reduction_tour.py", "recurrence"),
])
def test_script_runs(script, key_line):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert key_line in proc.stdout
