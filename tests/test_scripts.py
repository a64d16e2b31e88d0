"""The example scripts run to the end at their defaults, and the README's
library tour prints what its comments say.

Each script runs in a child interpreter with ``PYTHONPATH=src``; it must
exit 0, print no traceback and print its key result line.
"""

import os
import re
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


def test_readme_library_tour_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    printed = capsys.readouterr().out.splitlines()
    want = ["8209", "U[n+2]*U[n] = (U1 + 1) / (U1^2)", "135/16 302/25", "polynomial"]
    assert printed == want
    # each print's comment starts with the value it prints
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert [c.startswith(w) for c, w in zip(comments, want)] == [True] * 4
    assert "# generator (1, -2, 1, 0), rank 2" in block
    assert (names["bas"].generator, names["bas"].rank) == ((1, -2, 1, 0), 2)
