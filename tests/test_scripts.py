"""The experiment scripts run end to end at their smallest settings.

Each script runs in its own interpreter against this checkout's ``src``, so
a public name the scripts import that goes missing fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("information_transfer_demo.py", ["--dim", "2"]),
        ("swap_obstruction_experiment.py", ["--steps", "8", "--out-dir", "profiles"]),
        ("classifier_corpus_experiment.py", []),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
