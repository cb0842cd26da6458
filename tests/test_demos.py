"""The Python demos print exactly the text recorded in tests/demos_expected/.

Every number a demo prints comes from an exact, seeded computation, so any
change in a solver's value, witness or tie-break shows up here as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "demos_expected"


@pytest.mark.parametrize("demo", ["pipeline_walkthrough", "agreement_decoding"])
def test_demo_stdout_matches_recorded_text(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GAPFORGE_BUDGET", None)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo}.txt").read_text()
