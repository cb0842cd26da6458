"""The demos print exactly the text recorded in tests/demos_expected/.

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


def test_cli_tour_stdout_matches_recorded_text(tmp_path):
    # a `gapforge` launcher for this checkout, as an installer would write it
    script = tmp_path / "bin" / "gapforge"
    script.parent.mkdir()
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      "from gapforge.cli import main\n"
                      "sys.exit(main())\n")
    script.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{script.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    env.pop("GAPFORGE_BUDGET", None)
    proc = subprocess.run(["bash", str(ROOT / "demos" / "cli_tour.sh")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / "cli_tour.txt").read_text()
