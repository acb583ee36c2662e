"""The documented examples run: the package docstring's doctest, and every
script in demos/ to completion against src/ with nothing on stderr."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagsob

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    # Agg keeps a demo's plt.show() from blocking where matplotlib is installed;
    # the one warning it then prints is expected.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    proc = subprocess.run(
        [sys.executable, "-W", "ignore:FigureCanvasAgg is non-interactive:UserWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_docstring_example_holds():
    assert doctest.testmod(lagsob).failed == 0
