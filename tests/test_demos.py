"""Every demo script runs to completion, quietly on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opquery

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opquery.__file__)))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, env=env, timeout=120)
    assert proc.stderr.decode() == ""
    assert proc.returncode == 0
