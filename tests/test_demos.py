"""Each demo runs to completion with its default arguments; the demos
assert their own claims, so exit status 0 means every claim held."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
