"""Each script under ``demos/`` runs to completion in a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fullerkit

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = str(Path(fullerkit.__file__).parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
