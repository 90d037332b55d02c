"""Every demo script runs to completion (``PYTHONPATH=src``, one BLAS thread)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqdsim

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(dqdsim.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
