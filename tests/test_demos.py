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


def test_public_surface():
    # the package root lists what the demos, the tests and the CLI take from it
    assert sorted(dqdsim.__all__) == [
        "ChainChannel", "ChainSpec", "ConfigError", "ConvergenceError", "DeviceError",
        "DeviceGraph", "DimensionError", "InputQubit", "PropagatorConfig", "ProtocolParams",
        "Schedule", "StateVector", "TunnelTerm", "bell_target", "concurrence",
        "cross_to_aligned_ratio", "effective_rabi", "encode_qubit", "entangled_pair_reference",
        "entanglement_entropy", "evolve_static", "fidelity", "ground_state", "hamiltonian_at",
        "make_entangled_pair", "teleport_end_to_end"]
