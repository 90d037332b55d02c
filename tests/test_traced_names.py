"""The benchmark's tracer (perfbench/spans.py) wraps dqdsim functions by name.

Every name it wraps must resolve, so that deleting or renaming one fails the
test suite and not only ``python -m pytest perfbench``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import dqdsim

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


@pytest.mark.parametrize("module, attr", sorted(load_spans().TRACED))
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"dqdsim.{module}")
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner)


def test_chain_fidelity_is_the_hilbert_one():
    # the tracer's restore test reads dqdsim.chain.fidelity
    assert dqdsim.chain.fidelity is dqdsim.hilbert.fidelity
