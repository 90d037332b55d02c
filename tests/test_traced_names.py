"""The benchmark's tracer (perfbench/spans.py) wraps dqdsim functions by name, and its
workloads (perfbench/workloads.py) call dqdsim's library by name.

Every name it wraps must resolve, every argument it reads by position must keep that
position, and every library call the workloads make outside a timed job must run, so that
deleting, renaming or reordering one fails the test suite and not only
``python -m pytest perfbench`` or a benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import dqdsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


@pytest.mark.parametrize("module, attr", sorted(load("spans").TRACED))
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"dqdsim.{module}")
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner)


def test_chain_fidelity_is_the_hilbert_one():
    # the tracer's restore test reads dqdsim.chain.fidelity
    assert dqdsim.chain.fidelity is dqdsim.hilbert.fidelity


WORKLOADS = load("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_derived_values_run(workload):
    # the benchmark's worker calls derived_values after the timed job; a raise fails the run
    values = WORKLOADS.derived_values(workload)
    assert all(isinstance(v, float) and v > 0 for v in values.values())


def test_the_chain4_channel_builds():
    spec = WORKLOADS.chain_spec()
    channel = dqdsim.ChainChannel(spec)
    assert spec.resolved_T_ghz() == WORKLOADS.CHAIN_T_GHZ
    assert channel.teleport(dqdsim.InputQubit(0.6, 0.8)).fidelity_to_input >= WORKLOADS.FLOOR_CHAIN


@pytest.mark.parametrize("module, name, params", [
    ("protocol", "make_entangled_pair", ("params",)),  # its stage.entangle key: argument 0
    ("protocol", "couple_unknown", ("unknown", "support", "params")),  # stage.couple: argument 2
    ("evolve", "evolve_scheduled", ("state", "g", "t0", "t1", "cfg")),
    ("evolve", "scheduled_propagator", ("g", "t0", "t1", "cfg")),
])
def test_traced_arguments_keep_their_positions(module, name, params):
    # the tracer reads these arguments by position (spans.INFO); a reordered signature would
    # skew its counts without failing
    fn = getattr(importlib.import_module(f"dqdsim.{module}"), name)
    assert tuple(inspect.signature(fn).parameters)[:len(params)] == params
