"""The benchmark's own tests.  Run from the checkout root:

    python3 -m pytest -q perfbench

They run shortened jobs in-process (the first few inputs of each workload),
except where a whole benchmark process is the thing under test.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
import worker

worker.import_dqdsim()

SHORT = {"pair_full": 1, "pair_effective": 200, "chain4": 20, "cli_sweep": 2}
COUNT_SUFFIXES = ("_calls", "_unique_ratio")


def short_inputs(workload, seed=3):
    return workloads.make_inputs(workload, seed)[:SHORT[workload]]


def is_count(name):
    return (name.startswith("linalg.eigh_mats") or name == "evolve.steps"
            or name.endswith(COUNT_SUFFIXES))


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        np.random.seed(0)
        a = workloads.make_inputs(w, 11)
        np.random.seed(1)
        np.random.random(5)
        b = workloads.make_inputs(w, 11)
        assert a == b
        assert workloads.make_inputs(w, 12) != a
    assert workloads.make_inputs("pair_full", 11)[0] != workloads.make_inputs("chain4", 11)[0]


def test_cli_sweep_csv_identical_for_one_and_two_threads(monkeypatch, tmp_path):
    values = workloads.make_inputs("cli_sweep", 5)
    csvs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DQD_SIM_THREADS", threads)
        result = workloads.run_sweep(values, str(tmp_path))
        assert result["failed"] == 0, result["errors"]
        csvs.append(result["csv"])
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 1 + workloads.SWEEP_POINTS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_result_and_counts_repeat(workload, tmp_path):
    inputs = short_inputs(workload)
    plain = workloads.run_job(workload, inputs, str(tmp_path))
    assert plain["failed"] == 0, plain["errors"]
    layers = []
    for _ in range(2):
        tracer = spans.Tracer(workload)
        with tracer:
            traced = tracer.span("job", workloads.run_job, workload, inputs, str(tmp_path))
        assert run.same_outputs(plain, traced)
        assert all(not math.isnan(f) for f in traced["fidelities"])
        layers.append(spans.layer_metrics(tracer.spans))
    counts = [{k: v for k, v in m.items() if is_count(k)} for m in layers]
    assert counts[0] == counts[1]
    assert set(layers[0]) == {name for name, _ in spans.LAYER_METRICS}

    m = layers[0]
    if workload == "pair_effective":
        assert m["evolve.state_sweep_calls"] == m["evolve.propagator_sweep_calls"] == 0
    if workload in ("pair_full", "cli_sweep"):
        n = len(inputs)
        assert m["stage.entangle_unique_ratio"] == m["stage.couple_unique_ratio"] == 1 / n
    if workload == "chain4":
        assert m["evolve.propagator_sweep_calls"] >= 1
        assert m["evolve.max_dim"] == 32


def test_tracer_restores_the_package():
    import dqdsim
    from dqdsim import chain, hilbert, protocol

    before = (protocol.fidelity, chain.fidelity, hilbert.fidelity, np.linalg.eigh,
              dqdsim.ChainChannel.__init__, dqdsim.teleport_end_to_end)
    with spans.Tracer("restore"):
        assert protocol.fidelity is not before[0]
        assert chain.fidelity is protocol.fidelity
    after = (protocol.fidelity, chain.fidelity, hilbert.fidelity, np.linalg.eigh,
             dqdsim.ChainChannel.__init__, dqdsim.teleport_end_to_end)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_prints_the_contract_result():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_effective", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for p in bench["paths"]:
        shutil.copytree(run.ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(bench["command"] + ["--workload", "pair_full", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert Path(tmp_path, "src").exists() is False
