"""The benchmark's four workloads: seeded inputs, one timed job each, and
the correctness floor every output is checked against.

Every job calls only dqdsim's public entry points (``teleport_end_to_end``,
``ChainChannel``/``.teleport`` and ``cli.main``) and looks them up at call
time, so the wrappers that ``spans.Tracer`` installs see the calls.

A job returns a dict:
  wall_s      time from the first call into dqdsim to the last result
  starts      ``time.perf_counter()`` at the start of each input
  latencies   per-input wall times in seconds (per ``cli.main`` call for
              cli_sweep)
  fidelities  the teleportation fidelity of each input (each sweep point)
  attempted   inputs attempted; failed: inputs that raised or missed the floor
  errors      a few messages describing the failures
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stdout

import numpy as np

PAIR_FULL_INPUTS = 3
PAIR_EFFECTIVE_INPUTS = 3000
CHAIN_INPUTS = 1000
SWEEP_POINTS = 8

# Correctness floors, one per workload (acceptance criteria 7 and 8 for the
# full-mode pair and the chain; effective mode is exact).
FLOOR_PAIR_FULL = 0.98
FLOOR_PAIR_EFFECTIVE = 1.0 - 1e-10
FLOOR_CHAIN = 0.95
FLOOR_SWEEP = 0.98

# Criterion 8's chain (U = 15w, U' = 100w, T_ghz = 45/w, auto T_couple =
# 1718/w) stepped at dt = 0.2 instead of 0.01: the build takes ~2.3 s instead
# of ~33 s, and the fidelities agree to 3e-5 with the fine-step channel.
CHAIN_N_SUPPORT = 4
CHAIN_U = 15.0
CHAIN_UPRIME = 100.0
CHAIN_DT = 0.2
CHAIN_T_GHZ = 45.0

WORKLOADS = ("pair_full", "pair_effective", "chain4", "cli_sweep")

WHY = {
    "pair_full": "full-mode pair teleport at U=U'=100w: state-path sweeps at d=4 and d=8, "
                 "entangle and couple recomputed for every input",
    "pair_effective": "effective-mode pair teleport: no evolve sweep at all, so every "
                      "propagation change is predicted to leave it unchanged",
    "chain4": "4-DQD support chain: propagator-path sweep at d=32 plus a d=16 ramp, "
              "built once, then cheap per-input teleports",
    "cli_sweep": "8-point CLI teleport sweep on 2 threads: covers cli.main, its "
                 "thread pool and CSV/manifest writing",
}


def _qubit_amplitudes(rng: np.random.Generator, n: int) -> list:
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [(complex(a), complex(b)) for a, b in v]


def make_inputs(workload: str, seed: int):
    """The workload's inputs; they depend on ``workload`` and ``seed`` only."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "pair_full":
        return _qubit_amplitudes(rng, PAIR_FULL_INPUTS)
    if workload == "pair_effective":
        return _qubit_amplitudes(rng, PAIR_EFFECTIVE_INPUTS)
    if workload == "chain4":
        return _qubit_amplitudes(rng, CHAIN_INPUTS)
    if workload == "cli_sweep":
        return [f"{x:.6f}" for x in rng.uniform(0.05, 0.95, SWEEP_POINTS)]
    raise ValueError(f"unknown workload {workload!r}")


def _job_result(t_start, starts, latencies, fidelities, failed, errors):
    return {
        "wall_s": time.perf_counter() - t_start,
        "starts": starts,
        "latencies": latencies,
        "fidelities": fidelities,
        "attempted": len(fidelities),
        "failed": failed,
        "errors": errors[:5],
    }


def _teleport_all(teleport, qubits, floor_of, t_start):
    """Teleport each input with ``teleport``; returns the job result."""
    import dqdsim

    starts, latencies, fidelities, failed, errors = [], [], [], 0, []
    for a, b in qubits:
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            res = teleport(dqdsim.InputQubit(a, b))
        except Exception as exc:  # a raising input is counted, never fatal
            latencies.append(time.perf_counter() - t0)
            fidelities.append(float("nan"))
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        fidelities.append(res.fidelity_to_input)
        if not floor_of(res):
            failed += 1
            errors.append(f"fidelity {res.fidelity_to_input!r} below floor")
    return _job_result(t_start, starts, latencies, fidelities, failed, errors)


def run_pair(qubits, mode: str) -> dict:
    import dqdsim

    params = dqdsim.ProtocolParams(mode=mode)
    if mode == "full":
        def floor_of(res):
            return res.fidelity_to_input >= FLOOR_PAIR_FULL
    else:
        def floor_of(res):
            return all(b.fidelity >= FLOOR_PAIR_EFFECTIVE for b in res.branches)
    t_start = time.perf_counter()
    return _teleport_all(lambda q: dqdsim.teleport_end_to_end(q, params),
                         qubits, floor_of, t_start)


def chain_spec():
    import dqdsim

    params = dqdsim.ProtocolParams(U_max=CHAIN_U, Uprime_max=CHAIN_UPRIME,
                                   integrator=dqdsim.PropagatorConfig(dt=CHAIN_DT))
    return dqdsim.ChainSpec(CHAIN_N_SUPPORT, params, T_ghz=CHAIN_T_GHZ)


def run_chain(qubits) -> dict:
    import dqdsim

    spec = chain_spec()
    t_start = time.perf_counter()
    try:
        channel = dqdsim.ChainChannel(spec)
    except Exception as exc:
        errors = [f"channel build: {type(exc).__name__}: {exc}"]
        nan = float("nan")
        return _job_result(t_start, [], [], [nan] * len(qubits), len(qubits), errors)
    return _teleport_all(lambda q: channel.teleport(q), qubits,
                         lambda res: res.fidelity_to_input >= FLOOR_CHAIN, t_start)


def sweep_argv(values, out_base: str) -> list:
    return ["sweep", "--experiment", "teleport", "--axis", "alpha_abs",
            "--values", ",".join(values), "--output", out_base]


def run_sweep(values, work_dir: str) -> dict:
    """One ``cli.main`` sweep; the CSV is read back and checked row by row.

    The CSV bytes are returned under ``csv`` so callers can compare runs.
    """
    from dqdsim import cli

    out_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
    try:
        out_base = os.path.join(out_dir, "sweep")
        argv = sweep_argv(values, out_base)
        t_start = time.perf_counter()
        with redirect_stdout(sys.stderr):
            code = cli.main(argv)
        wall = time.perf_counter() - t_start
        rows, raw = [], b""
        if code == 0:
            with open(out_base + ".csv", "rb") as fh:
                raw = fh.read()
            rows = list(csv.DictReader(raw.decode().splitlines()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    errors = []
    if code != 0:
        errors.append(f"cli.main exit code {code}")
    fidelities = []
    for row in rows:
        try:
            fidelities.append(float(row["fidelity"]))
        except (KeyError, ValueError):
            fidelities.append(float("nan"))
    missing = len(values) - len(rows)
    if missing:
        errors.append(f"{len(rows)} rows for {len(values)} points")
    fidelities += [float("nan")] * max(0, missing)
    failed = sum(1 for f in fidelities if not f >= FLOOR_SWEEP)
    return {
        "wall_s": wall,
        "starts": [t_start],
        "latencies": [wall],
        "fidelities": fidelities,
        "attempted": len(fidelities),
        "failed": failed,
        "errors": errors[:5],
        "csv": raw.decode(),
    }


def run_job(workload: str, inputs, work_dir: str) -> dict:
    if workload == "pair_full":
        return run_pair(inputs, "full")
    if workload == "pair_effective":
        return run_pair(inputs, "effective")
    if workload == "chain4":
        return run_chain(inputs)
    if workload == "cli_sweep":
        return run_sweep(inputs, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


def derived_values(workload: str) -> dict:
    """Values the program derives but does not report, from its public API.

    Called outside the timed (and traced) region.
    """
    import dqdsim
    from dqdsim import protocol

    if workload == "chain4":
        spec = chain_spec()
        p = spec.params
        gap = protocol.support_crossing_gap(p, spec.n_support)
        return {"T_ghz": spec.resolved_T_ghz(), "support_gap": gap,
                "T_couple": p.resolved_T_couple(gap)}
    if workload == "pair_effective":
        return {}
    params = dqdsim.ProtocolParams()
    gap = protocol.support_crossing_gap(params, 2)
    return {"T_ent": params.resolved_T_ent(), "support_gap": gap,
            "T_couple": params.resolved_T_couple(gap)}
