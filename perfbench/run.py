"""dqdsim benchmark: four protocol workloads, end-to-end and per-layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pair_full --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.WHY``): pair_full, pair_effective, chain4,
cli_sweep.  Each repetition of a workload's job runs in a fresh worker
process (``worker.py``), so nothing the program caches survives from one
repetition to the next and every process's peak memory is its own.  The
thread budget is fixed here: OpenBLAS runs one thread and the CLI sweep at
most two workers (never more than the machine's cores).

Times are scaled to a reference machine speed: each worker times a fixed
numpy kernel just before and just after its job (``worker.calibrate``), and
every time it measured is multiplied by REFERENCE_CALIBRATION_S over the
calibration interpolated to when it was measured (``speed_scale``).  The
raw times are in the report line.

--trace 0 repeats the job until --seconds have passed (at least once) and
reports, with tracing off:
  wall_s        median over repetitions of the job's time to solution
  setup_s       median over repetitions of worker start to first timed call
                (interpreter, ``import dqdsim``, input generation)
  input_p50_ms  midmean over repetitions of the median per-input time (per
                ``cli.main`` call on cli_sweep)
  peak_rss_mb   median over repetitions of the worker's ``ru_maxrss``
  fidelity_mean, fidelity_min   over the workload's inputs (deterministic)
Inputs that raise or miss the workload's floor are counted in ``failed``;
the report line gives failed_frac.  It also gives input_p95_ms (the same
median for the 95th percentile, nearest rank), which is printed but not in
the result: on a shared 2-core host its run-to-run spread is too wide to
bound.

--trace 1 runs the job once untraced and once traced (fixed work, so its
counts repeat exactly) and reports the per-layer metrics of ``spans.py``
(times scaled like the end-to-end ones) plus trace.overhead_s, the traced
minus the untraced wall time.  The spans are written to
.perfbench/spans-<workload>.jsonl.

Every repetition must reproduce the first one's fidelities bit for bit, and
the traced run the untraced one's; a mismatch makes the result incorrect.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 170.0

# What ``worker.calibrate()`` takes on the reference machine (2-core x86-64
# VM, OpenBLAS 0.3.31 on one thread).  Reported times are scaled to it.
REFERENCE_CALIBRATION_S = 0.015

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "input_p50_ms": "ms", "peak_rss_mb": "MiB",
    "fidelity_mean": "1", "fidelity_min": "1",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               DQD_SIM_THREADS=str(min(2, os.cpu_count() or 1)))
    return env


def run_worker(workload: str, seed: int, trace: bool = False) -> dict:
    """Start one worker, time its set-up, and return its parsed result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    t_spawn = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t_spawn
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError(f"{workload} worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    lines = rest.strip().splitlines()
    if first.strip() != "READY" or proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker failed (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def same_outputs(a: dict, b: dict) -> bool:
    """Bit-identical fidelities (NaN marks a failed input in both)."""
    fa, fb = a["fidelities"], b["fidelities"]
    return len(fa) == len(fb) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(fa, fb))


def midmean(values) -> float:
    """Mean of the middle half of the values (the interquartile mean).

    Per-input times differ between worker processes by up to 30% with the
    process's heap layout (chain4 shows two modes), so the median over a
    handful of processes jumps between modes; the midmean moves smoothly.
    """
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def speed_scale(rep: dict, at=None) -> float:
    """Factor that takes a time a repetition measured to reference speed.

    ``at`` (a ``perf_counter`` time in the worker) interpolates linearly
    between the calibrations before and after the job; without it the
    factor uses their mean, which suits the job's whole wall time.
    """
    (ta, ca), (tb, cb) = rep["calibration"]
    if at is None:
        c = (ca + cb) / 2
    else:
        c = ca + (cb - ca) * min(max((at - ta) / (tb - ta), 0.0), 1.0)
    return REFERENCE_CALIBRATION_S / c


def end_to_end(reps: list) -> tuple:
    """(end-to-end metrics, report extras) of the repetitions of one run."""

    def across_reps(stat):
        stats = [stat([t * speed_scale(r, at=s + t / 2)
                       for s, t in zip(r["starts"], r["latencies"])])
                 for r in reps if r["latencies"]]
        return midmean(stats) if stats else 0.0  # no input ran

    fids = [f for f in reps[0]["fidelities"] if not math.isnan(f)]
    values = {
        "wall_s": statistics.median(r["wall_s"] * speed_scale(r) for r in reps),
        "setup_s": statistics.median(r["setup_s"] * speed_scale(r, at=r["calibration"][0][0])
                                     for r in reps),
        "input_p50_ms": 1e3 * across_reps(statistics.median),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "fidelity_mean": statistics.fmean(fids) if fids else 0.0,
        "fidelity_min": min(fids) if fids else 0.0,
    }
    p95 = 1e3 * across_reps(lambda ts: nearest_rank(ts, 0.95))
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
            {"input_p95_ms": p95})


def layer_table(layers: dict, scale: float, overhead_s: float) -> dict:
    table = {name: {"value": layers[name] * scale if unit == "s" else layers[name], "unit": unit}
             for name, unit in spans.LAYER_METRICS}
    table["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return table


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload; returns (metrics, reps, report extras)."""
    if trace:
        plain = run_worker(workload, seed)
        traced = run_worker(workload, seed, trace=True)
        reps = [plain, traced]
        overhead = traced["wall_s"] * speed_scale(traced) - plain["wall_s"] * speed_scale(plain)
        metrics = layer_table(traced["layers"], speed_scale(traced), overhead)
        return metrics, reps, {"sweeps": traced["sweeps"]}
    deadline = time.perf_counter() + seconds
    reps = [run_worker(workload, seed)]
    while time.perf_counter() < deadline:
        reps.append(run_worker(workload, seed))
    metrics, extras = end_to_end(reps)
    return metrics, reps, extras


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dqdsim" / "__init__.py").is_file():
        print(f"perfbench: no dqdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    try:
        metrics, reps, extras = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    reproducible = all(same_outputs(reps[0], r) for r in reps[1:])
    correct = failed == 0 and reproducible
    errors = [e for r in reps for e in r["errors"]]
    if not reproducible:
        errors.append("a repetition did not reproduce the first one's fidelities")

    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "input_samples": sum(len(r["latencies"]) for r in reps),
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": errors[:10],
        "derived": reps[0]["derived"],
        "env": dict(reps[0]["env"], git_commit=git_commit()),
        "per_repetition": [{k: r[k] for k in ("wall_s", "setup_s", "calibration", "peak_rss_mb")}
                           for r in reps],
        **extras,
    }
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:32s} {m['value']:.6g} {m['unit']}")
    if "input_p95_ms" in extras:
        print(f"{args.workload:15s} {'input_p95_ms (not gated)':32s} "
              f"{extras['input_p95_ms']:.6g} ms")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
