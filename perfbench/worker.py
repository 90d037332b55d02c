"""One repetition of one workload, in a process of its own.

Usage: python3 perfbench/worker.py --workload W --seed N [--trace]

Imports dqdsim from ``src/`` of the checkout that holds this file (and
refuses any other copy), builds the workload's inputs, prints ``READY`` when
set-up is done, runs the job once and prints its result as one JSON line.
With --trace the job runs traced and the spans go to
.perfbench/spans-<workload>.jsonl.
Anything the program prints goes to standard error.  ``run.py`` starts it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_dqdsim():
    sys.path.insert(0, str(SRC))
    import dqdsim

    where = Path(dqdsim.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"dqdsim imported from {where}, not from {SRC}")
    return dqdsim


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, or Nones."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return config().decode(), threads()
    return None, None


def environment() -> dict:
    import scipy

    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "DQD_SIM_THREADS": os.environ.get("DQD_SIM_THREADS"),
    }


def calibrate() -> float:
    """Seconds one fixed numpy kernel takes now: a batch of 8x8 ``eigh`` and
    a Python loop of matrix-vector products, the mix dqdsim's sweeps run.

    ``run.py`` scales every time a worker measured by the calibrations
    taken just before and just after its job, which removes the drift in
    machine speed that a shared host shows over seconds to minutes.  The
    median of six short slices keeps a momentary stall out of it.
    """
    rng = np.random.default_rng(0)
    H = rng.normal(size=(512, 8, 8)) + 1j * rng.normal(size=(512, 8, 8))
    H = H + H.conj().transpose(0, 2, 1)
    psi0 = rng.normal(size=8) + 0j

    def one_slice():
        t0 = time.perf_counter()
        for _ in range(2):
            evals, evecs = np.linalg.eigh(H)
            phases = np.exp(-0.01j * evals)
            psi = psi0
            for V, ph in zip(evecs, phases):
                psi = V @ (ph * (V.conj().T @ psi))
        return time.perf_counter() - t0

    return statistics.median(one_slice() for _ in range(6))


def timed_calibration() -> list:
    """[perf_counter time at its middle, seconds] of one calibration."""
    t0 = time.perf_counter()
    seconds = calibrate()
    return [(t0 + time.perf_counter()) / 2, seconds]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_dqdsim()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    out = sys.stdout
    out.write("READY\n")
    out.flush()
    calibration_before = timed_calibration()

    if args.trace:
        import spans

        tracer = spans.Tracer(f"{args.workload}-{args.seed}")
        with tracer:
            result = tracer.span("job", workloads.run_job, args.workload, inputs, str(work_dir))
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["sweeps"] = spans.sweep_table(tracer.spans)
        spans.write_spans(tracer.spans, str(work_dir / f"spans-{args.workload}.jsonl"))
    else:
        result = workloads.run_job(args.workload, inputs, str(work_dir))
    result["calibration"] = [calibration_before, timed_calibration()]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["derived"] = workloads.derived_values(args.workload)
    result["env"] = environment()
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
