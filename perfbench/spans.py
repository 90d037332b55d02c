"""Per-layer tracing of dqdsim from outside the package.

``Tracer.install()`` replaces public functions of dqdsim's modules, and the
``numpy.linalg`` eigensolvers they call, with wrappers that record a span
(name, start, end, parent span, run id) per call plus a few call arguments
(matrix batch size and dimension, sweep window and step).  A wrapper is
installed on every module attribute that refers to the function, because
``protocol``, ``chain`` and ``cli`` import ``hilbert`` functions by name.
Spans stay in memory until ``layer_metrics`` folds them into the per-layer
table at the end of the run; ``uninstall`` restores the originals.

Layers: cli -> chain -> protocol -> evolve -> device, plus hilbert, and
linalg for numpy.linalg.eigh/eigvalsh.  ``dqdsim.metrics`` is on no
workload's path and is not wrapped.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute) -> span name.  Class methods use "Class.method".
TRACED = {
    ("cli", "run_sweep"): "cli.sweep",
    ("cli", "run_experiment"): "cli.point",
    ("cli", "write_outputs"): "cli.write",
    ("chain", "ChainChannel.__init__"): "chain.build",
    ("chain", "ChainChannel.teleport"): "chain.teleport",
    ("chain", "make_ghz_chain"): "chain.ghz",
    ("protocol", "teleport_end_to_end"): "protocol.teleport",
    ("protocol", "encode_qubit"): "stage.encode",
    ("protocol", "make_entangled_pair"): "stage.entangle",
    ("protocol", "couple_unknown"): "stage.couple",
    ("protocol", "bell_evolution"): "stage.bell",
    ("protocol", "alice_measure_and_correct"): "stage.measure",
    ("evolve", "evolve_scheduled"): "evolve.state_sweep",
    ("evolve", "scheduled_propagator"): "evolve.propagator_sweep",
    ("evolve", "adiabatic_ramp"): "evolve.ramp",
    ("evolve", "evolve_static"): "evolve.static",
    ("device", "hamiltonian_terms"): "device.terms",
    ("device", "hamiltonian_at"): "device.hamiltonian_at",
    ("hilbert", "measure_qubit"): "hilbert.measure",
    ("hilbert", "partial_trace"): "hilbert.partial_trace",
    ("hilbert", "tensor_product"): "hilbert.tensor",
    ("hilbert", "fidelity"): "hilbert.fidelity",
}
LINALG = {"eigh": "linalg.eigh", "eigvalsh": "linalg.eigvalsh"}
SWEEPS = ("evolve.state_sweep", "evolve.propagator_sweep")
EIGH_DIMS = (2, 4, 8, 16, 32)

# The per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    [("cli.sweep_s", "s"), ("cli.point_s", "s"), ("cli.write_s", "s"),
     ("cli.workers", "count"), ("cli.parallel_eff", "ratio"),
     ("chain.build_s", "s"), ("chain.ghz_s", "s"), ("chain.teleport_s", "s"),
     ("chain.teleport_calls", "count")]
    + [(f"stage.{s}_{k}", u) for s in ("encode", "entangle", "couple", "bell", "measure")
       for k, u in (("s", "s"), ("calls", "count"))]
    + [("protocol.teleport_self_s", "s"),
       ("stage.entangle_unique_ratio", "ratio"), ("stage.couple_unique_ratio", "ratio"),
       ("evolve.state_sweep_s", "s"), ("evolve.state_sweep_calls", "count"),
       ("evolve.propagator_sweep_s", "s"), ("evolve.propagator_sweep_calls", "count"),
       ("evolve.steps", "count"), ("evolve.max_dim", "count"),
       ("evolve.eig_s", "s"), ("evolve.apply_s", "s"),
       ("evolve.ramp_self_s", "s"), ("evolve.static_s", "s"),
       ("device.terms_s", "s"), ("device.terms_calls", "count"),
       ("device.hamiltonian_at_s", "s"), ("device.hamiltonian_at_calls", "count"),
       ("linalg.eigh_calls", "count"), ("linalg.eigh_mats", "count")]
    + [(f"linalg.eigh_mats.d{d}", "count") for d in EIGH_DIMS]
    + [("linalg.eigvalsh_mats", "count"), ("linalg.batch_bytes_max", "B")]
    + [(f"hilbert.{h}_{k}", u) for h in ("measure", "partial_trace", "tensor", "fidelity")
       for k, u in (("s", "s"), ("calls", "count"))]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sweep_info(args, kwargs, propagator: bool) -> dict:
    """Dimension, step and step count of one sweep, from its arguments."""
    import dqdsim

    names = ("g", "t0", "t1", "cfg") if propagator else ("state", "g", "t0", "t1", "cfg")
    bound = dict(zip(names, args), **kwargs)
    g, t0, t1 = bound["g"], bound["t0"], bound["t1"]
    cfg = bound.get("cfg") or dqdsim.PropagatorConfig()
    dt = cfg.resolve_dt(g)

    def nsteps(h):
        return max(1, math.ceil((t1 - t0) / h)) if t1 > t0 or propagator else 0

    steps = nsteps(dt)
    if cfg.richardson_check and not propagator:
        steps += nsteps(dt / 2)  # the step-doubling rerun
    return {"dim": 2 ** g.n_qubits, "dt": dt, "steps": steps, "T": t1 - t0}


def _matrix_info(args, kwargs) -> dict:
    a = np.asarray(args[0] if args else kwargs["a"])
    d = a.shape[-1]
    return {"batch": int(np.prod(a.shape[:-2], dtype=np.int64)), "dim": int(d)}


def _params_key(args, kwargs, position: int):
    params = args[position] if len(args) > position else kwargs.get("params")
    return {"params": repr(params)}


INFO = {
    "evolve.state_sweep": lambda a, k: _sweep_info(a, k, propagator=False),
    "evolve.propagator_sweep": lambda a, k: _sweep_info(a, k, propagator=True),
    "linalg.eigh": _matrix_info,
    "linalg.eigvalsh": _matrix_info,
    "stage.entangle": lambda a, k: _params_key(a, k, 0),
    "stage.couple": lambda a, k: _params_key(a, k, 2),
}


class Tracer:
    """Span recorder for one traced job; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, root=False):
        info_of = INFO.get(name)
        info = info_of(args, kwargs) if info_of else None
        stack = self._stack()
        # calls on pool threads have no caller span on their own thread
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        if root:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = Span(name, start, end, parent, self.run_id, info)

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` in a top-level span, the parent of calls on pool threads."""
        return self.call(name, fn, args, kwargs, root=True)

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for mod_name, _ in TRACED:
            importlib.import_module(f"dqdsim.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dqdsim" or n.startswith("dqdsim."))]
        for (mod_name, attr), name in TRACED.items():
            owner = sys.modules[f"dqdsim.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for attr, name in LINALG.items():
            self._patch(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _max_concurrency(spans) -> int:
    # at equal times an end (-1) sorts before a start (+1)
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    live = peak = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return peak


def layer_metrics(spans) -> dict:
    """Fold a finished trace into the per-layer metrics (``LAYER_METRICS``)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def has_ancestor(s, names):
        while s.parent is not None:
            s = spans[s.parent]
            if s.name in names:
                return True
        return False

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    m = {}
    sweep_s = total("cli.sweep")
    workers = _max_concurrency(by_name.get("cli.point", []))
    m["cli.sweep_s"] = sweep_s
    m["cli.point_s"] = total("cli.point")
    m["cli.write_s"] = total("cli.write")
    m["cli.workers"] = workers
    m["cli.parallel_eff"] = m["cli.point_s"] / (sweep_s * workers) if sweep_s else 0.0
    m["chain.build_s"] = total("chain.build")
    m["chain.ghz_s"] = total("chain.ghz")
    m["chain.teleport_s"] = total("chain.teleport")
    m["chain.teleport_calls"] = calls("chain.teleport")
    for stage in ("encode", "entangle", "couple", "bell", "measure"):
        m[f"stage.{stage}_s"] = total(f"stage.{stage}")
        m[f"stage.{stage}_calls"] = calls(f"stage.{stage}")
    m["protocol.teleport_self_s"] = sum(
        s.duration - child_time[i] for i, s in enumerate(spans) if s.name == "protocol.teleport")
    for stage in ("entangle", "couple"):
        n = calls(f"stage.{stage}")
        distinct = {s.info["params"] for s in by_name.get(f"stage.{stage}", ())}
        m[f"stage.{stage}_unique_ratio"] = len(distinct) / n if n else 0.0

    sweeps = [s for name in SWEEPS for s in by_name.get(name, ())]
    for name in SWEEPS:
        key = name.split(".")[1]
        m[f"evolve.{key}_s"] = total(name)
        m[f"evolve.{key}_calls"] = calls(name)
    m["evolve.steps"] = sum(s.info["steps"] for s in sweeps)
    m["evolve.max_dim"] = max((s.info["dim"] for s in sweeps), default=0)
    eig_s = sum(s.duration for s in by_name.get("linalg.eigh", ()) if has_ancestor(s, SWEEPS))
    m["evolve.eig_s"] = eig_s
    m["evolve.apply_s"] = sum(s.duration for s in sweeps) - eig_s
    m["evolve.ramp_self_s"] = total("evolve.ramp") - sum(
        s.duration for s in sweeps
        if s.parent is not None and spans[s.parent].name == "evolve.ramp")
    m["evolve.static_s"] = total("evolve.static")
    for key, name in (("terms", "device.terms"), ("hamiltonian_at", "device.hamiltonian_at")):
        m[f"device.{key}_s"] = total(name)
        m[f"device.{key}_calls"] = calls(name)

    eighs = by_name.get("linalg.eigh", [])
    m["linalg.eigh_calls"] = len(eighs)
    m["linalg.eigh_mats"] = sum(s.info["batch"] for s in eighs)
    for d in EIGH_DIMS:
        m[f"linalg.eigh_mats.d{d}"] = sum(s.info["batch"] for s in eighs if s.info["dim"] == d)
    m["linalg.eigvalsh_mats"] = sum(s.info["batch"] for s in by_name.get("linalg.eigvalsh", ()))
    # computed, not measured: complex128 input of the largest batched call
    m["linalg.batch_bytes_max"] = max(
        (s.info["batch"] * s.info["dim"] ** 2 * 16 for s in eighs), default=0)
    for key, name in (("measure", "hilbert.measure"), ("partial_trace", "hilbert.partial_trace"),
                      ("tensor", "hilbert.tensor"), ("fidelity", "hilbert.fidelity")):
        m[f"hilbert.{key}_s"] = total(name)
        m[f"hilbert.{key}_calls"] = calls(name)
    return m


def sweep_table(spans) -> list:
    """Distinct (stage, sweep, dim, dt, steps, T) rows with their call counts."""
    rows: dict[tuple, int] = {}
    for s in spans:
        if s.name not in SWEEPS:
            continue
        owner, p = "job", s.parent
        while p is not None:
            if spans[p].name.startswith(("stage.", "chain.")):
                owner = spans[p].name
                break
            p = spans[p].parent
        key = (owner, s.name, s.info["dim"], s.info["dt"], s.info["steps"], s.info["T"])
        rows[key] = rows.get(key, 0) + 1
    return [dict(zip(("stage", "sweep", "dim", "dt", "steps", "T", "calls"), k + (n,)))
            for k, n in sorted(rows.items())]


def write_spans(spans, path: str):
    """Write the spans as JSON lines (id, name, start, end, parent, run id)."""
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.run_id]) + "\n")
