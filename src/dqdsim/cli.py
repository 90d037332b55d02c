"""Command-line driver: single experiments and parameter sweeps to CSV.

Every run writes ``<output>.csv`` plus ``<output>.manifest.json`` (the full
configuration, package versions and seed).  Flags, config-file values and sweep
values take the annotated type of their RunConfig field.  Rows carry the complete
parameter tuple, with the values the preflight derived (Uprime_max, bell_U, T_ent,
T_couple) in place of None; floats are printed with 12 significant digits,
and output is byte-identical for identical (config, seed) pairs.  Exit codes: 0 ok,
2 configuration error (a missing or unwritable output directory included,
refused before any stage runs) or failed write, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, DimensionError
from .evolve import PropagatorConfig
from .hilbert import StateVector, fidelity, gaussian_state
from .metrics import concurrence
from . import protocol as proto

# The experiments that build a channel (protocol.build_channel, which memoises it).
CHANNEL_EXPERIMENTS = ("couple", "bell", "teleport")
INPUT_AXES = ("alpha_abs", "beta_phase")

RESULT_COLUMNS = {
    "encode": ("t_bar", "achieved_alpha_re", "achieved_alpha_im",
               "achieved_beta_re", "achieved_beta_im"),
    "entangle": ("bell_overlap_sq", "reference_overlap_sq", "ground_overlap_sq",
                 "min_gap", "concurrence", "ramp_cycles", "predicted_residue"),
    "couple": ("target_overlap_sq", "norm"),
    "bell": ("p0", "p1", "effective_overlap_sq"),
    "teleport": ("outcome", "p0", "p1", "fidelity", "fidelity_branch0", "fidelity_branch1",
                 "ghz_overlap_sq"),
}
EXPERIMENTS = tuple(RESULT_COLUMNS)


@dataclass
class RunConfig:
    experiment: str = "teleport"
    mode: str = "full"
    w: float = 1.0
    phi: float = 0.0
    U_max: float = 100.0
    Uprime_max: float | None = None
    bell_U: float | None = None
    T_ent: float | None = None
    T_couple: float | None = None
    wait_angle: float = float(np.pi / 4)
    alpha_abs: float = 0.6
    beta_phase: float = 0.0
    n_support: int = 2
    seed: int = 7
    dt: float | None = None
    richardson: bool = False
    tolerance: float = 1e-9
    axis: str | None = None
    values: str | None = None
    output: str | None = None


# RunConfig is the one table of run settings: the CSV's parameter columns are its fields up
# to dt, the sweep axes those a point can vary, and each field's annotation types its flag,
# its config-file value and its sweep values.
_NAMES = tuple(f.name for f in fields(RunConfig))
PARAM_COLUMNS = _NAMES[:_NAMES.index("dt") + 1]
SWEEP_AXES = tuple(n for n in PARAM_COLUMNS if n not in ("experiment", "mode", "dt"))
_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotations as text: "float | None"
_KINDS = {n: {"int": int, "float": float, "bool": bool, "str": str}[t.partition(" | ")[0]]
          for n, t in _TYPES.items()}  # each field's type, None aside


def validate_config(cfg: RunConfig) -> list:
    """Schema and invariant checks; an empty list means the config is runnable."""
    with warnings.catch_warnings():  # the run gives the w/U_max advisory
        warnings.simplefilter("ignore")
        return checked_points(cfg)[0]


def _alpha_errors(cfg: RunConfig) -> list:
    return [] if 0.0 <= cfg.alpha_abs <= 1.0 else [
        f"alpha_abs must lie in [0, 1], got {cfg.alpha_abs}"]


def checked_points(cfg: RunConfig):
    """(errors, points) of :func:`validate_config`'s checks (no points on errors).  A point is
    ``(cfg, params, row)``: the run's config, its one ProtocolParams and its parameter cells,
    with the derived values the checks resolved in place of None.  An input-axis sweep's points
    share its base's check, warnings and all (no ProtocolParams field holds an input); any other
    sweep checks exactly its points, since its base never runs."""
    if cfg.axis is not None or cfg.values is not None:  # a sweep: each point's check, or the base's
        base, shared = replace(cfg, axis=None, values=None), cfg.axis in INPUT_AXES
        errors, checked = checked_points(base) if shared else ([], [])
        if cfg.axis is not None and cfg.axis not in SWEEP_AXES:
            errors.append(f"unknown sweep axis {cfg.axis!r}; choose from {', '.join(SWEEP_AXES)}")
        if cfg.axis is None or cfg.values is None:
            errors.append("a sweep needs both --axis and --values")
        elif cfg.axis in SWEEP_AXES:
            try:
                values = parse_values(cfg.axis, cfg.values)
            except ValueError as exc:
                errors.append(str(exc))
        points = []
        for v in [] if errors else sorted(values):  # all checked before one runs
            point = replace(base, **{cfg.axis: v})
            errs, pts = checked_points(point) if not shared else (  # the base's check, v's cell
                _alpha_errors(point), [(point, p, {**row, cfg.axis: v}) for _, p, row in checked])
            errors += [f"sweep point {cfg.axis}={v}: {e}" for e in errs]
            points += pts
        return errors, [] if errors else points
    errors = [] if cfg.experiment in EXPERIMENTS else [f"unknown experiment {cfg.experiment!r}"]
    errors += [f"{f.name} must be finite, got {v}" for f in fields(cfg)
               if isinstance(v := getattr(cfg, f.name), float) and not np.isfinite(v)]
    errors += _alpha_errors(cfg)
    if errors:
        return errors, []
    row = {c: "" if (v := getattr(cfg, c)) is None else v for c in PARAM_COLUMNS}
    try:  # the settings' owners check them, then the derived values
        params = build_params(cfg)
        if cfg.experiment == "entangle" and cfg.n_support != 2:
            raise ConfigError(f"entangle prepares the support pair, got n_support = "
                              f"{cfg.n_support}; teleport --n-support runs a longer support")
        row.update(Uprime_max=params.resolved_Uprime(), bell_U=params.resolved_bell_U(),
                   T_ent=params.resolved_T_ent())
        stages = proto.stage_choice(params)  # the channel's exact or ideal stages
        if stages.support and cfg.experiment != "encode":  # the support ramp it steps
            params.support_ramp()
        if cfg.experiment in CHANNEL_EXPERIMENTS:  # the rotation, and the coupling it sweeps
            params.resolved_wait()
            if stages.coupling:
                row["T_couple"] = proto.resolve_coupling(params, params.n_support)[0]
    except (ConfigError, DimensionError) as exc:
        return [str(exc)], []
    return [], [(cfg, params, row)]


def parse_values(axis: str, text: str) -> list:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(_KINDS[axis](piece))
        except ValueError:
            raise ValueError(f"cannot parse sweep value {piece!r} for axis {axis}")
        if not np.isfinite(out[-1]):
            raise ValueError(f"sweep value {piece!r} for axis {axis} is not finite")
    if not out:
        raise ValueError("sweep value list is empty")
    return out


def build_params(cfg: RunConfig) -> proto.ProtocolParams:
    """cfg's ProtocolParams: each of its fields by name, and the integrator's settings."""
    names = [f.name for f in fields(proto.ProtocolParams) if f.name != "integrator"]
    return proto.ProtocolParams(
        **{n: getattr(cfg, n) for n in names}, integrator=PropagatorConfig(
            dt=cfg.dt, richardson_check=cfg.richardson, tolerance=cfg.tolerance))


def input_qubit(cfg: RunConfig) -> proto.InputQubit:
    a = cfg.alpha_abs
    b = np.sqrt(max(0.0, 1.0 - a * a)) * np.exp(1j * cfg.beta_phase)
    return proto.InputQubit(a, b)


def run_experiment(point: tuple) -> dict:
    """Run one point of :func:`checked_points`: its CSV row."""
    cfg, params, row = point
    row, target = dict(row), input_qubit(cfg)

    if cfg.experiment == "encode":
        enc = proto.encode_qubit(target, cfg.w, cfg.phi)
        a, b = enc.achieved.alpha, enc.achieved.beta
        row.update(t_bar=enc.t_bar, achieved_alpha_re=a.real, achieved_alpha_im=a.imag,
                   achieved_beta_re=b.real, achieved_beta_im=b.imag)
        return row

    if cfg.experiment == "entangle":
        gamma, diag = proto.make_entangled_pair(params)
        reference = proto.entangled_pair_reference(cfg.U_max, cfg.w)
        state = StateVector(gaussian_state(gamma)) if diag else reference
        row.update(
            bell_overlap_sq=fidelity(state, proto.bell_target(2)),
            reference_overlap_sq=fidelity(state, reference),
            ground_overlap_sq=diag.final_ground_overlap_sq if diag else 1.0,
            min_gap=diag.min_gap if diag else "",
            concurrence=concurrence(state),
        )
        for c in ("ramp_cycles", "predicted_residue"):  # the pair's ramp phase, if it ramped
            row[c] = "" if (v := getattr(diag, c, None)) is None else v
        return row

    res = proto.build_channel(params).teleport(target)  # a channel experiment
    log = res.step_log
    by_outcome = {b.outcome: b.fidelity for b in res.branches}
    results = {
        "target_overlap_sq": log["couple"]["target_overlap_sq"],
        "norm": log["couple"]["norm"],
        "effective_overlap_sq": log["bell"]["effective_overlap_sq"],
        "outcome": res.outcome, "p0": res.p0, "p1": res.p1,
        "fidelity": res.fidelity_to_input,
        "fidelity_branch0": by_outcome.get(0, ""),
        "fidelity_branch1": by_outcome.get(1, ""),
        "ghz_overlap_sq": log["channel"]["ghz_overlap_sq"],
    }
    row.update((c, results[c]) for c in RESULT_COLUMNS[cfg.experiment])
    return row


def run_sweep(points: list) -> list:
    """The checked points' rows; points differing only in an input, phi or seed share a channel."""
    return [run_experiment(p) for p in points]


def format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_outputs(cfg: RunConfig, rows: list, columns: tuple, out_base: str):
    csv_path = out_base + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(row.get(c, "")) for c in columns])
    versions = {"dqdsim": __version__, "numpy": np.__version__, "python": sys.version.split()[0]}
    manifest = {"config": asdict(cfg), "seed": cfg.seed, "versions": versions}
    with open(out_base + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


def run(cfg: RunConfig) -> int:
    """Validate, execute and write artifacts; returns the process exit code."""
    errors, points = checked_points(cfg)
    out_base = cfg.output or (f"sweep_{cfg.experiment}_{cfg.axis}" if cfg.axis else cfg.experiment)
    out_dir = os.path.dirname(out_base) or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        errors.append(f"output directory {out_dir!r} is missing or not writable")
    for e in errors:
        print(f"config error: {e}", file=sys.stderr)
    if errors:
        return 2
    try:
        rows = run_sweep(points)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    columns = PARAM_COLUMNS + RESULT_COLUMNS[cfg.experiment]
    try:
        csv_path = write_outputs(cfg, rows, columns, out_base)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} ({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return 0


# --------------------------------------------------------------------------
# argument parsing


# every RunConfig field is a --kebab-case flag of the field's type (a bool one a bare flag);
# these are its options beyond that
_FLAG_OPTIONS = {
    "experiment": {"choices": EXPERIMENTS, "help": "the experiment a sweep runs (teleport)"},
    "mode": {"choices": ("full", "effective")},
    "axis": {"help": "the field a sweep varies"}, "values": {"help": "its values, a,b,..."},
    "output": {"help": "basename for the .csv/.manifest.json pair"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dqdsim", description="Charge-qubit teleportation "
                                     "experiments on simulated DQD arrays.")
    parser.add_argument("command", choices=EXPERIMENTS + ("sweep",),
                        help="run an experiment, or sweep one over --axis")
    parser.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    for name in _NAMES:
        typed = {"action": "store_true", "default": None} if _KINDS[name] is bool \
            else {"type": _KINDS[name]}
        parser.add_argument("--" + name.lower().replace("_", "-"), dest=name, **typed,
                            **_FLAG_OPTIONS.get(name, {}))
    return parser


def _field_value(key: str, value):
    """A config file's value for RunConfig field ``key``, an int made a float for a float field.
    ConfigError unless it has the field's type: an int field takes an int, a float field an int
    (that a float holds) or a float, neither a bool; None fits only an optional field."""
    kind, optional = _KINDS[key], " | " in _TYPES[key]
    types = (int, float) if kind is float else kind
    if (value is None and optional) or (
            isinstance(value, types) and (kind is bool or not isinstance(value, bool))):
        try:
            return float(value) if kind is float and value is not None else value
        except OverflowError:
            pass
    raise ConfigError(f"config field {key!r} must be {_TYPES[key]}, got {value!r:.40}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, a JSON config file and flags (strongest); experiment is None unless set."""
    cfg = RunConfig(experiment=None)
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("a config file holds one JSON object of RunConfig fields")
        for key, value in doc.items():
            if key not in _NAMES:
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, _field_value(key, value))
    for name in _NAMES:
        if (v := getattr(args, name)) is not None:
            setattr(cfg, name, v)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # the sweep-only settings are judged once merged, from a flag or the config file alike
        cfg = config_from_args(args)
        given = [f"--{n}" for n in ("experiment", "axis", "values") if getattr(cfg, n) is not None]
        if args.command != "sweep" and given:
            parser.error(f"only sweep takes {', '.join(given)}, as a flag or a config field")
        if args.command == "sweep" and not {"--axis", "--values"} <= set(given):
            parser.error("sweep needs --axis and --values, as flags or config fields")
        cfg.experiment = (cfg.experiment or "teleport") if args.command == "sweep" else args.command
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
