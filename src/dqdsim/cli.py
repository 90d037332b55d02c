"""Command-line driver: single experiments and parameter sweeps to CSV.

Every run writes ``<output>.csv`` plus ``<output>.manifest.json`` (the full
configuration, package versions and seed).  Rows carry the complete
parameter tuple, floats are printed with 12 significant digits, and output
is byte-identical for identical (config, seed) pairs.  Exit codes: 0 ok,
2 configuration error, 3 numerical (convergence) error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import __version__
from .chain import ChainChannel, ChainSpec
from .errors import ConfigError, ConvergenceError, DimensionError
from .evolve import PropagatorConfig
from .hilbert import StateVector, fidelity, gaussian_state
from .metrics import concurrence
from . import protocol as proto

EXPERIMENTS = ("encode", "entangle", "couple", "bell", "teleport", "chain")

# A sweep of these experiments over an input axis shares one Channel.
CHANNEL_EXPERIMENTS = ("couple", "bell", "teleport", "chain")
INPUT_AXES = ("alpha_abs", "beta_phase")

RESULT_COLUMNS = {
    "encode": ("t_bar", "achieved_alpha_re", "achieved_alpha_im",
               "achieved_beta_re", "achieved_beta_im"),
    "entangle": ("bell_overlap_sq", "reference_overlap_sq", "ground_overlap_sq",
                 "min_gap", "concurrence"),
    "couple": ("target_overlap_sq", "norm"),
    "bell": ("p0", "p1", "effective_overlap_sq"),
    "teleport": ("outcome", "p0", "p1", "fidelity", "fidelity_branch0", "fidelity_branch1"),
    "chain": ("outcome", "p0", "p1", "fidelity", "fidelity_branch0", "fidelity_branch1",
              "ghz_overlap_sq"),
}


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
    T_ghz: float | None = None
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


# RunConfig's field order is the one list of run settings: the CSV's parameter
# columns are its fields up to dt, the sweep axes those a point can vary.
_NAMES = tuple(f.name for f in fields(RunConfig))
PARAM_COLUMNS = _NAMES[:_NAMES.index("dt") + 1]
SWEEP_AXES = tuple(n for n in PARAM_COLUMNS if n not in ("experiment", "mode", "dt"))


def validate_config(cfg: RunConfig) -> list:
    """Schema and invariant checks; an empty list means the config is runnable."""
    with warnings.catch_warnings():  # the run gives the w/U_max advisory
        warnings.simplefilter("ignore")
        return checked_points(cfg)[0]


def checked_points(cfg: RunConfig):
    """(errors, points) of :func:`validate_config`'s checks; ``points`` pairs each run's config
    with its one ProtocolParams, built for the checks and shared by the run (none on errors)."""
    if cfg.axis is not None or cfg.values is not None:  # a sweep: its base, then its points
        errors = validate_config(replace(cfg, axis=None, values=None))  # quietly: it never runs
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
            errs, pts = checked_points(replace(cfg, axis=None, values=None, **{cfg.axis: v}))
            errors += [f"sweep point {cfg.axis}={v}: {e}" for e in errs]
            points += pts
        return errors, [] if errors else points
    errors = []
    if cfg.experiment not in EXPERIMENTS:
        errors.append(f"unknown experiment {cfg.experiment!r}")
    errors += [f"{f.name} must be finite, got {v}" for f in fields(cfg)
               if isinstance(v := getattr(cfg, f.name), float) and not np.isfinite(v)]
    if not 0.0 <= cfg.alpha_abs <= 1.0:
        errors.append(f"alpha_abs must lie in [0, 1], got {cfg.alpha_abs}")
    if errors:
        return errors, []
    try:  # the settings' owners check them, then the derived values
        params = build_params(cfg)
        spec = ChainSpec(cfg.n_support, params, cfg.T_ghz)
        params.resolved_T_ent()  # the CSV's T_ent column
        chain = cfg.experiment == "chain"
        if cfg.mode == "full" and cfg.experiment != "encode":  # the support ramp it steps
            (spec if chain else params).support_ramp()
        if cfg.experiment in CHANNEL_EXPERIMENTS:
            proto.resolve_coupling(params, cfg.n_support if chain else 2)
    except (ConfigError, DimensionError) as exc:
        return [str(exc)], []
    return [], [(cfg, params)]


def parse_values(axis: str, text: str) -> list:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece) if axis in ("n_support", "seed") else float(piece))
        except ValueError:
            raise ValueError(f"cannot parse sweep value {piece!r} for axis {axis}")
        if not np.isfinite(out[-1]):
            raise ValueError(f"sweep value {piece!r} for axis {axis} is not finite")
    if not out:
        raise ValueError("sweep value list is empty")
    return out


def build_params(cfg: RunConfig) -> proto.ProtocolParams:
    return proto.ProtocolParams(
        w=cfg.w, phi=cfg.phi, U_max=cfg.U_max, Uprime_max=cfg.Uprime_max,
        T_ent=cfg.T_ent, T_couple=cfg.T_couple, bell_U=cfg.bell_U,
        wait_angle=cfg.wait_angle, mode=cfg.mode, seed=cfg.seed,
        integrator=PropagatorConfig(dt=cfg.dt, richardson_check=cfg.richardson,
                                    tolerance=cfg.tolerance),
    )


def input_qubit(cfg: RunConfig) -> proto.InputQubit:
    a = cfg.alpha_abs
    b = np.sqrt(max(0.0, 1.0 - a * a)) * np.exp(1j * cfg.beta_phase)
    return proto.InputQubit(a, b)


def _param_cells(cfg: RunConfig, params: proto.ProtocolParams) -> dict:
    """The parameter columns of cfg's row; derived values in place of None."""
    row = {c: "" if (v := getattr(cfg, c)) is None else v for c in PARAM_COLUMNS}
    row.update(Uprime_max=params.resolved_Uprime(), bell_U=params.resolved_bell_U(),
               T_ent=params.resolved_T_ent())
    return row


def build_channel(cfg: RunConfig, params: proto.ProtocolParams) -> proto.Channel:
    """The pair channel, or the chain channel for the ``chain`` experiment."""
    if cfg.experiment == "chain":
        return ChainChannel(ChainSpec(cfg.n_support, params, cfg.T_ghz))
    return proto.pair_channel(params)


def run_experiment(cfg: RunConfig, channel: proto.Channel | None = None,
                   params: proto.ProtocolParams | None = None) -> dict:
    """Execute one experiment (through ``channel``, with ``params``, if given): its CSV row."""
    params = build_params(cfg) if params is None else params
    row = _param_cells(cfg, params)
    target = input_qubit(cfg)

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
        return row

    if cfg.experiment in CHANNEL_EXPERIMENTS:
        res = (channel or build_channel(cfg, params)).teleport(target)
        log = res.step_log
        if log["channel"]["T_couple"] is not None:
            row["T_couple"] = log["channel"]["T_couple"]
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

    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


def run_sweep(cfg: RunConfig, points: list) -> list:
    """The checked points' rows; a channel experiment swept over an input shares one channel."""
    channel = None
    if cfg.axis in INPUT_AXES and cfg.experiment in CHANNEL_EXPERIMENTS:
        channel = build_channel(*points[0])
    return [run_experiment(p, channel, params) for p, params in points]


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
    for e in errors:
        print(f"config error: {e}", file=sys.stderr)
    if errors:
        return 2
    try:
        rows = run_sweep(cfg, points)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    columns = PARAM_COLUMNS + RESULT_COLUMNS[cfg.experiment]
    out_base = cfg.output or (f"sweep_{cfg.experiment}_{cfg.axis}" if cfg.axis else cfg.experiment)
    csv_path = write_outputs(cfg, rows, columns, out_base)
    print(f"wrote {csv_path} ({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return 0


# --------------------------------------------------------------------------
# argument parsing


# flag options beyond ``type=float``; every RunConfig field but experiment,
# axis and values is a --kebab-case flag
_FLAG_OPTIONS = {
    "mode": {"choices": ("full", "effective")},
    "n_support": {"type": int},
    "seed": {"type": int},
    "richardson": {"action": "store_true", "default": None},
    "output": {"help": "basename for the .csv/.manifest.json pair"},
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    for name in _NAMES:
        if name not in ("experiment", "axis", "values"):
            p.add_argument("--" + name.lower().replace("_", "-"), dest=name,
                           **_FLAG_OPTIONS.get(name, {"type": float}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description="Charge-qubit teleportation experiments on simulated DQD arrays.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name, help=f"run the {name} experiment"))
    sw = sub.add_parser("sweep", help="sweep a parameter of another experiment")
    _add_common(sw)
    sw.add_argument("--experiment", dest="inner_experiment", choices=EXPERIMENTS,
                    default="teleport")
    sw.add_argument("--axis", required=True)
    sw.add_argument("--values", required=True)
    return parser


_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotations as text: "float | None"


def _field_value(key: str, value):
    """A config file's value for RunConfig field ``key``, an int made a float for a float field.
    ConfigError unless it has the field's type: an int field takes an int, a float field an int
    (that a float holds) or a float, neither a bool; None fits only an optional field."""
    kind, _, optional = _TYPES[key].partition(" | ")
    types = {"int": int, "float": (int, float), "bool": bool, "str": str}[kind]
    if (value is None and optional) or (
            isinstance(value, types) and (kind == "bool" or not isinstance(value, bool))):
        try:
            return float(value) if kind == "float" and value is not None else value
        except OverflowError:
            pass
    raise ConfigError(f"config field {key!r} must be {_TYPES[key]}, got {value!r:.40}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, an optional JSON config file, and CLI flags (strongest)."""
    cfg = RunConfig()
    if getattr(args, "config", None):
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
        if name != "experiment" and (v := getattr(args, name, None)) is not None:
            setattr(cfg, name, v)
    # the sweep subcommand names its target experiment; others are themselves
    cfg.experiment = getattr(args, "inner_experiment", None) or args.experiment
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
