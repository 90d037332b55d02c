import json
import os
import typing
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from dqdsim import cli, evolve, protocol
from dqdsim.device import majorana_terms
from dqdsim.cli import (
    PARAM_COLUMNS,
    RESULT_COLUMNS,
    RunConfig,
    build_params,
    main,
    parse_values,
    run,
    run_experiment,
    validate_config,
    write_outputs,
)
from dqdsim.hilbert import StateVector, fidelity
from dqdsim.protocol import MAX_QUBITS, ProtocolParams, bell_target, support_crossing_gap
from references import plateau_ground_state


def no_ramp(*args):
    raise AssertionError("a support ramp ran before the refusal")


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestValidateConfig:
    def test_default_ok(self):
        assert validate_config(RunConfig()) == []

    def test_negative_w(self):
        errs = validate_config(RunConfig(w=-1.0))
        assert any("w must be positive" in e for e in errs)

    def test_unknown_axis(self):
        errs = validate_config(RunConfig(axis="voltage", values="1,2"))
        assert any("unknown sweep axis" in e for e in errs)

    def test_sweep_needs_values(self):
        errs = validate_config(RunConfig(axis="U_max"))
        assert any("--values" in e for e in errs)

    def test_bad_alpha(self):
        errs = validate_config(RunConfig(alpha_abs=1.5))
        assert any("alpha_abs" in e for e in errs)

    def test_n_support_limit_follows_qubit_budget(self):
        assert validate_config(RunConfig(n_support=MAX_QUBITS - 1, U_max=4.0)) == []
        errs = validate_config(RunConfig(n_support=MAX_QUBITS))
        assert any("n_support" in e for e in errs)

    def test_validation_prints_nothing(self, capsys):
        assert validate_config(RunConfig(U_max=5.0)) == []
        assert capsys.readouterr() == ("", "")

    def test_run_prints_the_coupling_advisory(self, tmp_path):
        cfg = RunConfig(experiment="encode", U_max=5.0, output=str(tmp_path / "adv"))
        with pytest.warns(UserWarning, match="w/U_max = 0.200 > 0.1") as records:
            assert run(cfg) == 0
        assert {os.path.basename(r.filename) for r in records} == {"cli.py"}
        # a full-mode channel prints it once as well, under the default one-per-location filter
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("default")
            assert run(replace(cfg, experiment="teleport")) == 0
        assert [(os.path.basename(r.filename), r.category) for r in records] == [
            ("cli.py", UserWarning)]

    @pytest.mark.parametrize("argv, advised", [
        (["encode", "--u-max", "5"], 1),  # the preflight and the run share one ProtocolParams
        (["sweep", "--experiment", "encode", "--axis", "U_max", "--values", "5,50"], 1),
        # no point runs a sweep's base config, so it gives no advisory
        (["sweep", "--experiment", "encode", "--u-max", "5", "--axis", "U_max",
          "--values", "50,100"], 0),
    ], ids=["encode", "sweep-point", "sweep-base"])
    def test_encode_records_the_advisory_once(self, tmp_path, argv, advised):
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            assert main(argv + ["--output", str(tmp_path / "x")]) == 0
        assert [str(r.message)[:22] for r in records] == ["w/U_max = 0.200 > 0.1:"] * advised

    def test_builds_each_points_params_once(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_params", lambda cfg: built.append(cfg) or
                            build_params(cfg))
        assert main(["sweep", "--mode", "effective", "--axis", "alpha_abs", "--values",
                     "0.2,0.7", "--output", str(tmp_path / "x")]) == 0
        # no ProtocolParams field holds an input: the base's check serves every point and the run
        assert [c.alpha_abs for c in built] == [0.6]

    def test_a_parameter_sweep_builds_each_point_and_not_its_base(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_params", lambda cfg: built.append(cfg) or
                            build_params(cfg))
        assert main(["sweep", "--mode", "effective", "--axis", "U_max", "--values",
                     "50,20", "--output", str(tmp_path / "x")]) == 0
        # no point runs the base's U_max = 100, so it is not built
        assert [c.U_max for c in built] == [20.0, 50.0]

    def test_a_parameter_sweep_is_not_refused_for_its_base(self, tmp_path):
        # the base's U_max = 0 leaves bell_U at 0, which no point runs
        assert main(["sweep", "--mode", "effective", "--axis", "U_max", "--values", "10,20",
                     "--u-max", "0", "--output", str(tmp_path / "x")]) == 0
        assert [r["U_max"] for r in read_rows(tmp_path / "x.csv")] == ["10", "20"]

    def test_validation_passes_in_reach_ramps(self):
        # the pair's auto coupler at U = 2e3 w, and an entangle run, which steps no coupler
        assert validate_config(RunConfig(U_max=2e3)) == []
        assert validate_config(RunConfig(U_max=1e4, experiment="entangle")) == []

    def test_an_input_sweep_resolves_its_coupling_twice(self, tmp_path, monkeypatch):
        resolved = []
        original = protocol.resolve_coupling
        monkeypatch.setattr(protocol, "resolve_coupling",
                            lambda *args: resolved.append(args) or original(*args))
        values = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"
        assert main(["sweep", "--experiment", "teleport", "--axis", "alpha_abs", "--values",
                     values, "--output", str(tmp_path / "x")]) == 0
        assert len(read_rows(tmp_path / "x.csv")) == 8
        # once in the preflight, once in build_channel
        assert len(resolved) == 2

    def test_parse_values_types(self):
        assert parse_values("U_max", "20, 50") == [20.0, 50.0]
        assert parse_values("n_support", "2,3") == [2, 3]
        with pytest.raises(ValueError):
            parse_values("U_max", "a,b")


class TestParser:
    """One parser: a command, then RunConfig's flags; --axis, --values and --experiment only
    with sweep, which needs --axis and --values.  A refused line exits 2 and writes nothing."""

    @pytest.mark.parametrize("argv, flag", [pytest.param(*case, id=" ".join(case[0])) for case in (
        (["teleport", "--axis", "U_max", "--values", "1,2"], "--axis"),
        (["bell", "--experiment", "teleport"], "--experiment"),
        (["encode", "--values", "0.5"], "--values"),
        (["sweep", "--experiment", "teleport", "--values", "0.5"], "--axis"),
        (["sweep", "--experiment", "teleport", "--axis", "alpha_abs"], "--values"),
    )])
    def test_refused_with_exit_2(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []
        last = capsys.readouterr().err.splitlines()[-1]
        assert "error:" in last and flag in last

    @pytest.mark.parametrize("argv, doc, code, experiment, n_rows", [
        (["teleport"], {"axis": "alpha_abs", "values": "0.2,0.4"}, 2, None, 0),
        (["sweep"], {"axis": "alpha_abs", "values": "0.2,0.4"}, 0, "teleport", 2),
        (["sweep", "--axis", "alpha_abs", "--values", "0.3"], {"experiment": "encode"},
         0, "encode", 1),
        (["bell"], {"experiment": "encode"}, 2, None, 0),
    ], ids=["teleport-file-sweep", "sweep-file-axis", "sweep-file-experiment", "bell-file-encode"])
    def test_sweep_settings_are_judged_merged(self, argv, doc, code, experiment, n_rows,
                                              tmp_path, capsys):
        # a config field and a flag alike: only sweep takes them, and it needs axis and values
        cfgfile, out = tmp_path / "cfg.json", tmp_path / "out" / "x"
        cfgfile.write_text(json.dumps({"mode": "effective", **doc}))
        out.parent.mkdir()
        try:
            got = main(argv + ["--config", str(cfgfile), "--output", str(out)])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        if code:
            assert list(out.parent.iterdir()) == []
            assert "only sweep takes" in capsys.readouterr().err.splitlines()[-1]
            return
        rows = read_rows(tmp_path / "out" / "x.csv")
        assert len(rows) == n_rows and all(r["experiment"] == experiment for r in rows)
        assert tuple(rows[0]) == PARAM_COLUMNS + RESULT_COLUMNS[experiment]

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{encode,entangle,couple,bell,teleport,sweep}" in capsys.readouterr().out


class TestRuns:
    def test_effective_teleport_row(self, tmp_path):
        out = tmp_path / "run"
        code = main(["teleport", "--mode", "effective", "--alpha-abs", "0.6",
                     "--seed", "7", "--output", str(out)])
        assert code == 0
        rows = read_rows(tmp_path / "run.csv")
        assert len(rows) == 1
        assert float(rows[0]["fidelity"]) == pytest.approx(1.0, abs=1e-10)
        assert rows[0]["alpha_abs"] == "0.6"
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "numpy" in manifest["versions"]

    def test_entangle_uncoupled_overlap(self, tmp_path):
        out = tmp_path / "ent"
        code = main(["entangle", "--u-max", "0", "--t-ent", "10", "--output", str(out)])
        assert code == 0
        row = read_rows(tmp_path / "ent.csv")[0]
        # the separable state overlaps the Bell target with probability 1/2
        assert float(row["bell_overlap_sq"]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("argv, row", [
        # effective mode scores entangled_pair_reference itself, not a state rebuilt from
        # the covariance make_entangled_pair returns (its concurrence moves in the 12th digit)
        (["--mode", "effective", "--u-max", "1e-3"],
         "entangle,effective,1,0,0.001,0.001,0.001,12.5663704835,,0.785398163397,0.6,0,2,7,,"
         "0.500124999996,1,1,,0.000249999992188,,"),
        # full mode scores gaussian_state of the ramp's covariance; the ramp sits on 8 whole
        # cycles of its phase, where the first-order residue 4 eps^2 sin^2(Phi/2) is 0
        ([], "entangle,full,1,0,100,100,100,8.20236796345,,0.785398163397,0.6,0,2,7,,"
             "0.999586183581,0.999999874287,0.999999874287,0.0399840127872,0.999172367193,8,0"),
    ])
    def test_entangle_rows_are_pinned(self, argv, row, tmp_path):
        assert main(["entangle", *argv, "--output", str(tmp_path / "ent")]) == 0
        assert (tmp_path / "ent.csv").read_text().splitlines()[1] == row

    def test_sweep_rows_ordered_by_axis(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--experiment", "encode", "--axis", "alpha_abs",
                     "--values", "0.9,0.2,0.5", "--output", str(out)])
        assert code == 0
        rows = read_rows(tmp_path / "sw.csv")
        assert [r["alpha_abs"] for r in rows] == ["0.2", "0.5", "0.9"]
        assert all(r["experiment"] == "encode" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["teleport", "--mode", "effective", "--alpha-abs", "0.3", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_file_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "effective", "alpha_abs": 0.9, "seed": 3}))
        out = tmp_path / "cfgrun"
        code = main(["teleport", "--config", str(cfgfile),
                     "--alpha-abs", "0.2", "--output", str(out)])
        assert code == 0
        row = read_rows(tmp_path / "cfgrun.csv")[0]
        assert row["alpha_abs"] == "0.2"      # flag beats file
        assert row["mode"] == "effective"     # file beats default
        assert row["seed"] == "3"

    def test_unknown_config_field(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"voltage": 2.0}))
        assert main(["teleport", "--config", str(cfgfile)]) == 2

    def test_config_error_exit_code(self, tmp_path):
        code = main(["teleport", "--alpha-abs", "2.0",
                     "--output", str(tmp_path / "x")])
        assert code == 2

    def test_numerical_error_exit_code(self, tmp_path):
        code = main(["entangle", "--u-max", "50", "--t-ent", "50", "--dt", "5",
                     "--richardson", "--tolerance", "1e-12",
                     "--output", str(tmp_path / "x")])
        assert code == 3

    def test_float_formatting_12_digits(self, tmp_path):
        out = tmp_path / "fmt"
        main(["encode", "--alpha-abs", "0.2", "--output", str(out)])
        row = read_rows(tmp_path / "fmt.csv")[0]
        assert row["achieved_beta_im"] == f"{np.sqrt(1 - 0.04):.12g}"


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("argv", [
        ["teleport", "--dt", "inf"],
        ["teleport", "--dt", "nan"],
        ["teleport", "--w", "nan"],
        ["teleport", "--t-couple", "nan"],
        ["teleport", "--u-max", "inf"],
        ["teleport", "--n-support", "3", "--phi=-inf"],
        ["sweep", "--axis", "U_max", "--values", "20,nan"],
        ["sweep", "--axis", "T_ent", "--values", "inf"],
    ])
    def test_exit_2_and_write_nothing(self, tmp_path, capsys, argv):
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "finite" in capsys.readouterr().err

    def test_validation_names_each_non_finite_field(self):
        errs = validate_config(RunConfig(wait_angle=float("nan"), T_couple=float("inf")))
        assert any("wait_angle must be finite" in e for e in errs)
        assert any("T_couple must be finite" in e for e in errs)


class TestSweepPointRanges:
    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--experiment", "encode", "--axis", "w", "--values=-1,1"], "w=-1.0"),
        (["sweep", "--axis", "alpha_abs", "--values", "0.5,1.5"], "alpha_abs=1.5"),
        (["sweep", "--axis", "n_support", "--values", f"2,{MAX_QUBITS}"],
         f"n_support={MAX_QUBITS}"),
        # the auto-derived support ramp of the second point is out of reach: the pair's ~8/w
        # ramp at U = 1e7 w needs a coarse step grid of 1e7 intervals
        (["sweep", "--experiment", "entangle", "--axis", "U_max", "--values", "100,1e7"],
         "U_max=10000000.0"),
        (["sweep", "--experiment", "teleport", "--axis", "U_max", "--values", "100,1e5"],
         "U_max=100000.0"),
        (["sweep", "--experiment", "teleport", "--n-support", "3", "--t-couple", "100",
          "--axis", "U_max", "--values", "15,1e5"], "U_max=100000.0"),
    ])
    def test_exit_2_before_any_point_runs(self, tmp_path, capsys, monkeypatch, argv, field):
        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert f"sweep point {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, ramp", [pytest.param(*case, id=" ".join(case[0])) for case in (
        # the pair's auto coupler 2U/w^2 at U = 1e4 w is inside MAX_AUTO_RAMP, but its coarse
        # grid is 5e7 intervals
        (["teleport", "--u-max", "1e4"], "the coupling ramp T_couple"),
        (["teleport", "--t-couple", "1e7"], "the coupling ramp T_couple"),
        (["entangle", "--t-ent", "1e7"], "the entangling ramp T_ent"),
        (["sweep", "--experiment", "teleport", "--axis", "U_max", "--values", "100,1e4"],
         "sweep point U_max=10000.0: the coupling ramp T_couple"),
    )])
    def test_a_ramp_out_of_grid_reach_exits_2_before_any_ramp(self, tmp_path, capsys, monkeypatch,
                                                               argv, ramp):
        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert f"config error: {ramp}" in err and "out of reach" in err

    def test_a_zero_crossing_gap_exits_2_before_any_ramp(self, tmp_path, capsys, monkeypatch):
        # the four-site crossing gap ~ w (2w/U)^3 underflows to 0 at U = 1e200 w; with T_ent
        # and T_couple given, both in grid reach, the gap is what the coupler cannot follow
        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        argv = ["teleport", "--u-max", "1e200", "--n-support", "4", "--t-ent", "1e-199",
                "--t-couple", "10", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []
        assert ("config error: the coupling ramp T_couple follows the support's crossing gap, "
                "which is 0 at n_support = 4") in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["teleport", "--mode", "effective"], ["teleport", "--n-support", "4", "--mode", "effective"],
        ["encode"],
    ], ids=" ".join)
    def test_runs_without_a_ramp_are_not_refused_for_one(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        assert main(argv + ["--u-max", "1e5", "--output", str(tmp_path / "x")]) == 0
        assert len(read_rows(tmp_path / "x.csv")) == 1

    def test_valid_points_pass(self):
        assert validate_config(RunConfig(experiment="encode", axis="w", values="0.5,1")) == []


class TestSeedAndConfigTypes:
    """A negative seed, or a config-file value of the wrong JSON type, is a config
    error: exit 2 before any stage, and nothing written."""

    @pytest.fixture
    def no_stage(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a stage ran before the refusal")

        for stage in ("make_entangled_pair", "ramp_support", "couple_unknown", "bell_evolution",
                      "rotation_gate"):
            monkeypatch.setattr(protocol, stage, refused)

    @pytest.mark.parametrize("argv, message", [
        (["teleport", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
        (["sweep", "--axis", "seed", "--values", "1,-2"],
         "sweep point seed=-2: seed must be a nonnegative integer, got -2"),
    ], ids=["teleport", "sweep"])
    def test_negative_seed_exits_2(self, argv, message, tmp_path, capsys, no_stage):
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"seed": 1.5}', "'seed' must be int, got 1.5"),
        ('{"alpha_abs": "0.3"}', "'alpha_abs' must be float, got '0.3'"),
        ('{"richardson": "yes"}', "'richardson' must be bool, got 'yes'"),
        ('{"n_support": true}', "'n_support' must be int, got True"),
        ('{"w": null}', "'w' must be float, got None"),
        ('{"U_max": 1' + "0" * 400 + "}", "'U_max' must be float"),  # past a float's range
        ('["seed", 1]', "one JSON object"),
    ], ids=["float-seed", "str-alpha_abs", "str-richardson", "bool-n_support", "null-w",
            "huge-U_max", "list"])
    def test_mistyped_config_exits_2(self, text, message, tmp_path, capsys, no_stage):
        (tmp_path / "cfg.json").write_text(text)
        argv = ["teleport", "--config", str(tmp_path / "cfg.json"), "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert message in capsys.readouterr().err

    def test_ints_fit_float_fields_and_null_optional_ones(self, tmp_path):
        doc = {"mode": "effective", "U_max": 50, "T_ent": None, "richardson": False, "seed": 0}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["teleport", "--config", str(tmp_path / "cfg.json"),
                     "--output", str(tmp_path / "x")]) == 0
        assert read_rows(tmp_path / "x.csv")[0]["U_max"] == "50"


def annotated_type(name):
    """RunConfig field ``name``'s annotated type, None aside."""
    hint = typing.get_type_hints(RunConfig)[name]
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


class TestOneSettingsTable:
    """Flags, sweep values and the ProtocolParams the CLI builds all follow RunConfig."""

    SAMPLES = {int: "3", float: "0.25", str: "effective"}  # mode's choice; any str for output

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)
                                      if f.name not in ("experiment", "axis", "values")])
    def test_each_flag_parses_to_its_fields_type(self, name):
        kind, flag = annotated_type(name), "--" + name.lower().replace("_", "-")
        argv = [flag] if kind is bool else [flag, self.SAMPLES[kind]]
        value = getattr(cli.build_parser().parse_args(["teleport", *argv]), name)
        assert type(value) is kind
        assert value == (True if kind is bool else kind(self.SAMPLES[kind]))

    @pytest.mark.parametrize("axis", cli.SWEEP_AXES)
    def test_each_sweep_axis_parses_to_its_fields_type(self, axis):
        kind = annotated_type(axis)
        assert [type(v) for v in parse_values(axis, "2, 3")] == [kind, kind]
        assert parse_values(axis, "2, 3") == [2, 3]

    def test_build_params_carries_every_field(self):
        changed = dict(w=2.0, phi=0.3, U_max=60.0, Uprime_max=50.0, T_ent=150.0,
                       T_couple=120.0, bell_U=40.0, wait_angle=0.5, mode="effective", seed=11,
                       n_support=3)
        assert set(changed) == {f.name for f in fields(ProtocolParams)} - {"integrator"}
        default = ProtocolParams()
        assert all(getattr(default, k) != v for k, v in changed.items())
        params = build_params(RunConfig(**changed, dt=0.5, richardson=True, tolerance=1e-7))
        assert {k: getattr(params, k) for k in changed} == changed
        integrator = params.integrator
        assert (integrator.dt, integrator.richardson_check, integrator.tolerance) == (
            0.5, True, 1e-7)
        assert integrator != default.integrator


class TestInputSweeps:
    """An input-axis sweep of a protocol experiment shares one channel."""

    @pytest.mark.parametrize("base", [
        RunConfig(experiment="teleport", U_max=20.0, dt=0.5),
        RunConfig(experiment="teleport", mode="effective", n_support=4),
    ])
    @pytest.mark.parametrize("axis, values", [("alpha_abs", "0.9,0.2,0.5"),
                                              ("beta_phase", "0.3,1.1")])
    def test_matches_running_each_point(self, tmp_path, base, axis, values):
        out = tmp_path / "sweep"
        cfg = replace(base, axis=axis, values=values, output=str(out))
        assert run(cfg) == 0
        rows = [run_experiment(cli.checked_points(replace(base, **{axis: v}))[1][0])
                for v in sorted(parse_values(axis, values))]
        columns = PARAM_COLUMNS + RESULT_COLUMNS[base.experiment]
        write_outputs(cfg, rows, columns, str(tmp_path / "points"))
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()

    def test_builds_the_channel_once(self, tmp_path, monkeypatch):
        built = []
        original = protocol.make_entangled_pair
        monkeypatch.setattr(protocol, "make_entangled_pair",
                            lambda params, *rest: built.append(params) or original(params, *rest))
        assert main(["sweep", "--experiment", "teleport", "--mode", "effective",
                     "--axis", "alpha_abs", "--values", "0.1,0.5,0.9",
                     "--output", str(tmp_path / "x")]) == 0
        assert len(built) == 1

    def test_leaked_register_exits_3(self, tmp_path, monkeypatch):
        # the channel computes one rotation gate for both images; a 4 x 4 gate on the
        # encoder and support cannot move weight off the receiver's code pair, so the
        # broken gate here is a non-finite one, refused by the readout's build (effective
        # mode's gate is effective_gate's)
        monkeypatch.setattr(protocol, "effective_gate", lambda params, t: np.full((4, 4), np.nan))
        out = tmp_path / "leak"
        assert main(["teleport", "--mode", "effective", "--n-support", "3",
                     "--output", str(out)]) == 3
        assert not (tmp_path / "leak.csv").exists()


class TestMemoisedSweeps:
    """A sweep over a field its ramps do not read lays each ramp's plan once."""

    def test_a_wait_angle_sweep_lays_each_ramp_once_and_writes_the_cold_csv(self, tmp_path,
                                                                             monkeypatch):
        laid, lay = [], evolve._lay

        def spy(g, t0, t1, cfg, compile_):
            if compile_ is majorana_terms:
                laid.append(g)
            return lay(g, t0, t1, cfg, compile_)
        monkeypatch.setattr(evolve, "_lay", spy)
        argv = ["sweep", "--axis", "wait_angle", "--values",
                ",".join(f"{0.1 + 0.2 * k:g}" for k in range(8))]
        assert main(argv + ["--output", str(tmp_path / "warm")]) == 0
        assert len(laid) == 2  # the support's ramp and the coupler
        point = cli.run_experiment

        def cold(*args):  # each point built with every memo empty
            for memo in (evolve._PLANS, evolve._SPECTRA, protocol._CHANNELS):
                memo.clear()
            return point(*args)
        monkeypatch.setattr(cli, "run_experiment", cold)
        assert main(argv + ["--output", str(tmp_path / "cold")]) == 0
        assert len(laid) == 2 + 2 * 8
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


class TestDerivedValues:
    """A channel needs a positive rotation repulsion, and every derived rate, wait and
    ramp duration must be finite and positive: exit 2, before any stage, and no CSV."""

    @pytest.mark.parametrize("argv", [
        ["teleport", "--uprime-max", "0"],
        ["teleport", "--mode", "effective", "--uprime-max", "0"],
        ["bell", "--uprime-max", "0"],
        ["couple", "--uprime-max", "0"],
        ["teleport", "--n-support", "3", "--uprime-max", "0"],
        ["teleport", "--mode", "effective", "--bell-u", "1e-320"],  # the rate overflows
        ["teleport", "--mode", "effective", "--w", "1e-300"],  # w^2 underflows
        ["sweep", "--experiment", "teleport", "--mode", "effective", "--axis", "bell_U",
         "--values", "100,1e-320"],
    ], ids=" ".join)
    def test_refused_before_any_stage(self, argv, tmp_path, capsys, monkeypatch):
        def no_stage(*args):
            raise AssertionError("a stage ran before the refusal")

        for stage in ("make_entangled_pair", "ramp_support", "couple_unknown", "bell_evolution",
                      "rotation_gate"):
            monkeypatch.setattr(protocol, stage, no_stage)
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "config error:" in capsys.readouterr().err

    def test_positive_rotation_repulsion_runs(self, tmp_path):
        # U' = 0 leaves the coupler unramped, but an explicit bell_U runs the channel
        assert main(["teleport", "--mode", "effective", "--uprime-max", "0", "--bell-u", "100",
                     "--output", str(tmp_path / "x")]) == 0


class TestOneSupportLength:
    """n_support reaches every channel experiment through ProtocolParams: one setting, one
    channel builder, and no chain experiment or GHZ ramp of its own."""

    def test_an_effective_sweep_over_n_support_builds_each_length(self, tmp_path):
        assert main(["sweep", "--experiment", "teleport", "--mode", "effective", "--axis",
                     "n_support", "--values", "2,3,4", "--output", str(tmp_path / "x")]) == 0
        rows = read_rows(tmp_path / "x.csv")
        assert [r["n_support"] for r in rows] == ["2", "3", "4"]
        assert [r["T_ent"] for r in rows] == ["8.20236796345", "300", "300"]
        assert len({r["ghz_overlap_sq"] for r in rows}) == 3
        target = cli.input_qubit(RunConfig())
        for n, row in zip((2, 3, 4), rows):
            res = protocol.build_channel(ProtocolParams(mode="effective", n_support=n)).teleport(
                target)
            branches = {b.outcome: b.fidelity for b in res.branches}
            expected = dict(outcome=res.outcome, p0=res.p0, p1=res.p1,
                            fidelity=res.fidelity_to_input, fidelity_branch0=branches[0],
                            fidelity_branch1=branches[1],
                            ghz_overlap_sq=res.step_log["channel"]["ghz_overlap_sq"])
            assert {c: row[c] for c in expected} == {
                c: cli.format_cell(v) for c, v in expected.items()}

    @pytest.mark.parametrize("argv, message", [
        (["chain"], "invalid choice: 'chain'"),
        (["teleport", "--t-ghz", "45"], "unrecognized arguments: --t-ghz 45"),
        (["sweep", "--experiment", "chain", "--axis", "w", "--values", "1"],
         "invalid choice: 'chain'"),
    ], ids=["chain", "t-ghz", "sweep-chain"])
    def test_the_chain_experiment_and_its_ramp_flag_are_unknown(self, argv, message, tmp_path,
                                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []
        assert message in capsys.readouterr().err

    def test_entangle_refuses_a_longer_support(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        assert main(["entangle", "--n-support", "3", "--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "config error: entangle prepares the support pair" in capsys.readouterr().err


class TestFullModeRows:
    def test_couple_row(self, tmp_path):
        out = tmp_path / "cp"
        code = main(["couple", "--u-max", "30", "--uprime-max", "30",
                     "--output", str(out)])
        assert code == 0
        row = read_rows(tmp_path / "cp.csv")[0]
        assert float(row["target_overlap_sq"]) >= 0.99
        assert float(row["norm"]) == pytest.approx(1.0, abs=1e-9)

    def test_bell_row(self, tmp_path):
        out = tmp_path / "bl"
        code = main(["bell", "--u-max", "30", "--uprime-max", "30", "--output", str(out)])
        assert code == 0
        row = read_rows(tmp_path / "bl.csv")[0]
        # the branch balance carries O((w/U)^2) leakage corrections at U = 30 w
        assert float(row["p0"]) == pytest.approx(0.5, abs=0.05)
        assert float(row["effective_overlap_sq"]) >= 0.98

    def test_chain_row(self, tmp_path):
        out = tmp_path / "ch"
        code = main(["teleport", "--mode", "effective", "--n-support", "4",
                     "--alpha-abs", "0.6", "--output", str(out)])
        assert code == 0
        row = read_rows(tmp_path / "ch.csv")[0]
        assert float(row["fidelity"]) == pytest.approx(1.0, abs=1e-10)
        # the support is the plateau ground state: its GHZ overlap is the dense reference's
        reference = StateVector(plateau_ground_state(ProtocolParams(), 4))
        assert float(row["ghz_overlap_sq"]) == pytest.approx(
            fidelity(reference, bell_target(4)), abs=1e-12)

    def test_rows_record_resolved_T_couple(self, tmp_path):
        # full mode writes the derived coupling duration; effective mode has none
        cases = (
            (["couple", "--u-max", "30", "--uprime-max", "30"],
             ProtocolParams(U_max=30.0, Uprime_max=30.0), 2),
            (["teleport", "--n-support", "3", "--u-max", "15", "--uprime-max", "40", "--dt", "0.2"],
             ProtocolParams(U_max=15.0, Uprime_max=40.0), 3),
        )
        for i, (args, params, n_support) in enumerate(cases):
            out = tmp_path / f"tc{i}"
            assert main(args + ["--output", str(out)]) == 0
            row = read_rows(tmp_path / f"tc{i}.csv")[0]
            expected = params.resolved_T_couple(support_crossing_gap(params, n_support))
            assert row["T_couple"] == f"{expected:.12g}"
        out = tmp_path / "tc_eff"
        assert main(["teleport", "--mode", "effective", "--output", str(out)]) == 0
        assert read_rows(tmp_path / "tc_eff.csv")[0]["T_couple"] == ""

    def test_chain_rows_record_the_ghz_ramp(self, tmp_path):
        # a chain's support ramp is T_ent: an auto one is written as resolved, 3 U/w^2 from
        # three sites on, and the row is then the explicit ramp's
        base = ["teleport", "--n-support", "3", "--u-max", "20"]
        for name, args in (("auto", base), ("given", base + ["--t-ent", "60"])):
            assert main(args + ["--output", str(tmp_path / name)]) == 0
        auto, given = read_rows(tmp_path / "auto.csv")[0], read_rows(tmp_path / "given.csv")[0]
        assert auto["T_ent"] == "60" and auto == given
        for args, T_ent in ((["--n-support", "3"], "300"), (["--n-support", "3", "--t-ent", "7.5"],
                                                             "7.5"), ([], "8.20236796345")):
            assert main(["teleport", "--mode", "effective", *args,
                         "--output", str(tmp_path / "x")]) == 0
            assert read_rows(tmp_path / "x.csv")[0]["T_ent"] == T_ent

    def test_infeasible_chain_exits_2(self, tmp_path):
        code = main(["teleport", "--n-support", "4", "--u-max", "100",
                     "--output", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["entangle", "--u-max", "1e200"],
        ["teleport", "--u-max", "1e200", "--n-support", "4", "--t-couple", "10"],
    ])
    def test_out_of_reach_auto_ramp_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "config error:" in capsys.readouterr().err

    def test_teleport_sweep_infidelity_non_increasing(self, tmp_path):
        out = tmp_path / "sweepU"
        code = main(["sweep", "--experiment", "teleport", "--axis", "U_max",
                     "--values", "20,50,100,200", "--output", str(out)])
        assert code == 0
        rows = read_rows(tmp_path / "sweepU.csv")
        assert [r["U_max"] for r in rows] == ["20", "50", "100", "200"]
        infids = [1.0 - float(r["fidelity"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(infids, infids[1:]))


class TestOutputPath:
    """An output directory that is missing or not writable is a config error: exit 2 before
    any stage runs, and nothing written.  A write that fails anyway exits 2 with one line."""

    STAGES = ("build_channel", "make_entangled_pair", "ramp_support", "couple_unknown",
              "bell_evolution", "rotation_gate", "effective_gate")

    @pytest.fixture
    def stage_calls(self, monkeypatch):
        calls = []
        for stage in self.STAGES:
            real = getattr(protocol, stage)
            monkeypatch.setattr(protocol, stage, lambda *a, _real=real, _name=stage, **k:
                                calls.append(_name) or _real(*a, **k))
        return calls

    ARGV = ["teleport", "--mode", "effective", "--output"]

    def test_the_spy_sees_a_run_that_goes_ahead(self, tmp_path, stage_calls):
        assert main(self.ARGV + [str(tmp_path / "x")]) == 0
        assert "build_channel" in stage_calls

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "not-writable"])
    def test_refused_before_any_stage(self, tmp_path, capsys, monkeypatch, stage_calls, missing):
        if not missing:  # root may write anywhere, so the check is told the directory is not
            monkeypatch.setattr(cli.os, "access", lambda *args: False)
        out_dir = tmp_path / "no" / "such" if missing else tmp_path
        assert main(self.ARGV + [str(out_dir / "x")]) == 2
        assert stage_calls == []
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output directory '{out_dir}'")
        assert err.count("\n") == 1

    def test_a_failed_write_exits_2_with_one_line(self, tmp_path, capsys):
        (tmp_path / "x.csv").mkdir()  # the CSV's path is taken by a directory
        assert main(["encode", "--output", str(tmp_path / "x")]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("output error: ") and out.err.count("\n") == 1
        assert "Traceback" not in out.err
