import json
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degenwave import cli
from degenwave.cli import (EXPERIMENTS, PRESETS, Report, RunConfig,
                           _check_splice, _check_trace_energy_laws,
                           _config_from_args, _report_line, _run_sweep,
                           build_parser, emit_plot, main, parse_config_file,
                           run)
from degenwave.experiments import EnergyTrace
from degenwave.mesh import assemble, mesh_from_h
from degenwave.picard import DegenerateDamping

FAST = dict(h=0.1, delta=0.02, t_final=0.4, t_extend=0.4, ks=(1,),
            window=0.2)


def read_csvs(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted((outdir / "traces").glob("*.csv"))}


class TestConfig:
    def test_validation_catches_bad_delta(self):
        with pytest.raises(ValueError):
            RunConfig(experiment="fig2", delta=0.3, t_final=1.0).validate()

    def test_validation_catches_bad_mode(self):
        with pytest.raises(ValueError):
            RunConfig(experiment="fig2", ks=(0,)).validate()

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            RunConfig(experiment="fig9").validate()

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nalpha = 2.0\nks = [1, 2]\nrule = 'simpson38'\n")
        values = parse_config_file(str(cfg))
        assert values == {"alpha": 2.0, "ks": [1, 2], "rule": "simpson38"}

    def test_config_file_hash_inside_quotes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out = 'runs/a#1'\nalpha = 2.0  # note\n"
                       "seed = 3 # 'quoted' comment\n"
                       "out2 = \"b'#c\"  # x\nout3 = 'it\\'s#2'\n")
        values = parse_config_file(str(cfg))
        assert values == {"out": "runs/a#1", "alpha": 2.0, "seed": 3,
                          "out2": "b'#c", "out3": "it's#2"}

    @pytest.mark.parametrize("name", ["run.cfg", "manifest.json"])
    def test_retired_rule_value_rejected(self, tmp_path, capsys, name):
        # only Boole's rule remains; asking for another must not run Boole
        cfg = tmp_path / name
        cfg.write_text(json.dumps({"config": {"rule": "simpson38"}})
                       if name.endswith(".json") else "rule = 'simpson38'\n")
        code = main(["run", "--preset", "custom", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config key 'rule'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_retired_substeps_zero_loads(self, tmp_path):
        # earlier manifests record "substeps": 0, the automatic choice
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": {"substeps": 0}}))
        args = build_parser().parse_args(["run", "--preset", "fig3", "--config",
                                          str(manifest), "--out",
                                          str(tmp_path / "o")])
        config = _config_from_args(args)
        assert config == RunConfig(experiment="fig3", out=str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["run.cfg", "manifest.json"])
    def test_retired_substeps_count_rejected(self, tmp_path, capsys, name):
        # every extension now takes one step per output step; a forced
        # substep count must not run silently at one
        cfg = tmp_path / name
        cfg.write_text(json.dumps({"config": {"substeps": 4}})
                       if name.endswith(".json") else "substeps = 4\n")
        code = main(["run", "--preset", "fig3", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config key 'substeps'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_retired_oracle_stride_ten_loads(self, tmp_path):
        # earlier manifests record the old fixed "oracle_stride": 10; the
        # reference step is now derived from the fastest mode
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": {"oracle_stride": 10}}))
        args = build_parser().parse_args(["run", "--preset", "fig2", "--config",
                                          str(manifest)])
        assert _config_from_args(args) == RunConfig(experiment="fig2")

    @pytest.mark.parametrize("name", ["run.cfg", "manifest.json"])
    def test_retired_oracle_stride_other_value_rejected(self, tmp_path, capsys,
                                                        name):
        cfg = tmp_path / name
        cfg.write_text(json.dumps({"config": {"oracle_stride": 4}})
                       if name.endswith(".json") else "oracle_stride = 4\n")
        code = main(["run", "--preset", "fig2", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config key 'oracle_stride'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,config", [
        (["--k", "1,1"], None), (["--k", "1,1.5"], None),
        ([], "ks = [1, 1]\n"), ([], "ks = [1, 1.5]\n"),
        ([], json.dumps({"config": {"ks": [2, 2]}}))])
    def test_repeated_or_non_integer_modes_rejected(self, tmp_path, capsys,
                                                    argv, config):
        # a repeated mode would run twice and overwrite its own trace; a
        # fractional one is not a mode
        if config is not None:
            cfg = tmp_path / ("m.json" if config.startswith("{") else "run.cfg")
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        code = main(["run", "--preset", "fig2", *argv, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "modes must be distinct integers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("beta", ["0", "-1", "6.3"])
    def test_fig1_beta_outside_underdamped_range_rejected(self, tmp_path,
                                                          capsys, beta):
        # rejected before the Picard solve and the output directory
        code = main(["run", "--preset", "fig1", "--beta", beta,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "fig1 needs beta in (0, 2 pi)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '{"config": null}', '"fig2"'])
    def test_config_json_not_an_object_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "manifest.json"
        cfg.write_text(text)
        code = main(["run", "--preset", "fig2", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", ["fig3", "primitive"])
    def test_extension_from_short_history_rejected(self, tmp_path, capsys,
                                                   preset):
        # AB5 seeds from five states: three steps up to t_final are too few
        code = main(["run", "--preset", preset, "--T", "0.006", "--T2", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "at least 4 steps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # without an extension a single step stays valid
        args = build_parser().parse_args(["run", "--preset", preset, "--T",
                                          "0.002", "--T2", "0.002"])
        _config_from_args(args).validate()

    @pytest.mark.parametrize("flag,value,field", [
        ("--alpha", "nan", "alpha"), ("--beta", "nan", "beta"),
        ("--T2", "inf", "t_extend"), ("--T", "inf", "t_final"),
        ("--delta", "-inf", "delta"), ("--window", "nan", "window")])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, value, field):
        code = main(["run", "--preset", "fig3", f"{flag}={value}",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{field} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field,value", [
        ("m", "1.5"), ("samples", "64.0"),
        ("seed", "0.5"), ("m", "True")])
    def test_non_integer_config_value_rejected(self, tmp_path, capsys, field,
                                               value):
        # caught before the output directory exists, not as a TypeError in
        # the middle of the run
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field} = {value}\n")
        code = main(["run", "--preset", "fig2", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["alpha", "beta", "h"])
    def test_bool_for_float_config_value_rejected(self, tmp_path, capsys, field):
        # bool is a subclass of int, so isinstance alone accepts True
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field} = True\n")
        code = main(["run", "--preset", "fig2", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{field} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", ["fig3", "primitive"])
    def test_untiled_extension_rejected(self, tmp_path, capsys, preset):
        # rejected before the solve, not after it with a partial output
        code = main(["run", "--preset", preset, "--T", "0.5", "--T2", "1.0001",
                     "--k", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "delta must tile the extension interval" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha 2.0\n")
        with pytest.raises(ValueError):
            parse_config_file(str(cfg))

    @pytest.mark.parametrize("argv", [["run", "--preset", "oracle", "--T", "60"],
                                      ["run", "--preset", "fig2", "--k", "1",
                                       "--T", "60"]])
    def test_non_extending_run_ignores_t_extend(self, argv):
        # t_extend keeps its default of 50; only fig3 and primitive extend
        config = _config_from_args(build_parser().parse_args(argv))
        assert config.t_final == 60.0 and config.t_extend == 50.0
        config.validate()

    def test_extension_before_final_rejected(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig3", "--T", "2", "--T2", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "t_extend must not precede t_final" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,expected", [
        ("oracle", RunConfig(experiment="oracle", ks=(1,))),
        ("oscillator", RunConfig(experiment="oscillator"))])
    def test_subcommand_defaults_come_from_run_config(self, command, expected):
        # the retired subcommands' experiments, now presets of ``run``
        args = build_parser().parse_args(["run", "--preset", command])
        assert _config_from_args(args) == expected

    @pytest.mark.parametrize("name,text", [
        ("run.cfg", "alpah = 0.0\n"),
        ("manifest.json", json.dumps({"config": {"alpah": 0.0}}))])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, name, text):
        # a misspelt key must not run at the default it meant to change
        cfg = tmp_path / name
        cfg.write_text(text)
        code = main(["run", "--preset", "custom", "--config", str(cfg),
                     "--k", "1", "--h", "0.1", "--delta", "0.02", "--T", "0.4",
                     "--window", "0.2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config key 'alpah'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset,ks,message", [
        ("fig1", "3", "fig1 runs the mode k = 1 only"),
        ("fig1", "1,2", "fig1 runs the mode k = 1 only"),
        ("primitive", "1,2", "primitive runs one mode")])
    def test_mode_list_a_preset_cannot_run_rejected(self, tmp_path, capsys,
                                                     preset, ks, message):
        # these presets run one mode: a longer list would be recorded in the
        # manifest without being run
        code = main(["run", "--preset", preset, "--k", ks, "--T", "0.4",
                     "--window", "0.2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_primitive_runs_the_listed_mode(self):
        args = build_parser().parse_args(["run", "--preset", "primitive",
                                          "--k", "2"])
        config = _config_from_args(args)
        assert config.ks == (2,)
        config.validate()


class TestFlags:
    """``run``'s flags are generated from RunConfig's fields."""

    SAMPLE = {"float": ("0.5", 0.5), "int": ("3", 3), "str": ("x", "x"),
              "tuple": ("2,3", (2, 3))}

    @staticmethod
    def run_parser():
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        return sub.choices["run"]

    def test_every_field_has_exactly_one_flag(self):
        actions = self.run_parser()._actions
        for f in fields(RunConfig):
            owners = [a for a in actions if a.dest == f.name]
            if f.name == "experiment":
                assert owners == []
                continue
            assert len(owners) == 1, f.name
            assert len(owners[0].option_strings) == 1, f.name
            flag = owners[0].option_strings[0]
            text, value = self.SAMPLE[f.type]
            args = build_parser().parse_args(["run", "--preset", "custom",
                                              flag, text])
            assert getattr(_config_from_args(args), f.name) == value, flag

    def test_renamed_flags(self):
        flags = {a.dest: a.option_strings[0] for a in self.run_parser()._actions
                 if a.option_strings}
        assert flags["t_final"] == "--T" and flags["t_extend"] == "--T2"
        assert flags["ks"] == "--k" and flags["osc_step"] == "--osc-step"

    def test_preset_offers_every_experiment(self):
        preset = next(a for a in self.run_parser()._actions if a.dest == "preset")
        assert sorted(preset.choices) == sorted(EXPERIMENTS) == sorted(PRESETS)

    @pytest.mark.parametrize("argv", [["oracle"], ["oscillator"]])
    def test_retired_subcommand_rejected(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_abbreviated_flag_rejected(self, tmp_path):
        assert main(["run", "--preset", "custom", "--alph", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()


@st.composite
def valid_configs(draw):
    """A RunConfig that passes ``validate``, drawn field by field."""
    num = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    experiment = draw(st.sampled_from(EXPERIMENTS))
    delta = draw(num(1e-4, 0.1))
    # an extension seeds AB5 from at least four steps
    extends = experiment in ("fig3", "primitive")
    t_final = draw(st.integers(4 if extends else 1, 1000)) * delta
    # the oscillator's step divides both the horizon and 250: 250 / steps
    osc_steps = draw(st.integers(250, 2_500_000))
    osc_step = 250.0 / osc_steps
    elements = draw(st.integers(9, 2000))     # 1/h; the mesh has 1/h - 1 nodes
    k_max = (elements - 1) // 8
    # fig1 runs k = 1 and primitive one mode
    ks = tuple(draw(st.lists(st.integers(1, 1 if experiment == "fig1" else k_max),
                             min_size=1, unique=True,
                             max_size=1 if experiment in ("fig1", "primitive")
                             else 5)))
    return RunConfig(
        experiment=experiment,
        alpha=draw(num(0.0, 100.0)), m=draw(st.integers(1, 4)), ks=ks,
        h=1.0 / elements, delta=delta, t_final=t_final,
        # an extension is a whole number of steps
        t_extend=t_final + draw(st.integers(0, 1000)) * delta,
        # fig1's linearly damped reference is underdamped: 0 < beta < 2 pi
        beta=draw(num(1e-3, 6.28) if experiment == "fig1" else num(-10.0, 10.0)),
        # a window is a whole number of steps
        window=draw(st.integers(1, 1000)) * delta,
        epsilon=draw(num(1e-14, 1.0)),
        khat=draw(num(1e-3, 100.0)), radius=draw(num(1e-3, 10.0)),
        samples=draw(st.integers(1, 500)), eps_target=draw(num(1e-6, 1.0)),
        horizon=draw(st.integers(1, 4 * osc_steps)) * osc_step, osc_step=osc_step,
        seed=draw(st.integers(0, 2**31)),
        out=draw(st.text("abcXYZ019_-./#", min_size=1, max_size=20)))


class TestConfigFileRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(valid_configs())
    def test_flat_file_parses_back_to_equal_config(self, config):
        config.validate()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text("".join(f"{f.name} = {getattr(config, f.name)!r}\n"
                                    for f in fields(config)))
            parsed = parse_config_file(str(path))
            assert set(parsed) == {f.name for f in fields(config)}
            args = build_parser().parse_args(["run", "--config", str(path)])
            assert _config_from_args(args) == config


class TestManifestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(valid_configs())
    def test_manifest_parses_back_to_equal_config(self, config):
        # the drivers are stubbed: run() writes the manifest and dispatches
        stub = mock.Mock()
        stubbed = {name: (stub, values) for name, (_, values) in PRESETS.items()}
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(cli.PRESETS, stubbed):
            config = replace(config, out=str(Path(tmp) / "run#1"))
            assert run(config) == 0
            assert stub.call_count == 1
            manifest = Path(config.out) / "manifest.json"
            args = build_parser().parse_args(["run", "--config", str(manifest)])
            assert _config_from_args(args) == config


class TestRun:
    def test_custom_run_artifacts(self, tmp_path):
        config = RunConfig(experiment="custom", out=str(tmp_path / "o"), **FAST)
        assert run(config) == 0
        out = tmp_path / "o"
        assert (out / "manifest.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "traces" / "trace_k1.csv").exists()
        assert list((out / "plots").glob("*.svg"))
        header = (out / "traces" / "trace_k1.csv").read_text().splitlines()[0]
        assert header == "t,E,L2,H1"
        report = (out / "report.txt").read_text()
        assert "[SUMMARY] PASS" in report

    def test_determinism_byte_identical(self, tmp_path):
        c1 = RunConfig(experiment="custom", out=str(tmp_path / "a"), **FAST)
        c2 = RunConfig(experiment="custom", out=str(tmp_path / "b"), **FAST)
        assert run(c1) == 0
        assert run(c2) == 0
        a, b = read_csvs(tmp_path / "a"), read_csvs(tmp_path / "b")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)
        svg_a = sorted((tmp_path / "a" / "plots").glob("*.svg"))[0].read_bytes()
        svg_b = sorted((tmp_path / "b" / "plots").glob("*.svg"))[0].read_bytes()
        assert svg_a == svg_b

    def test_manifest_round_trip(self, tmp_path):
        config = RunConfig(experiment="custom", out=str(tmp_path / "a"), **FAST)
        assert run(config) == 0
        manifest = tmp_path / "a" / "manifest.json"
        code = main(["run", "--preset", "custom", "--config", str(manifest),
                     "--out", str(tmp_path / "b")])
        assert code == 0
        a, b = read_csvs(tmp_path / "a"), read_csvs(tmp_path / "b")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)

    def test_manifest_with_retired_key_loads(self, tmp_path):
        # manifests written before max_iterations, rule, substeps and
        # oracle_stride were dropped load and reproduce the run
        config = RunConfig(experiment="custom", out=str(tmp_path / "a"), **FAST)
        assert run(config) == 0
        manifest = tmp_path / "a" / "manifest.json"
        doc = json.loads(manifest.read_text())
        assert "max_iterations" not in doc["config"]
        assert "rule" not in doc["config"]
        doc["config"]["max_iterations"] = 50
        doc["config"]["rule"] = "boole"
        doc["config"]["substeps"] = 0
        doc["config"]["oracle_stride"] = 10
        manifest.write_text(json.dumps(doc))
        code = main(["run", "--preset", "custom", "--config", str(manifest),
                     "--out", str(tmp_path / "b")])
        assert code == 0
        a, b = read_csvs(tmp_path / "a"), read_csvs(tmp_path / "b")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        config = RunConfig(experiment="custom", delta=0.3, t_final=1.0,
                           out=str(tmp_path))
        assert run(config) == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # strong damping over a long window makes the iteration diverge
        config = RunConfig(experiment="custom", out=str(tmp_path), alpha=50.0,
                           h=0.1, delta=0.02, t_final=1.0, ks=(1,), window=1.0)
        assert run(config) == 2
        assert "numerical failure" in (Path(tmp_path) / "report.txt").read_text()

    def test_non_finite_picard_iterate_exit_code(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig2", "--k", "1", "--T", "0.1",
                     "--alpha", "1e300", "--out", str(tmp_path / "o")])
        assert code == 2
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "[ERROR] numerical failure: non-finite iterate" in report
        assert report.endswith("[SUMMARY] FAIL\n")
        assert "configuration error" not in capsys.readouterr().err

    def test_under_resolved_mode_exit_code(self, tmp_path, capsys):
        # rejected before any output exists
        config = RunConfig(experiment="custom", out=str(tmp_path / "a"),
                           ks=(5,), h=0.1, delta=0.02, t_final=0.2)
        assert run(config) == 1
        assert main(["run", "--preset", "fig2", "--k", "20",
                     "--out", str(tmp_path / "b")]) == 1
        assert "mode 20 is under-resolved on n=99" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_non_integer_inverse_h_exit_code(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig2", "--h", "0.03",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "is not close to an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("window", ["0.003", "0.0009"])
    def test_window_not_tiled_by_delta_exit_code(self, tmp_path, capsys, window):
        # 1.5 steps used to round to 2 and 0.45 steps to 1, silently
        code = main(["run", "--preset", "custom", "--T", "0.02", "--k", "1",
                     "--window", window, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "delta must divide window" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--out", ""], ["--config", "c.txt"]],
                             ids=["empty-flag", "number-in-config"])
    def test_out_that_is_no_path_rejected(self, tmp_path, capsys, monkeypatch,
                                          argv):
        # an empty out resolved to the working directory and the run wrote
        # its outputs there; a number ended in a TypeError traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("out = 5\n")
        code = main(["run", "--preset", "fig2", "--T", "0.002", "--k", "1", *argv])
        assert code == 1
        assert "out must be a nonempty string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    @pytest.mark.parametrize("blocked", ["out-below-a-file", "trace-is-a-directory"])
    def test_unwritable_output_is_a_configuration_error(self, tmp_path, capsys,
                                                        blocked):
        # creating or writing an output raised an uncaught OSError
        out = tmp_path / "o"
        if blocked == "out-below-a-file":
            out.write_text("")
            out = out / "x"
        else:
            (out / "traces" / "trace_k1.csv").mkdir(parents=True)
        code = main(["run", "--preset", "fig2", "--T", "0.002", "--k", "1",
                     "--out", str(out)])
        assert code == 1
        assert "configuration error: [Errno" in capsys.readouterr().err

    def test_step_longer_than_two_checks_unit_windows(self, tmp_path):
        # 1/delta rounds to 0 here; the unit-window check must still run
        code = main(["run", "--preset", "custom", "--delta", "2.5", "--T", "5",
                     "--window", "2.5", "--k", "1", "--alpha", "0.001",
                     "--out", str(tmp_path / "o")])
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "k=1 energy strictly decreasing over unit windows" in report
        assert code == (3 if "[SUMMARY] FAIL" in report else 0)

    def test_fig1_path(self, tmp_path):
        config = RunConfig(experiment="fig1", out=str(tmp_path / "o"),
                           h=1.0 / 10, delta=0.02, t_final=0.4, ks=(1,),
                           window=0.2)
        assert run(config) == 0
        out = tmp_path / "o"
        point = (out / "traces" / "point_x0.5.csv").read_text().splitlines()
        assert point[0] == "t,u_nonlinear,u_linear_damped"
        # both start from the same midpoint displacement
        first = [float(v) for v in point[1].split(",")]
        assert first[1] == pytest.approx(first[2], rel=1e-9)
        assert (out / "plots" / "fig1_midpoint.svg").exists()

    def test_fig3_path_with_extension(self, tmp_path):
        config = RunConfig(experiment="fig3", out=str(tmp_path / "o"),
                           h=0.1, delta=0.02, t_final=0.4, t_extend=0.8,
                           ks=(1,), window=0.2)
        assert run(config) == 0
        out = tmp_path / "o"
        rows = (out / "traces" / "trace_k1.csv").read_text().splitlines()
        assert len(rows) == 1 + int(0.8 / 0.02) + 1  # header + samples
        assert (out / "plots" / "fig3_l2.svg").exists()
        report = (out / "report.txt").read_text()
        assert "splice continuity: AB5 restarted at t=0.2" in report
        assert "AB5 substeps" not in report
        assert "[SUMMARY] PASS" in report

    def test_splice_check_can_fail(self, tmp_path):
        # an undamped restart misses the energy the damping removes over the
        # window; the damped one reproduces it
        config = RunConfig(experiment="fig3", h=0.1, delta=0.02, t_final=0.4,
                           ks=(1,), window=0.2)
        ops = assemble(mesh_from_h(config.h))
        run = _run_sweep(config, ops)[0]
        for alpha, tag in [(1.0, "[PASS]"), (0.0, "[FAIL]")]:
            report = Report()
            _report_line(report, *_check_splice([run], ops,
                                                DegenerateDamping(alpha))[0])
            assert report.lines[0].startswith(f"{tag} k=1 splice continuity")

    def test_fig3_batched_splice_lines_stay_per_mode(self, tmp_path):
        # one extension restarts both modes; each mode's splice line still
        # opens that mode's block of lines
        config = RunConfig(experiment="fig3", out=str(tmp_path / "o"),
                           h=0.05, delta=0.02, t_final=0.4, t_extend=0.8,
                           ks=(1, 2), window=0.2)
        assert run(config) == 0
        lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
        for k in (1, 2):
            i = next(i for i, line in enumerate(lines)
                     if f"k={k} splice continuity" in line)
            assert lines[i].startswith("[PASS]")
            assert f"k={k} unit initial energy" in lines[i + 1]

    def test_primitive_path(self, tmp_path):
        config = RunConfig(experiment="primitive", out=str(tmp_path / "o"),
                           h=0.1, delta=0.02, t_final=0.4, t_extend=0.8,
                           ks=(1,), window=0.2)
        assert run(config) == 0
        out = tmp_path / "o"
        assert (out / "traces" / "primitive_k1.csv").exists()
        assert (out / "traces" / "primitive_k1_extended.csv").exists()
        report = (out / "report.txt").read_text()
        assert "potential matches closed form" in report
        assert "decay exponent" in report
        assert "AB5 substeps" not in report


class TestMain:
    def test_bad_flag_exit(self):
        assert main(["run", "--preset", "nope"]) == 1

    def test_retired_rule_flag_rejected(self):
        assert main(["run", "--rule", "boole"]) == 1

    def test_retired_oracle_stride_flag_rejected(self, tmp_path):
        assert main(["run", "--oracle-stride", "10",
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_retired_thread_variable_ignored(self, tmp_path, monkeypatch):
        # the sweep is serial and reads no thread count from the environment
        monkeypatch.setenv("DEGENWAVE_THREADS", "abc")
        assert main(["run", "--preset", "custom", "--k", "1", "--h", "0.1",
                     "--delta", "0.02", "--T", "0.2", "--window", "0.2",
                     "--out", str(tmp_path / "o")]) == 0

    def test_flag_overrides(self, tmp_path):
        code = main(["run", "--preset", "custom", "--k", "1",
                     "--h", "0.1", "--delta", "0.02", "--T", "0.4",
                     "--T2", "0.4", "--window", "0.2",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["t_final"] == 0.4
        assert manifest["config"]["ks"] == [1]

    def test_oracle_subcommand(self, tmp_path):
        code = main(["run", "--preset", "oracle", "--k", "1", "--T", "0.5",
                     "--h", "0.1", "--delta", "0.02", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "traces" / "oracle_k1.csv").exists()

    def test_oracle_non_finite_is_numerical_failure(self, tmp_path):
        code = main(["run", "--preset", "oracle", "--alpha", "1e7", "--T", "0.1",
                     "--h", "0.1", "--delta", "0.02", "--out", str(tmp_path / "o")])
        assert code == 2
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "[ERROR] numerical failure" in report
        assert "not finite" in report
        assert "[SUMMARY] FAIL" in report

    def test_oscillator_subcommand_conservative(self, tmp_path):
        code = main(["run", "--preset", "oscillator", "--samples", "8",
                     "--alpha", "0", "--horizon", "5",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "never reaches target" in report

    def test_oscillator_blow_up_is_numerical_failure(self, tmp_path, capsys):
        # the sweep's outer samples overflow at osc_step 0.01; before, NumPy's
        # overflow warnings reached stderr and the run ended as a failed
        # invariant, "max step increase nan" (exit 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--preset", "oscillator", "--m", "3",
                         "--alpha", "2", "--radius", "3",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
        errors = [line for line in lines if line.startswith("[ERROR]")]
        assert len(errors) == 1
        assert errors[0].startswith("[ERROR] numerical failure: oscillator "
                                    "state is not finite at t=")
        assert "osc_step" in errors[0] and lines[-1] == "[SUMMARY] FAIL"
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("step,horizon", [("7", "1"), ("0.3", "1"),
                                              ("0.3", "300")])
    def test_oscillator_step_not_dividing_the_runs_rejected(self, tmp_path,
                                                            capsys, step,
                                                            horizon):
        # the sweep runs to the horizon, the sample trajectories to
        # min(horizon, 250); 0.3 divides 300 but not 250
        code = main(["run", "--preset", "oscillator", "--samples", "8",
                     "--osc-step", step, "--horizon", horizon,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "osc_step" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_diagnostics_hold_every_window_deterministically(self, tmp_path):
        for name in ("a", "b"):
            config = RunConfig(experiment="custom", out=str(tmp_path / name),
                               **FAST)
            assert run(config) == 0
        text = (tmp_path / "a" / "diagnostics.json").read_bytes()
        assert text == (tmp_path / "b" / "diagnostics.json").read_bytes()
        windows = json.loads(text)["picard"]["k=1"]
        assert [w["t_start"] for w in windows] == [0.0, 0.2]
        for w in windows:
            assert sorted(w) == sorted(cli.DIAGNOSTIC_FIELDS)
            assert w["iterations"] >= 1 and w["redone"] >= 0

    def test_oscillator_subcommand_damped(self, tmp_path):
        code = main(["run", "--preset", "oscillator", "--samples", "8",
                     "--radius", "1.0", "--horizon", "300",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "traces" / "oscillator_sweep.csv").exists()


class TestEnergyLawNoiseFloor:
    @staticmethod
    def check(energy, conservative: bool) -> str:
        e = np.asarray(energy, dtype=float)
        trace = EnergyTrace(times=0.1 * np.arange(len(e)), energy=e,
                            l2=np.ones(len(e)), h1=np.ones(len(e)))
        report = Report()
        _check_trace_energy_laws(report, trace, "k=1", conservative)
        return report.lines[0]

    @pytest.mark.parametrize("rise, line", [
        (1e-14, "[PASS] k=1 energy nonincreasing: max relative per-step "
                "increase below 1e-12"),
        (1e-8, "[PASS] k=1 energy nonincreasing: max relative per-step "
               "increase 1.00e-08"),
        (2e-6, "[FAIL] k=1 energy nonincreasing: max relative per-step "
               "increase 2.00e-06")])
    def test_per_step_increase(self, rise, line):
        assert self.check([1.0, 0.9, 0.9 + rise], conservative=False) == line

    @pytest.mark.parametrize("drift, line", [
        (-1e-14, "[PASS] k=1 energy conserved: max relative drift below 1e-12"),
        (2e-9, "[FAIL] k=1 energy conserved: max relative drift 2.00e-09")])
    def test_conservative_drift(self, drift, line):
        assert self.check([1.0, 1.0 + drift, 1.0], conservative=True) == line


class TestTraceWriter:
    def test_bytes_equal_per_value_format(self, tmp_path):
        # the one-format writer against f"{v:.17g}" value by value
        awkward = [5e-324, 2.2250738585072014e-308 / 3, -0.0, 0.0, 3.0, -7.0,
                   1e300, -1e300, 1e16, 0.1, 1 / 3, np.pi, np.inf, -np.inf,
                   np.nan, 123456789012345.67]
        columns = [np.array(awkward), np.array(awkward[::-1]),
                   np.arange(len(awkward)), np.array(awkward) * -2.5]
        path = tmp_path / "t.csv"
        cli.write_columns_csv(path, ["a", "b", "c", "d"], columns)
        expected = "a,b,c,d\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))
        assert path.read_bytes() == expected.encode()


class TestEmitPlot:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg", title="t")
        with pytest.raises(ValueError):
            emit_plot([("a", [], [])], tmp_path / "x.svg", title="t")

    def test_constant_trace(self, tmp_path):
        path = emit_plot([("flat", [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])],
                         tmp_path / "flat.svg", title="constant")
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "polyline" in text

    def test_loglog_plot(self, tmp_path):
        t = np.linspace(10, 50, 100)
        path = emit_plot([("decay", t, 1.0 / t)], tmp_path / "ll.svg",
                         title="decay", logx=True, logy=True,
                         annotation="slope -1")
        assert "slope -1" in path.read_text()
