"""End-to-end tests of the command-line interface: exit codes, config
precedence, deterministic artifacts and plot output."""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mslevy import AlphaFunction, IntegrandFunction, cli, quasinorm
from mslevy.cli import main, write_svg
from mslevy.errors import ParameterError

import _oracles
from _oracles import PerDispatch, pinned


def run(argv):
    """Invoke the CLI, normalizing argparse's SystemExit into a return code."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


STEP_ALPHA = json.dumps({"kind": "piecewise", "breaks": [0.5], "values": [1.2, 1.8]})
CONST_ALPHA = json.dumps({"kind": "constant", "value": 1.5})
VERIFY_SUITES = ("all", "stable", "schemes", "continuous", "integrals", "localisability")


class TestUsageErrors:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_scheme(self):
        assert run(["simulate", "--scheme", "bogus"]) == 2
        # lr sums past the 2^n dyadic addresses, so it has no nested variant
        assert run(["simulate", "--scheme", "lr", "--nested", "--n", "3", "--seed", "1"]) == 2

    def test_unknown_suite(self):
        assert run(["verify", "--suite", "bogus", "--seed", "1"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["example1", "--n-max", "27"], "--n-max must be an integer in ["),
        (["simulate", "--scheme", "sn", "--n", "3", "--seed", "1", "--mesh-level", "27"],
         "--mesh-level must be an integer in ["),
        (["simulate", "--scheme", "sn", "--n", "3", "--seed", "1", "--levels", "27"],
         "--levels must be an integer in ["),
        (["simulate", "--scheme", "stable", "--alpha", CONST_ALPHA, "--seed", "1",
          "--n-terms", str(2 ** 26 + 1)], "--n-terms (default 2^n) must be an integer in ["),
        (["simulate", "--scheme", "stable", "--alpha", CONST_ALPHA, "--seed", "1",
          "--n", "27"], "must be at most"),
        (["condition7", "--x-points", str(2 ** 26 + 1)], "--x-points must be an integer in ["),
        (["simulate", "--seed", "1", "--n", "10", "--ensemble", str(2 ** 16 + 1)],
         "must be at most"),
    ], ids=["n_max", "mesh_level", "levels", "n_terms", "n_terms_default", "x_points",
            "ensemble_cells"])
    def test_oversized_array_flags_rejected(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_plot_requires_out(self, capsys):
        assert run(["simulate", "--n", "4", "--seed", "1", "--plot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "3", "--seed", "1"],
        ["example1", "--n-max", "6"],
        ["localize", "--ensemble", "1000", "--seed", "2"],
    ], ids=["simulate", "example1", "localize"])
    def test_plot_may_not_write_over_out(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--out", "x.svg", "--plot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--plot" in captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, flag", [
        (["localize", "--ensemble", "1000", "--seed", "2", "--plot"], "--plot"),
        (["example1", "--n-max", "6", "--plot"], "--plot"),
        (["localize", "--ensemble", "0"], "--ensemble"),
        (["localize", "--ensemble", "-5"], "--ensemble"),
        (["localize", "--ensemble", str(2 ** 26 + 1)], "--ensemble"),
        (["localize", "--ensemble", "9" * 400], "--ensemble"),
        (["simulate", "--seed", "1", "--ensemble", "0"], "--ensemble"),
        (["localize", "--tolerance", "-1"], "--tolerance"),
        (["localize", "--tolerance", "0"], "--tolerance"),
        (["localize", "--tolerance", "nan"], "--tolerance"),
        (["condition7", "--threshold", "nan"], "threshold"),
        (["condition7", "--threshold", "-1"], "threshold"),
        (["simulate", "--scheme", "sn", "--n", "3", "--seed", "1", "--mesh-level", "-60"],
         "--mesh-level"),
        (["example1", "--n-min", "5", "--n-max", "4"], "--n-min"),
        (["condition7", "--x-points", "0"], "--x-points"),
    ], ids=["localize_plot", "example1_plot", "localize_ensemble_0",
            "localize_ensemble_neg", "localize_ensemble_cap", "localize_ensemble_huge",
            "simulate_ensemble_0", "localize_tol_neg", "localize_tol_0", "localize_tol_nan",
            "condition7_threshold_nan", "condition7_threshold_neg", "simulate_mesh_level_neg",
            "example1_n_min_above_n_max", "condition7_x_points_0"])
    def test_shared_checks_run_before_any_output(self, argv, flag, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and flag in captured.err

    def test_failed_allocation_is_a_usage_error(self, monkeypatch, capsys):
        """A run that cannot allocate exits 2, never 1 (a failed verification)."""
        def no_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")
        monkeypatch.setattr(cli, "sample_stable", no_memory)
        assert run(["verify", "--suite", "stable", "--seed", "1", "--ensemble", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot allocate" in captured.err


# each command's flags in the order its help lists them
COMMAND_FLAGS = {
    "simulate": ["--help", "--config", "--out", "--seed", "--alpha", "--plot", "--scheme",
                 "--n", "--ensemble", "--nested", "--d", "--levels", "--mesh-level",
                 "--weight", "--n-terms"],
    "verify": ["--help", "--config", "--out", "--seed", "--alpha", "--suite", "--n",
               "--ensemble", "--tolerance"],
    "norm": ["--help", "--config", "--out", "--alpha", "--table"],
    "localize": ["--help", "--config", "--out", "--seed", "--alpha", "--plot", "--x", "--u",
                 "--n", "--ensemble", "--r-list", "--tolerance"],
    "condition7": ["--help", "--config", "--out", "--alpha", "--threshold", "--x-points",
                   "--lags"],
    "example1": ["--help", "--config", "--out", "--plot", "--b", "--u", "--theta", "--n-min",
                 "--n-max"],
}
COMMANDS = tuple(COMMAND_FLAGS)


def declared(argv, command):
    """The help text of ``command`` and each of its actions' option strings,
    dest, default, type, choices and help, as ``_build_parser(argv)``
    declares them."""
    sub = cli._build_parser(argv)[1][command]
    return sub.format_help(), [(a.option_strings, a.dest, a.default, a.type, a.choices, a.help)
                               for a in sub._actions]


class TestParser:
    """Flags are declared only for the command argv[0] names; every parser a
    user reaches is the one that declaring all six commands builds."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_declares_what_all_six_do(self, command):
        assert declared([command], command) == declared([], command)
        assert declared(["bogus"], command) == declared([], command)
        assert [flags[-1] for flags, *_ in declared([command], command)[1]] == \
            COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_parses_as_all_six_do(self, command):
        one = cli._build_parser([command])[0].parse_args([command])
        assert one == cli._build_parser([])[0].parse_args([command])
        assert one.func is getattr(cli, f"_cmd_{command}")

    def test_the_other_commands_get_only_help(self):
        for command in COMMANDS[1:]:
            assert [a.dest for a in cli._build_parser(["simulate"])[1][command]._actions] == \
                ["help"]

    @pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in COMMANDS)])
    def test_help_exits_0(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {' '.join(['mslevy', *argv[:-1]])} ")
        if len(argv) == 1:
            assert all(command in out for command in COMMANDS)
        else:
            assert "--config" in out and "--out" in out

    def test_an_unknown_command_exits_2_naming_all_six(self, capsys):
        assert run(["bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'bogus'" in captured.err
        assert all(repr(command) in captured.err for command in COMMANDS)


class TestSimulate:
    def test_stdout_layout_and_determinism(self, capsys):
        assert run(["simulate", "--scheme", "li", "--n", "4", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert run(["simulate", "--scheme", "li", "--n", "4", "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.splitlines()
        assert lines[0].startswith("# ")
        meta = json.loads(lines[0][2:])
        assert meta["seed"] == 9 and meta["n"] == 4 and meta["scheme"] == "li"
        assert lines[1] == "t,value"
        assert len(lines) == 2 + 17

    def test_seed_changes_the_path(self, capsys):
        run(["simulate", "--n", "4", "--seed", "1"])
        a = capsys.readouterr().out
        run(["simulate", "--n", "4", "--seed", "2"])
        b = capsys.readouterr().out
        assert a.splitlines()[2:] != b.splitlines()[2:]

    @pytest.mark.parametrize("scheme", ["lr", "lc", "sn", "weighted"])
    def test_other_schemes_run(self, scheme, capsys):
        assert run(["simulate", "--scheme", scheme, "--n", "3", "--seed", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) >= 4

    def test_stable_scheme_needs_constant_alpha(self, capsys):
        assert run(["simulate", "--scheme", "stable", "--n", "3", "--seed", "5"]) == 2
        assert run(["simulate", "--scheme", "stable", "--n", "3", "--seed", "5",
                    "--alpha", CONST_ALPHA]) == 0
        capsys.readouterr()

    def test_ensemble_first_replicate_matches_single_run(self, capsys):
        run(["simulate", "--n", "4", "--seed", "3", "--ensemble", "2"])
        ens_rows = [r for r in capsys.readouterr().out.splitlines()[2:] if r.endswith(",0")]
        run(["simulate", "--n", "4", "--seed", "3"])
        single_rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.rsplit(",", 1)[0] for r in ens_rows] == single_rows

    def test_out_file_matches_stdout_data(self, tmp_path, capsys):
        target = tmp_path / "path.csv"
        assert run(["simulate", "--n", "4", "--seed", "9", "--out", str(target)]) == 0
        capsys.readouterr()
        run(["simulate", "--n", "4", "--seed", "9"])
        stdout_rows = capsys.readouterr().out.splitlines()[1:]
        file_rows = target.read_text().splitlines()[1:]
        assert stdout_rows == file_rows

    def test_plot_writes_svg_with_embedded_config(self, tmp_path):
        target = tmp_path / "path.csv"
        assert run(["simulate", "--n", "4", "--seed", "9", "--out", str(target),
                    "--plot"]) == 0
        svg = (tmp_path / "path.svg").read_text()
        assert svg.startswith("<svg")
        assert "<desc>" in svg
        assert '"seed": 9' in svg
        assert svg.count("<polyline") == 1


# command -> (argv, config file, key a flag then overrides, the flag's value)
CONFIG_CASES = {
    "simulate": ([], {"n": 5, "seed": 4, "scheme": "lc"}, "n", 4),
    "verify": (["--suite", "stable"], {"ensemble": 1000, "seed": 4}, "seed", 6),
    "norm": (["--table", "0.5,2"], {"alpha": {"kind": "constant", "value": 1.5}},
             "table", "1,3"),
    "localize": (["--n", "6", "--r-list", "0.25,0.125"],
                 {"ensemble": 1000, "seed": 4, "tolerance": 0.5}, "seed", 6),
    "condition7": ([], {"threshold": 0.01, "x_points": 65}, "x_points", 33),
    "example1": (["--n-max", "6"], {"b": 1.5, "theta": 2.0}, "theta", 0.5),
}


def recorded_config(path):
    """The resolved configuration an artifact embeds."""
    text = path.read_text()
    if path.suffix == ".csv":
        meta = json.loads(text.splitlines()[0][2:])
        return {k: v for k, v in meta.items() if k not in ("command", "format")}
    return json.loads(text)["config"]


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "seed": 4}))
        assert run(["simulate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 33

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "seed": 4}))
        assert run(["simulate", "--config", str(cfg), "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 17
        assert json.loads(lines[0][2:])["seed"] == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "sede": 4}))
        assert run(["simulate", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(CONFIG_CASES))
    def test_every_subcommand_layers_flags_over_file_over_defaults(
            self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv, file_cfg, key, flag_value = CONFIG_CASES[command]
        out = "o.csv" if command == "simulate" else "o.json"
        (tmp_path / "cfg.json").write_text(json.dumps(file_cfg))
        configs = []
        for extra in ([], ["--config", "cfg.json"],
                      ["--config", "cfg.json", f"--{key.replace('_', '-')}", str(flag_value)]):
            assert run([command, *argv, "--out", out, *extra]) in (0, 1)
            configs.append(recorded_config(tmp_path / out))
        defaults, from_file, flagged = configs
        assert from_file == {**defaults, **file_cfg}
        assert flagged == {**from_file, key: flag_value}
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(CONFIG_CASES))
    @pytest.mark.parametrize("bad", ["bogus", "config", "func"])
    def test_every_subcommand_rejects_unknown_keys(self, command, bad, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({bad: 1}))
        assert run([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown config keys: {bad}" in captured.err

    def test_string_values_go_through_the_flag_type(self, tmp_path, capsys):
        """A JSON string for a typed flag is converted as the flag is: "5" is
        recorded as the integer 5, and "x" is a usage error."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "5", "seed": "4"}))
        assert run(["simulate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        meta = json.loads(lines[0][2:])
        assert (meta["n"], meta["seed"]) == (5, 4) and len(lines) == 2 + 33
        cfg.write_text(json.dumps({"n": "x"}))
        assert run(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid int value" in captured.err

    @pytest.mark.parametrize("command, file_cfg, flag", [
        ("simulate", {"n": 5.5, "seed": 1}, "--n"),
        ("simulate", {"n": True}, "--n"),
        ("simulate", {"n": None}, "--n"),
        ("simulate", {"d": [1.0], "scheme": "sn"}, "--d"),
        ("verify", {"ensemble": [1000], "suite": "stable"}, "--ensemble"),
        ("verify", {"tolerance": {"value": 0.1}, "suite": "stable"}, "--tolerance"),
        ("condition7", {"x_points": 65.0}, "--x-points"),
    ], ids=["n_float", "n_bool", "n_null", "d_list", "ensemble_list", "tolerance_dict",
            "x_points_float"])
    def test_typed_values_go_through_the_flag_type(self, command, file_cfg, flag,
                                                   tmp_path, capsys):
        """A config value for a typed flag is converted as the flag's text
        would be, so a wrong JSON type is a usage error, not a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}: invalid" in captured.err

    def test_untyped_and_null_values_keep_their_json_value(self, tmp_path, monkeypatch,
                                                          capsys):
        """Numbers of the flag's type, null where the default is null, and
        the values of flags without a type are recorded as they are."""
        monkeypatch.setenv("MSLEVY_SEED", "3")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "seed": None, "nested": False, "levels": None,
                                   "weight": [1, 2], "scheme": "weighted"}))
        assert run(["simulate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        meta = json.loads(lines[0][2:])
        assert (meta["n"], meta["seed"], meta["nested"], meta["levels"], meta["weight"]) \
            == (5, 3, False, None, [1, 2]) and len(lines) == 2 + 33
        cfg.write_text(json.dumps({"tolerance": 0.01, "ensemble": 1000, "seed": 1}))
        assert run(["verify", "--suite", "stable", "--config", str(cfg)]) in (0, 1)
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["tolerance"], config["ensemble"]) == (0.01, 1000)

    def test_seed_env_fallback_and_flag_override(self, monkeypatch, capsys):
        monkeypatch.setenv("MSLEVY_SEED", "77")
        run(["simulate", "--n", "3"])
        meta = json.loads(capsys.readouterr().out.splitlines()[0][2:])
        assert meta["seed"] == 77
        run(["simulate", "--n", "3", "--seed", "5"])
        meta = json.loads(capsys.readouterr().out.splitlines()[0][2:])
        assert meta["seed"] == 5

    def test_invalid_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MSLEVY_SEED", "seven")
        assert run(["simulate", "--n", "3"]) == 2
        assert "error:" in capsys.readouterr().err


class TestNorm:
    def test_prints_the_quasinorm_at_full_precision(self, capsys):
        assert run(["norm", "--table", "0.5,2.0,1.0"]) == 0
        printed = capsys.readouterr().out.strip()
        expected = quasinorm(IntegrandFunction.from_table([0.5, 2.0, 1.0]),
                             AlphaFunction.linear(1.2, 0.6))
        assert printed == repr(expected)

    def test_requires_a_table(self, capsys):
        assert run(["norm"]) == 2
        assert "error:" in capsys.readouterr().err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "3", "--seed", "1",
         "--alpha", '{"kind": "table", "values": [1.2, NaN, 1.5]}'],
        ["simulate", "--scheme", "weighted", "--n", "3", "--seed", "1",
         "--weight", "1,nan,2"],
        ["norm", "--table", "1,nan,3"],
    ], ids=["alpha_table", "weight", "norm_table"])
    def test_rejected_before_any_output(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "finite" in captured.err


class TestVerify:
    def test_stable_suite_passes_and_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "stable", "--seed", "11",
                    "--out", str(out)]) == 0
        first = out.read_bytes()
        report = json.loads(first)
        assert report["all_pass"] is True
        names = [item["name"] for item in report["items"]]
        assert names == sorted(names)
        assert all(item["passed"] for item in report["items"])
        assert run(["verify", "--suite", "stable", "--seed", "11",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == first
        capsys.readouterr()

    def test_integrals_suite(self, capsys):
        assert run(["verify", "--suite", "integrals", "--seed", "11",
                    "--ensemble", "1500"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True

    @pytest.mark.parametrize("argv", [
        ["--suite", suite, "--ensemble", "999"] for suite in VERIFY_SUITES
    ] + [["--suite", "stable", "--tolerance", tol] for tol in ("0", "-0.1", "nan")]
      + [["--ensemble", ens] for ens in (str(2 ** 26 + 1), "1000000000")],
        ids=[f"ensemble_999_{s}" for s in VERIFY_SUITES] + ["tol_0", "tol_neg", "tol_nan"]
        + ["ensemble_cap", "ensemble_1e9"])
    def test_rejected_before_any_suite_runs(self, argv, capsys):
        assert run(["verify", "--seed", "1"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


# (passed, value) of every item of `verify --suite all --seed 7 --ensemble
# 1000` as read from the report before every item shared one schema: the
# deviation, worst violation, distance or final deviation each item was held
# to; for dependent_overlap its threshold; for pairwise_thirds the largest
# overlap; for tightness the largest empirical/bound ratio.  Values that
# differ in the last bit between numpy's AVX-512 and AVX2 pow are pinned
# for each (see _oracles.pinned).
VERIFY_SEED_7 = {
    "continuous.boundary_marginal_cf": (True, PerDispatch(avx512=0.04829577615486103,
                                                          avx2=0.0482957761548611)),
    "continuous.level_increment_identity": (True, PerDispatch(avx512=9.71445146547012e-17,
                                                              avx2=8.326672684688674e-17)),
    "continuous.scale_bounds": (True, 0.0),
    "continuous.scale_pins": (True, 0.0),
    "integrals.dependent_overlap": (True, 0.12649110640673517),
    "integrals.hoelder_energy_identity": (True, 0.0),
    "integrals.independent_disjoint": (True, PerDispatch(avx512=0.05562780950812961,
                                                         avx2=0.05562780950812957)),
    "integrals.pairwise_thirds": (True, 0.0),
    "integrals.quasinorm_closed_form": (True, 2.7911006839076435e-13),
    "localisability.linear_trend": (True, PerDispatch(avx512=0.029975278900046108,
                                                      avx2=0.02997527890004612)),
    "schemes.agreement_li_lc": (True, PerDispatch(avx512=0.05162650705627412,
                                                  avx2=0.05162650705627423)),
    "schemes.agreement_li_lr": (True, PerDispatch(avx512=0.09865934734482643,
                                                  avx2=0.098659347344826)),
    "schemes.agreement_lr_lc": (True, PerDispatch(avx512=0.07299020884368505,
                                                  avx2=0.07299020884368507)),
    "schemes.increment_li[0.0,1.0]": (True, PerDispatch(avx512=0.04930751577028565,
                                                        avx2=0.04930751577028561)),
    "schemes.increment_li[0.25,0.75]": (True, PerDispatch(avx512=0.036165269950231324,
                                                          avx2=0.03616526995023129)),
    "schemes.tightness": (True, 0.008894097607842842),
    "stable.billingsley_exponential": (True, 0.0),
    "stable.cf_match[0.8]": (True, PerDispatch(avx512=0.04917812173008604,
                                               avx2=0.04917812173008603)),
    "stable.cf_match[1.5]": (True, PerDispatch(avx512=0.0539012828497697,
                                               avx2=0.053901282849769694)),
    "stable.cf_match[2.0]": (True, 0.03565422748773049),
    "stable.normalizer_at_one": (True, 0.0),
}
# Items whose verdict comes from a library report; every other item passes
# iff value < limit.
REPORT_VERDICTS = {
    "continuous.boundary_marginal_cf", "integrals.dependent_overlap",
    "integrals.independent_disjoint", "integrals.pairwise_thirds",
    "localisability.linear_trend", "schemes.increment_li[0.0,1.0]",
    "schemes.increment_li[0.25,0.75]", "schemes.tightness",
    "stable.cf_match[0.8]", "stable.cf_match[1.5]", "stable.cf_match[2.0]",
}


@pytest.fixture(scope="module")
def verify_reports(tmp_path_factory):
    """`verify --suite all --seed 7 --ensemble 1000`, once as it is and once
    with a tolerance that fails two agreement items: (exit code, report)."""
    reports = {}
    for key, extra in (("default", []), ("tight", ["--tolerance", "0.06"])):
        out = tmp_path_factory.mktemp("verify") / "report.json"
        rc = run(["verify", "--suite", "all", "--seed", "7", "--ensemble", "1000",
                  "--out", str(out)] + extra)
        reports[key] = (rc, json.loads(out.read_text()))
    return reports


class TestVerifyItems:
    def test_names_verdicts_and_values_are_the_pinned_ones(self, verify_reports):
        rc, report = verify_reports["default"]
        assert rc == 0 and report["all_pass"] is True
        got = {item["name"]: (item["passed"], item["value"]) for item in report["items"]}
        assert got == {name: (passed, pinned(value))
                       for name, (passed, value) in VERIFY_SEED_7.items()}

    @pytest.mark.parametrize("key", ["default", "tight"])
    def test_one_schema_with_margin(self, verify_reports, key):
        for item in verify_reports[key][1]["items"]:
            assert set(item) - {"detail"} == {"name", "passed", "value", "limit", "margin"}
            assert item["margin"] == item["value"] / item["limit"]
            if item["name"] not in REPORT_VERDICTS:
                assert item["passed"] == (item["value"] < item["limit"]), item["name"]

    def test_tolerance_sets_the_limit_of_the_items_it_overrides(self, verify_reports):
        rc, report = verify_reports["tight"]
        items = {item["name"]: item for item in report["items"]}
        failed = sorted(name for name, item in items.items() if not item["passed"])
        assert failed == ["schemes.agreement_li_lr", "schemes.agreement_lr_lc"]
        assert rc == 1 and report["all_pass"] is False
        for name, item in items.items():
            overridden = (name.startswith(("stable.cf_match", "schemes.increment",
                                           "schemes.agreement"))
                          or name in ("continuous.boundary_marginal_cf",
                                      "localisability.linear_trend"))
            assert (item["limit"] == 0.06) == overridden, name
            assert item["value"] == pinned(VERIFY_SEED_7[name][1])

    def test_dependent_overlap_holds_the_threshold_under_the_distance(self, verify_reports):
        item = {i["name"]: i for i in verify_reports["default"][1]["items"]}[
            "integrals.dependent_overlap"]
        assert item["value"] < item["limit"] and item["detail"] == {"overlap": 1.0}


class TestCondition7:
    def test_smooth_exponent_satisfied(self, tmp_path, capsys):
        out = tmp_path / "c7.json"
        assert run(["condition7", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["verdict"] == "satisfied"
        capsys.readouterr()

    def test_step_exponent_violated(self, capsys):
        assert run(["condition7", "--alpha", STEP_ALPHA]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] == "violated"


class TestExample1:
    def test_divergent_exponent_series(self, capsys):
        assert run(["example1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,exponent"
        values = [float(row.split(",")[1]) for row in lines[1:]]
        assert len(values) == 17
        assert all(a < b for a, b in zip(values, values[1:]))


class TestLocalize:
    def test_smooth_exponent_passes(self, tmp_path, capsys):
        out = tmp_path / "loc.json"
        assert run(["localize", "--n", "12", "--ensemble", "2000", "--seed", "72",
                    "--r-list", "0.25,0.125,0.03125,0.0078125",
                    "--tolerance", "0.2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["passed"] is True
        capsys.readouterr()


# The config file the "config" runs read; a flag overrides its n.
ARTIFACT_CONFIG = {"n": 5, "seed": 4, "scheme": "lc"}
ARTIFACT_RUNS = {
    "simulate_li": ["simulate", "--scheme", "li", "--n", "5", "--seed", "3", "--out", "a.csv"],
    "simulate_lr": ["simulate", "--scheme", "lr", "--n", "5", "--seed", "3", "--out", "a.csv"],
    "simulate_lc": ["simulate", "--scheme", "lc", "--n", "5", "--seed", "3", "--out", "a.csv"],
    "simulate_sn": ["simulate", "--scheme", "sn", "--n", "4", "--seed", "3", "--out", "a.csv"],
    "simulate_stable": ["simulate", "--scheme", "stable", "--alpha", CONST_ALPHA, "--n", "5",
                        "--seed", "3", "--out", "a.csv"],
    "simulate_weighted": ["simulate", "--scheme", "weighted", "--weight", "1,2,0.5", "--n", "5",
                          "--seed", "3", "--out", "a.csv"],
    "simulate_ensemble_plot": ["simulate", "--n", "4", "--ensemble", "3", "--seed", "3",
                               "--plot", "--out", "a.csv"],
    "verify_stable": ["verify", "--suite", "stable", "--seed", "5", "--ensemble", "1000",
                      "--out", "r.json"],
    "verify_integrals": ["verify", "--suite", "integrals", "--seed", "5", "--ensemble", "1000",
                         "--out", "r.json"],
    "norm": ["norm", "--table", "0.5,2.0,1.0", "--out", "q.json"],
    "localize_plot": ["localize", "--n", "8", "--ensemble", "1000", "--seed", "2",
                      "--r-list", "0.25,0.125", "--plot", "--out", "l.json"],
    "condition7_step": ["condition7", "--alpha", STEP_ALPHA, "--out", "c.json"],
    "example1_plot": ["example1", "--n-max", "8", "--plot", "--out", "e.json"],
    "config": ["simulate", "--config", "cfg.json", "--out", "a.csv"],
    "config_flag_override": ["simulate", "--config", "cfg.json", "--n", "4", "--out", "a.csv"],
}
# (exit code, sha256 of every file the run writes), recorded before each flag
# carried its own default and the config file became the subcommand's defaults;
# a file holding values of np.power has one digest per pow dispatch.
ARTIFACT_DIGESTS = {
    "simulate_li": (0, {
        "a.csv": PerDispatch(
            avx512="15a15977dc8d6968e17c129cd952dcd339769abad8a94997f53a544e9faa381a",
            avx2="277adcf2829f39921a48acba3dcec11f60c1f2daf260377dc3be8ec4c65993cd")}),
    "simulate_lr": (0, {
        "a.csv": PerDispatch(
            avx512="d2e67f26d299776c15564a24c59d94d8fcda66b9ff7a8c4414940d703746e261",
            avx2="f5290700d1b915a53ee14d22671aaac4a23638b3a068dd83afcb7d3c8eda476b")}),
    "simulate_lc": (0, {
        "a.csv": "eee5e978f07b6c41daf6fd4eff593fd8a8e77e0f81d22f293479f0ad1fcef668"}),
    "simulate_sn": (0, {
        "a.csv": PerDispatch(
            avx512="f7c9091861014401d65848baf29f2d19c5aebae00b57b115c087fc9efc3f98d3",
            avx2="a7e04c49d55d5b1fe6b5ed6f6d2143e12cfeec63664a55cb9addcc1045ec049a")}),
    "simulate_stable": (0, {
        "a.csv": PerDispatch(
            avx512="91c8d939acb405fabcdb197f18075da7d7423572f28dfc80f01aa4315dd473c8",
            avx2="7f1f83fe98bc14f1c0bf50a43ace48260922390ff1802fd6a95df57d73933a3f")}),
    "simulate_weighted": (0, {
        "a.csv": PerDispatch(
            avx512="d69c1c7b6f3bb07b0a9694556c87e9635781cbfe404b494c8405e164980fa759",
            avx2="751d1d7fcf85158d7b208fd37d7cd3da4fc71b2c61697b22e991ad1f83ef6dc5")}),
    "simulate_ensemble_plot": (0, {
        "a.csv": PerDispatch(
            avx512="e44c41e186ee51a1336253f7afe747058ed1417c1db3e6780e4e42518dca0038",
            avx2="62c7aa3744708acfe038d18a12e15390d6b14bcea97ac565a113ca73857f6eb4"),
        "a.svg": "52c95fdae2789e9142bda011ae1bf6b22f41d7f154ec65ebfc5723b5d8642729"}),
    "verify_stable": (0, {
        "r.json": PerDispatch(
            avx512="adf86ec53876b4f5a164f53ec1d8375d404adb0ab90a5cfc898eab56b556b741",
            avx2="32004ef9615b5e462bfd268f3d9d10846cd1dafa88733cda33ec66c2b875b079")}),
    "verify_integrals": (0, {
        "r.json": PerDispatch(
            avx512="07efb290b413345332fa1bb5a0f2e267e67eb7f2a9646d348add80a3bc4e26e3",
            avx2="c52719256f547084752813dc4e2d8a306e1db5a2f5df5687af194249ecaf2bf3")}),
    "norm": (0, {
        "q.json": "c070d96bdde456173c827f9d3ce8b3f78df7bf17d9702d51ee55a945a7d3ebcb"}),
    "localize_plot": (0, {
        "l.json": PerDispatch(
            avx512="7088c2b4fdb6cf9c004d93b0b1e6679ff151ea0fd7b7d8ce04decd7a96a4bfce",
            avx2="2bdc25c705cc2a74699327b8f63a5bb4d602eb1d5c819300f081caacb91609d9"),
        "l.svg": PerDispatch(
            avx512="a67c8ae0e9458eb6be6008eae7c5bea59be01563bd5e129df681111e6a124e47",
            avx2="3d54c9695b241e64d0f1ddb1dbd11e4786609b25839eda1a6b875ba978c98bfd")}),
    "condition7_step": (1, {
        "c.json": "46c818eb9b7b84e21f02e1e89628b53c83938eab78d5cc5911d9b767dc9aedea"}),
    "example1_plot": (0, {
        "e.json": "47e36192efac24465c3abd3c8b114b836cde1ef2fc42f0aa2c86cb9b823b36b9",
        "e.svg": "199944ad9be2765da449a2a86b43dd8ab7bbe665a67d71c4215250ddd09d87d0"}),
    "config": (0, {
        "a.csv": PerDispatch(
            avx512="ebf1c04b9a98675579d884438a997a08b654137723fdda4275052a2eadbfa1b4",
            avx2="8f54a6df4979a2bdb2fbb6f0478b023f5c09d29fc45a0b1681ce89a087fd65d6")}),
    "config_flag_override": (0, {
        "a.csv": PerDispatch(
            avx512="baea1250f96d247bad9cbfa4451dfce0c66d852658fe9b877e3e5ce76ab9ca21",
            avx2="639a8af48249e535f65f682b111ad1bc2004ba14b06df7a8ae1d52a260805242")}),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_RUNS))
def test_artifact_bytes_are_the_pinned_ones(name, tmp_path, monkeypatch, capsys):
    """Relative --out names, because the SVG <desc> embeds the --out path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(ARTIFACT_CONFIG))
    rc, digests = ARTIFACT_DIGESTS[name]
    assert run(ARTIFACT_RUNS[name]) == rc
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p.name != "cfg.json"}
    assert got == {f: pinned(digest) for f, digest in digests.items()}
    capsys.readouterr()


def test_an_unknown_pow_dispatch_fails_naming_its_probe(monkeypatch):
    monkeypatch.setattr(_oracles, "pow_probe", lambda: "0123456789abcdef")
    assert pinned(1.5) == 1.5
    with pytest.raises(pytest.fail.Exception, match="probe 0123456789abcdef"):
        pinned(PerDispatch(avx512=1.0, avx2=2.0))


def svg_text(writer, series, **kwargs):
    fp = io.StringIO()
    writer(fp, series, **kwargs)
    return fp.getvalue()


NAN, INF = float("nan"), float("inf")
SVG_GRID = np.arange(4097) / 4096
SVG_WALKS = np.cumsum(np.random.default_rng(3).standard_cauchy((8, 4097)), axis=1)
SVG_CASES = {
    "ensemble": [(SVG_GRID, walk, f"replicate {r}") for r, walk in enumerate(SVG_WALKS)],
    "non_finite": [([0.0, 0.1, NAN, 0.3, 0.4, INF], [1.0, -INF, 2.0, NAN, -1.5, 3.0], "a"),
                   ([NAN, NAN], [1.0, 2.0], "b"), ([0.5, 0.6], [0.25, -7.0], "")],
    "flat": [([0.0, 0.5, 1.0], [2.0, 2.0, 2.0], "")],
    "one_point": [([0.3], [-4.0], "p")],
    "signed_zeros": [([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], ""),
                     ([-0.0, 0.0], [0.0, -0.0], "")],
    "signed_zeros_first_negative": [([-0.0, 0.0, 1.0], [-0.0, 0.0, 2.0], "")],
    "unequal_lengths": [([0.0, 0.25, 0.5, 0.75], [1.0, 3.0], "x")],
    "more_series_than_colours": [([0.0, 1.0], [float(r), r + 0.5], f"<{r}&>")
                                 for r in range(10)],
}
FLOATS = st.floats(width=64) | st.sampled_from([0.0, -0.0, NAN, INF, -INF])


class TestWriteSvg:
    """The array writer gives the bytes of the point-by-point oracle."""

    @pytest.mark.parametrize("case", sorted(SVG_CASES))
    def test_bytes_match_the_point_by_point_writer(self, case):
        series = SVG_CASES[case]
        meta = {"seed": 9, "scheme": "lr", "note": "a<b & c>d"}
        want = svg_text(_oracles.write_svg, series, title="t <&>", meta=meta)
        assert svg_text(write_svg, series, title="t <&>", meta=meta) == want
        assert svg_text(write_svg, series) == svg_text(_oracles.write_svg, series)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf
    @given(st.lists(st.lists(st.tuples(FLOATS, FLOATS), max_size=12), min_size=1, max_size=4))
    def test_bytes_match_on_any_points(self, points):
        series = [([p[0] for p in pts], [p[1] for p in pts], "") for pts in points]
        try:
            want = svg_text(_oracles.write_svg, series)
        except ValueError:  # no finite point
            with pytest.raises(ParameterError):
                svg_text(write_svg, series)
            return
        assert svg_text(write_svg, series) == want

    def test_no_finite_point_is_rejected(self):
        with pytest.raises(ParameterError):
            svg_text(write_svg, [([0.0, float("nan")], [float("inf"), 1.0], "")])


# artifact run -> the files it writes in the working directory
OVERWRITE_RUNS = {
    "simulate_csv": (["simulate", "--n", "6", "--seed", "5", "--out", "a.csv"], ("a.csv",)),
    "verify_json": (["verify", "--suite", "stable", "--seed", "5", "--ensemble", "1000",
                     "--out", "r.json"], ("r.json",)),
    "simulate_plot_svg": (["simulate", "--scheme", "lr", "--n", "4", "--ensemble", "2",
                           "--seed", "5", "--plot", "--out", "p.csv"], ("p.csv", "p.svg")),
}


class TestArtifactWriter:
    """Artifacts are rewritten in place, without O_TRUNC, and cut to length."""

    @pytest.mark.parametrize("name", sorted(OVERWRITE_RUNS))
    def test_overwriting_a_longer_file_gives_the_fresh_bytes(self, name, tmp_path,
                                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv, files = OVERWRITE_RUNS[name]
        assert run(argv) == 0
        fresh = {f: (tmp_path / f).read_bytes() for f in files}
        for f in files:
            (tmp_path / f).write_bytes(b"stale\n" * (len(fresh[f]) // 3 + 1000))
        assert run(argv) == 0
        assert {f: (tmp_path / f).read_bytes() for f in files} == fresh
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "4", "--seed", "4"],
        ["verify", "--suite", "stable", "--seed", "1", "--ensemble", "1000"],
    ], ids=["simulate", "verify"])
    def test_dev_null_is_a_valid_out(self, argv, capsys):
        assert run(argv + ["--out", "/dev/null"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_a_fifo_out_receives_the_artifact(self, tmp_path, capsys):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        # a reader must be open before the writer's open returns; one small
        # CSV fits in the pipe buffer, so no second thread is needed
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(["simulate", "--n", "4", "--seed", "4", "--out", str(fifo)]) == 0
            got = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert run(["simulate", "--n", "4", "--seed", "4"]) == 0
        assert got.splitlines()[1:] == capsys.readouterr().out.splitlines()[1:]
        assert json.loads(got.splitlines()[0][2:])["out"] == str(fifo)

    def test_a_symlinked_out_writes_its_target(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"stale\n" * 1000)
        link.symlink_to(target)
        argv = ["simulate", "--n", "4", "--seed", "4", "--out", str(link)]
        assert run(argv) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        got = target.read_bytes()
        link.unlink()
        assert run(argv) == 0  # a fresh file at the same --out
        assert got == link.read_bytes()
        capsys.readouterr()

    def test_an_error_leaves_what_was_written_and_no_stale_tail(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("x" * 1000)
        with pytest.raises(RuntimeError, match="mid-write"):
            with cli._artifact(str(path)) as fh:
                fh.write("partial")
                raise RuntimeError("mid-write")
        assert path.read_text() == "partial"

    def test_no_artifact_is_opened_with_o_trunc(self, tmp_path, monkeypatch, capsys):
        """Truncating to zero on open makes an overwrite wait for the old
        blocks to be freed; every artifact goes through os.open without it."""
        monkeypatch.chdir(tmp_path)
        opened = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        files = set()
        for argv, written in OVERWRITE_RUNS.values():
            for _ in range(2):  # the second run overwrites
                assert run(argv) == 0
            files.update(written)
        artifact_opens = [(p, flags) for p, flags in opened if p in files]
        assert {p for p, _ in artifact_opens} == files
        assert len(artifact_opens) == 2 * len(files)
        assert not any(flags & os.O_TRUNC for _, flags in artifact_opens)
        capsys.readouterr()
