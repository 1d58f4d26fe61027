"""End-to-end tests of the command-line interface: exit codes, config
precedence, deterministic artifacts and plot output."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mslevy import AlphaFunction, IntegrandFunction, quasinorm
from mslevy.cli import main


def run(argv):
    """Invoke the CLI, normalizing argparse's SystemExit into a return code."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


STEP_ALPHA = json.dumps({"kind": "piecewise", "breaks": [0.5], "values": [1.2, 1.8]})


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

    def test_plot_requires_out(self, capsys):
        assert run(["simulate", "--n", "4", "--seed", "1", "--plot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


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
                    "--alpha", json.dumps({"kind": "constant", "value": 1.5})]) == 0
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
