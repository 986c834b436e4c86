import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaselab
from phaselab import cli, foliation, minimize, orbit
from phaselab.cli import KEYS, _parser, main
from phaselab.field import dump_csv, field_from_function, load_csv, sidecar_path, sup_distance
from phaselab.foliation import build_family
from phaselab.heteroclinic import logistic_profile

RELAX_CONFIG = """
[experiment]
seed = 7

[grid]
n = 1
kind = box
lo = -10
hi = 10
m = 20

[integrand]
name = allen-cahn

[initial]
kind = ramp

[relax]
max_iterations = 80000
gradient_tolerance = 5e-4
initial_step = 1e-4
log_every = 500

[minimality]
trials = 30
max_radius = 2.0
"""

FOLIATE_CONFIG = """
[experiment]
seed = 3

[grid]
n = 2
kind = box, periodic
lo = -20
hi = 20
period = 1
m = 25, 4

[foliate]
direction = 1, 0
b_min = -2
b_max = 2
count = 7
envelope_steps = 60
envelope_sample = 3

[tolerances]
order = 1e-8
foliation = 1e-6
match = 1e-3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRelaxCommand:
    def test_transition_layer_run(self, tmp_path):
        cfg = _write(tmp_path, "relax.ini", RELAX_CONFIG)
        out = tmp_path / "out"
        code = main(["relax", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        field = load_csv(out / "field.csv")
        target = field_from_function(
            field.axes, lambda p: logistic_profile(p[..., 0])
        )
        assert sup_distance(field, target) < 5e-4
        log = (out / "iterations.csv").read_text().splitlines()
        assert log[0] == "iteration,energy,grad_norm,step"
        energies = [float(line.split(",")[1]) for line in log[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        report = json.loads((out / "relax_report.json").read_text())
        assert report["passed"] is True
        minim = json.loads((out / "minimality.json").read_text())
        assert minim["passed"] is True

    def test_critical_start_needs_zero_iterations(self, tmp_path):
        cfg_text = RELAX_CONFIG.replace("kind = ramp", "kind = constant\nvalue = 0")
        cfg = _write(tmp_path, "relax0.ini", cfg_text)
        out = tmp_path / "out0"
        code = main(["relax", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "relax_report.json").read_text())
        assert report["iterations"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "relax.ini", RELAX_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["relax", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(
                {
                    f.name: f.read_bytes()
                    for f in sorted(out.iterdir())
                    if f.is_file()
                }
            )
        assert outs[0] == outs[1]

    def test_malformed_spacing_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.ini", RELAX_CONFIG.replace("m = 20", "m = 0.013"))
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: bad grid axis 1: box axis m must be an integer, got 0.013\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("m = 0.04", "bad grid axis 1: box axis m must be an integer, got 0.04"),
            ("m = 25.5", "bad grid axis 1: box axis m must be an integer, got 25.5"),
            ("h = 25", "unknown config key grid.h"),
            ("m = 20\nh = 25", "unknown config key grid.h"),
        ],
        ids=["spacing", "fraction", "h-only", "m-and-h"],
    )
    def test_points_per_unit_is_read_as_a_count(self, tmp_path, capsys, line, message):
        # a spacing is never mistaken for a count, nor a count for a spacing
        cfg = _write(tmp_path, "bad.ini", RELAX_CONFIG.replace("m = 20", line))
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x" / "field.csv").exists()

    def test_zero_log_every_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.ini", RELAX_CONFIG.replace("log_every = 500", "log_every = 0"))
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "bad relax options" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("max_iterations = 1.5", "max_iterations"),
            ("log_every = x", "log_every"),
        ],
        ids=["max-iterations", "log-every"],
    )
    def test_unparsable_relax_option_names_its_key_once(self, tmp_path, capsys, line, key):
        lines = [ln for ln in RELAX_CONFIG.splitlines() if not ln.startswith(f"{key} = ")]
        text = "\n".join(lines).replace("[relax]\n", f"[relax]\n{line}\n")
        cfg = _write(tmp_path, "bad.ini", text)
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for relax.{key}: ") and err.count("\n") == 1
        assert not (tmp_path / "x" / "field.csv").exists()

    @pytest.mark.parametrize(
        "command, text, flag, message",
        [
            (
                "relax",
                RELAX_CONFIG.replace("seed = 7", "seed = -1"),
                [],
                "bad value for experiment.seed: ",
            ),
            ("relax", RELAX_CONFIG, ["--seed", "-1"], "--seed "),
            # foliate draws no random numbers and has no --seed flag
            (
                "foliate",
                FOLIATE_CONFIG,
                ["--seed", "-1"],
                "phaselab: unrecognized arguments: --seed -1",
            ),
        ],
        ids=["relax-key", "relax-flag", "foliate-flag"],
    )
    def test_negative_seed_exits_one_before_running(
        self, tmp_path, capsys, command, text, flag, message
    ):
        cfg = _write(tmp_path, "run.ini", text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")] + flag)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["relax", "--config", str(tmp_path / "nope.ini")])
        assert code == 1

    @pytest.mark.parametrize("radius", ["nan", "inf", "0.3"])
    def test_bad_max_radius_exits_one(self, tmp_path, capsys, radius):
        text = RELAX_CONFIG.replace("max_radius = 2.0", f"max_radius = {radius}")
        cfg = _write(tmp_path, "bad.ini", text)
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "max_radius" in capsys.readouterr().err
        assert not (tmp_path / "x" / "field.csv").exists()

    def test_unknown_integrand_exits_one_unquoted(self, tmp_path, capsys):
        text = RELAX_CONFIG.replace("name = allen-cahn", "name = foo")
        cfg = _write(tmp_path, "bad.ini", text)
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: unknown integrand 'foo'; available: ['allen-cahn']\n"

    def test_zero_trials_exits_one_before_relaxing(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.ini", RELAX_CONFIG.replace("trials = 30", "trials = 0"))
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "trial" in capsys.readouterr().err
        assert list((tmp_path / "x").iterdir()) == []

    def test_diverged_solver_exits_one(self, tmp_path, capsys, monkeypatch):
        # no config is known to make relax diverge, so a stand-in raises
        def diverge(*args, **kwargs):
            raise minimize.EnergyDivergedError("energy is not finite at iteration 3")

        monkeypatch.setattr(minimize, "relax", diverge)
        cfg = _write(tmp_path, "relax.ini", RELAX_CONFIG)
        out = tmp_path / "out"
        assert main(["relax", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "solver error: energy is not finite at iteration 3\n"
        assert list(out.iterdir()) == []


class TestConfigKeys:
    def test_key_table_targets_library_keywords(self):
        for (section, key), (_, targets) in KEYS.items():
            for name, keyword in targets.items():
                params = inspect.signature(getattr(phaselab, name)).parameters
                assert keyword in params, f"{section}.{key} sets no {name}({keyword})"

    @pytest.mark.parametrize(
        "header, name",
        [
            ("[relax]\nmax_iteration = 10", "relax.max_iteration"),
            ("[relax]\nstep_rule = fixed", "relax.step_rule"),
            # a misspelled section is checked like a misspelled key
            ("[relx]", "relx.max_iterations"),
            ("[Relax]", "Relax.max_iterations"),
            # configparser copies [DEFAULT] into every section
            ("[DEFAULT]\nm = 25\n\n[relax]", "DEFAULT.m"),
        ],
    )
    def test_unknown_key_exits_one(self, tmp_path, capsys, header, name):
        cfg = _write(tmp_path, "bad.ini", RELAX_CONFIG.replace("[relax]", header))
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown config key {name}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "text",
        ["seed = 1\n" + RELAX_CONFIG, RELAX_CONFIG.replace("seed = 7", "seed = 7\nseed = 8")],
        ids=["no-section-header", "duplicate-key"],
    )
    def test_malformed_config_exits_one(self, tmp_path, capsys, text):
        cfg = _write(tmp_path, "bad.ini", text)
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "command, target",
        [("asymptote", "asymptotic_limit"), ("foliate", "envelope_identity_check")],
    )
    def test_order_and_radius_reach_analysis(self, tmp_path, monkeypatch, command, target):
        calls = []
        real = getattr(foliation, target)

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(foliation, target, recording)
        member_csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), member_csv)
        text = FOLIATE_CONFIG.replace("order = 1e-8", "order = 2e-8")
        text += "\n[scan]\nradius = 4\n\n[asymptote]\ndirection = -1, 0, 0\n"
        cfg = _write(tmp_path, "keys.ini", text)
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "asymptote":
            args += ["--field", str(member_csv)]
        assert main(args) == 0
        passed, kwargs = calls[0]
        assert kwargs["order_tol"] == 2e-8 and kwargs["radius"] == 4
        if command == "asymptote":
            # the sublattice below e_3 is written down, Z^2 x {0}, not enumerated
            gamma2 = passed[2]
            assert gamma2.dtype == np.int64
            assert gamma2.tolist() == [[1, 0, 0], [0, 1, 0]]


class TestBadInput:
    @pytest.mark.parametrize(
        "command, value, sidecar_m, b_range, message",
        [
            ("classify", "nan", None, None, "must be finite"),
            ("rigidity", "inf", None, None, "must be finite"),
            ("asymptote", "-inf", None, None, "must be finite"),
            ("classify", None, 5, None, "rows than grid nodes"),
            ("foliate", None, None, ("2", "-2"), "strictly increasing"),
            ("rigidity", None, None, ("1", "1"), "strictly increasing"),
            ("foliate", None, None, ("-2", "inf"), "parameter grid must be finite"),
            ("foliate", None, None, ("nan", "2"), "parameter grid must be finite"),
        ],
        ids=[
            "nan-csv",
            "inf-csv",
            "minus-inf-csv",
            "sidecar-m",
            "inverted-b",
            "empty-b",
            "inf-b-max",
            "nan-b-min",
        ],
    )
    def test_exits_one_with_message(
        self, tmp_path, capsys, command, value, sidecar_m, b_range, message
    ):
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        if value is not None:
            lines = csv.read_text().splitlines()
            lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
            csv.write_text("\n".join(lines) + "\n")
        if sidecar_m is not None:
            meta = json.loads(sidecar_path(csv).read_text())
            meta["axes"][1]["m"] = sidecar_m
            sidecar_path(csv).write_text(json.dumps(meta))
        text = FOLIATE_CONFIG + "\n[asymptote]\ndirection = -1, 0, 0\n"
        if b_range is not None:
            text = text.replace("b_min = -2", f"b_min = {b_range[0]}")
            text = text.replace("b_max = 2", f"b_max = {b_range[1]}")
        args = [command, "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out")]
        if command != "foliate":
            args += ["--field", str(csv)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "line, shown",
        [("m = inf", "inf"), ("m = nan", "nan"), ("m = 1e400", "inf"), ("m = 25, -inf", "-inf")],
        ids=["inf-m", "nan-m", "huge-m", "periodic-inf-m"],
    )
    def test_non_finite_resolution_exits_one(self, tmp_path, capsys, line, shown):
        text = FOLIATE_CONFIG.replace("m = 25, 4", line)
        args = ["foliate", "--config", str(_write(tmp_path, "bad.ini", text))]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        axis, kind = ("2", "periodic") if "," in line else ("1", "box")
        message = f"error: bad grid axis {axis}: {kind} axis m must be an integer, got {shown}\n"
        assert capsys.readouterr().err == message

    def test_grid_too_large_for_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        # numpy's refusal of the README 1-D config with n = 3 (4001^3 nodes);
        # raised here without allocating anything
        message = (
            "Unable to allocate 477. GiB for an array with shape (4001, 4001, 4001) "
            "and data type float64"
        )

        def refuse(cfg, axes):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "_build_initial", refuse)
        cfg = _write(tmp_path, "relax.ini", RELAX_CONFIG)
        assert main(["relax", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not any((tmp_path / "x").iterdir())

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("foliate", "foliate.envelope_sample", "0"),
            ("foliate", "foliate.envelope_sample", "-2"),
            ("foliate", "foliate.envelope_steps", "0"),
            ("foliate", "foliate.envelope_steps", "-1"),
            ("asymptote", "asymptote.tol", "nan"),
            ("asymptote", "asymptote.tol", "-1"),
            ("asymptote", "asymptote.classify_tol", "-1"),
            ("asymptote", "asymptote.tol", "inf"),
            ("rigidity", "tolerances.match", "inf"),
            ("asymptote", "asymptote.steps", "0"),
            ("asymptote", "asymptote.steps", "-3"),
            ("classify", "scan.radius", "0"),
            ("rigidity", "scan.radius", "0"),
            ("asymptote", "scan.radius", "0"),
        ],
    )
    def test_nonpositive_count_or_tolerance_exits_one(self, tmp_path, capsys, command, key, value):
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        section, name = key.split(".")
        lines = FOLIATE_CONFIG.splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith(f"{name} = "))
        text += "\n[asymptote]\ndirection = -1, 0, 0\n"
        if f"[{section}]\n" not in text:
            text += f"\n[{section}]\n"
        text = text.replace(f"[{section}]\n", f"[{section}]\n{name} = {value}\n")
        args = [command, "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out")]
        if command != "foliate":
            args += ["--field", str(csv)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["foliate", "relax"])
    def test_direction_along_periodic_axis_exits_one(self, tmp_path, capsys, command):
        # direction (2, 1) on box x periodic: every member would jump across
        # the periodic axis's wrap, as [foliate] family or [initial] member
        text = FOLIATE_CONFIG.replace("m = 25, 4", "m = 8")
        text = text.replace("direction = 1, 0", "direction = 2, 1")
        if command == "relax":
            text += "\n[initial]\nkind = member\ndirection = 2, 1\n"
        args = [command, "--config", str(_write(tmp_path, "oblique.ini", text))]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: direction must be zero along periodic axes: a member would "
            "jump across the wrap\n"
        )
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("steps", [5, 80])
    def test_field_of_another_slope_exits_one(self, tmp_path, capsys, steps):
        # the verdict does not depend on how far the orbit would run
        csv = tmp_path / "twisted.csv"
        twisted = field_from_function(
            _family_axes(), lambda p: logistic_profile(p[..., 0]) + p[..., 1], (0, 1)
        )
        dump_csv(twisted, csv)
        text = FOLIATE_CONFIG + f"\n[asymptote]\ndirection = -1, 0, 0\nsteps = {steps}\n"
        args = ["asymptote", "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out"), "--field", str(csv)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ordering undefined for slopes")
        assert not (tmp_path / "out" / "asymptote_report.json").exists()

    def test_zero_asymptote_direction_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        text = FOLIATE_CONFIG + "\n[asymptote]\ndirection = 0, 0, 0\n"
        args = ["asymptote", "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out"), "--field", str(csv)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: translation direction must be nonzero\n"
        assert not (tmp_path / "out" / "asymptote_report.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["relax", "--config", "relax.ini", "--bogus"],
                "phaselab: unrecognized arguments: --bogus",
            ),
            (
                ["asymptote", "--config", "a.ini", "--field", "f.csv", "--seed", "abc"],
                "phaselab: unrecognized arguments: --seed abc",
            ),
            (["relax"], "phaselab relax: the following arguments are required: --config"),
            ([], "phaselab: the following arguments are required: command"),
            (["--help"], None),
        ],
        ids=["unknown-flag", "bad-seed", "missing-config", "no-command", "help"],
    )
    def test_bad_arguments_exit_one(self, capsys, argv, message):
        # exit 2 means "checked and failed"; a bad command line is checked
        # nothing, so it exits 1 with one error line, and --help still exits 0
        if message is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0 and "usage: phaselab" in capsys.readouterr().out
            return
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_each_command_has_the_flags_it_reads(self):
        # --seed only where random numbers are drawn, --field only where a
        # field is read
        sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: sorted(opt for opt in p._option_string_actions if opt not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert flags == {
            "relax": ["--config", "--out", "--seed"],
            "classify": ["--config", "--field", "--out"],
            "foliate": ["--config", "--out"],
            "rigidity": ["--config", "--field", "--out"],
            "asymptote": ["--config", "--field", "--out"],
            "report": ["--out"],
        }

    def test_usage_error_between_good_commands(self, tmp_path, capsys):
        # one parser serves every call in a process: a usage error leaves
        # nothing behind that the next command would see
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        cfg = str(_write(tmp_path, "cls.ini", FOLIATE_CONFIG))
        outs = [tmp_path / "a", tmp_path / "b"]
        good = ["classify", "--config", cfg, "--field", str(csv), "--out"]
        assert main(good + [str(outs[0])]) == 0
        capsys.readouterr()
        assert main(good + [str(tmp_path / "c"), "--bogus"]) == 1
        assert capsys.readouterr().err == "error: phaselab: unrecognized arguments: --bogus\n"
        assert main(good + [str(outs[1])]) == 0
        assert capsys.readouterr() == ("", "")
        assert not (tmp_path / "c").exists()
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)

    @pytest.mark.parametrize("command", ["classify", "rigidity", "asymptote"])
    @pytest.mark.parametrize("row", ["0.5", ""], ids=["no-comma", "blank"])
    def test_malformed_row_exits_one(self, tmp_path, capsys, command, row):
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        lines = csv.read_text().splitlines()
        lines[5] = row
        csv.write_text("\n".join(lines) + "\n")
        text = FOLIATE_CONFIG + "\n[asymptote]\ndirection = -1, 0, 0\n"
        args = [command, "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out"), "--field", str(csv)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field CSV line 6 does not have 3 columns")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "rigidity", "asymptote"])
    @pytest.mark.parametrize("later", ["none", "short-row", "extra-row"])
    def test_non_numeric_value_exits_one(self, tmp_path, capsys, command, later):
        # a bad value is reported before any fault in a later row
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        lines = csv.read_text().splitlines()
        lines[5] = bad = lines[5].rsplit(",", 1)[0] + ",abc"
        if later == "short-row":
            lines[9] = "0.5"
        elif later == "extra-row":
            lines.append(lines[-1])
        csv.write_text("\n".join(lines) + "\n")
        text = FOLIATE_CONFIG + "\n[asymptote]\ndirection = -1, 0, 0\n"
        args = [command, "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out"), "--field", str(csv)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: field CSV line 6 has a cell that is not a number: {bad!r}\n"

    @pytest.mark.parametrize("command", ["classify", "rigidity", "asymptote"])
    def test_swapped_rows_exit_one(self, tmp_path, capsys, command):
        # two rows of one box node used to load as a different field
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), csv)
        lines = csv.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        csv.write_text("\n".join(lines) + "\n")
        text = FOLIATE_CONFIG + "\n[asymptote]\ndirection = -1, 0, 0\n"
        args = [command, "--config", str(_write(tmp_path, "bad.ini", text))]
        args += ["--out", str(tmp_path / "out"), "--field", str(csv)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field CSV line 6 is not at its node (")
        assert err.count("\n") == 1


def _sidecar_edit(key, value, axis=None):
    def edit(meta):
        (meta if axis is None else meta["axes"][axis])[key] = value
        return meta

    return edit


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: [],
            lambda meta: {"axes": 5},
            lambda meta: {"axes": [5]},
            _sidecar_edit("rises", 5),
            _sidecar_edit("offset", None),
            _sidecar_edit("rises", [0, 1.5]),
            _sidecar_edit("period", 2.7, 1),
        ],
        ids=["list", "axes-int", "axis-int", "rises-int", "offset-null", "rise-1.5", "period-2.7"],
    )
    def test_malformed_sidecar_exits_one(self, tmp_path, capsys, edit):
        # each used to end in a TypeError traceback or, for the last two,
        # to load with a truncated rise or period
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 3, _family_axes()).member_at(0.0), csv)
        meta_path = sidecar_path(csv)
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        args = ["classify", "--config", str(cfg), "--field", str(csv)]
        assert main(args + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed field sidecar {str(meta_path)!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sidecar_as_field_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 3, _family_axes()).member_at(0.0), csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        args = ["classify", "--config", str(cfg), "--field", str(sidecar_path(csv))]
        assert main(args + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field CSV path") and "is its own JSON sidecar" in err
        assert err.count("\n") == 1

    def test_header_only_field_exits_one(self, tmp_path, capsys):
        from phaselab.field import GridError, constant_field

        csv = tmp_path / "empty.csv"
        dump_csv(constant_field(_family_axes(), 0.25), csv)
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
        with pytest.raises(GridError, match="fewer rows"):
            load_csv(csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        code = main(
            ["classify", "--config", str(cfg), "--field", str(csv), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_family_member_classifies_depth_two(self, tmp_path):
        fam = build_family((1, 0), -2.0, 2.0, 3, _family_axes())
        member_csv = tmp_path / "member.csv"
        dump_csv(fam.member_at(0.4), member_csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["classify", "--config", str(cfg), "--field", str(member_csv), "--out", str(out)]
        )
        assert code == 0
        inv = json.loads((out / "invariants.json").read_text())
        assert inv["t"] == 2
        assert inv["a"][1] == [-1.0, 0.0, 0.0]
        assert inv["gamma_bases"][2] == [[0, 1, 0]]
        assert inv["admissible"] is True

    def test_constant_classifies_depth_one(self, tmp_path):
        from phaselab.field import constant_field

        const_csv = tmp_path / "const.csv"
        dump_csv(constant_field(_family_axes(), 0.25), const_csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["classify", "--config", str(cfg), "--field", str(const_csv), "--out", str(out)]
        )
        assert code == 0
        inv = json.loads((out / "invariants.json").read_text())
        assert inv["t"] == 1

    def test_crossing_field_exits_two_with_witnesses(self, tmp_path):
        osc_csv = tmp_path / "osc.csv"
        dump_csv(_crossing_field(), osc_csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["classify", "--config", str(cfg), "--field", str(osc_csv), "--out", str(out)]
        )
        assert code == 2
        wits = json.loads((out / "witnesses.json").read_text())
        assert wits["witnesses"]

    def test_extraction_failure_exits_two(self, tmp_path, capsys):
        # a sheared field whose second sublattice level needs radius 2
        from phaselab.field import PeriodicAxis

        u = field_from_function(
            (PeriodicAxis(2, 8),),
            lambda p: p[..., 0] / 2 + 0.1 * np.sin(2 * np.pi * p[..., 0]),
            rises=(1,),
        )
        csv = tmp_path / "sheared.csv"
        dump_csv(u, csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG + "\n[scan]\nradius = 1\n")
        out = tmp_path / "out"
        code = main(["classify", "--config", str(cfg), "--field", str(csv), "--out", str(out)])
        assert code == 2
        inv = json.loads((out / "invariants.json").read_text())
        assert inv == {
            "kind": "invariants",
            "passed": False,
            "error": "radius 1 is too small to span sublattice level 2 (rank 0 of 1)",
        }
        assert json.loads((out / "witnesses.json").read_text())["passed"] is True
        assert capsys.readouterr().out.startswith("invariant extraction failed: radius 1")

    @pytest.mark.parametrize("field", ["member", "crossing"])
    def test_one_scan_per_run(self, tmp_path, monkeypatch, field):
        # witnesses.json and invariants.json come from one table of the ball
        calls = []
        real = orbit._scan_table

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(orbit, "_scan_table", counting)
        if field == "member":
            u = build_family((1, 0), -2.0, 2.0, 3, _family_axes()).member_at(0.4)
        else:
            u = _crossing_field()
        csv = tmp_path / "u.csv"
        dump_csv(u, csv)
        cfg = _write(tmp_path, "cls.ini", FOLIATE_CONFIG)
        out = tmp_path / "out"
        code = main(["classify", "--config", str(cfg), "--field", str(csv), "--out", str(out)])
        assert code == (0 if field == "member" else 2)
        assert len(calls) == 1
        wits = json.loads((out / "witnesses.json").read_text())
        assert wits["passed"] is (field == "member")
        assert (out / "invariants.json").exists() is (field == "member")


class TestFoliateCommand:
    def test_family_passes(self, tmp_path):
        cfg = _write(tmp_path, "fol.ini", FOLIATE_CONFIG)
        out = tmp_path / "out"
        code = main(["foliate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "foliation_report.json").read_text())
        assert report["passed"] is True
        assert report["foliation"]["disjointness_passed"] is True
        assert report["envelope_identity"]["passed"] is True
        assert report["total_order"]["passed"] is True
        manifest = json.loads((out / "family_manifest.json").read_text())
        assert manifest["direction"] == [1, 0]
        assert len(manifest["b_grid"]) == 7

    def test_injected_crossing_member_exits_two(self, tmp_path):
        fam = build_family((1, 0), -2.0, 2.0, 7, _family_axes())
        member = fam.member_at(0.0)
        wavy = member.with_values(
            member.values
            + 0.05 * np.sin(2 * np.pi * np.arange(member.shape[1]) / member.shape[1])
        )
        bad_csv = tmp_path / "wavy.csv"
        dump_csv(wavy, bad_csv)
        cfg = _write(
            tmp_path,
            "fol.ini",
            FOLIATE_CONFIG.replace(
                "envelope_sample = 3",
                f"envelope_sample = 3\nextra_member_csv = {bad_csv}",
            ),
        )
        out = tmp_path / "out"
        code = main(["foliate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        report = json.loads((out / "foliation_report.json").read_text())
        assert report["total_order"]["violations"]

    def test_chain_of_length_one_exits_two_with_report(self, tmp_path):
        # the README's 2-D config at an order tolerance under which every
        # translate compares equal: the family's chain has length 1
        text = (
            "[grid]\nn = 2\nkind = box, periodic\nlo = -20\nhi = 20\nperiod = 1\nm = 25, 4\n\n"
            "[foliate]\ndirection = 1, 0\nb_min = -5\nb_max = 5\ncount = 101\n"
            "envelope_steps = 60\n\n[tolerances]\norder = 10\n"
        )
        cfg = _write(tmp_path, "fol.ini", text)
        out = tmp_path / "out"
        code = main(["foliate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        report = json.loads((out / "foliation_report.json").read_text())
        assert report["foliation"]["passed"] and report["total_order"]["passed"]
        assert report["envelope_identity"]["failed_hypothesis"] == (
            "family's invariant chain has length 1; envelopes need length >= 2"
        )

    def test_unconverged_envelope_exits_one(self, tmp_path, capsys):
        text = FOLIATE_CONFIG.replace("envelope_steps = 60", "envelope_steps = 1")
        cfg = _write(tmp_path, "fol.ini", text)
        code = main(["foliate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: envelope did not converge within 1 translation steps\n"


class TestRigidityCommand:
    def test_member_matches(self, tmp_path):
        member_csv = tmp_path / "member.csv"
        fam = build_family((1, 0), -2.0, 2.0, 7, _family_axes())
        dump_csv(fam.member_at(0.6), member_csv)
        cfg = _write(tmp_path, "rig.ini", FOLIATE_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["rigidity", "--config", str(cfg), "--field", str(member_csv), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "rigidity_report.json").read_text())
        assert abs(report["b0"] - 0.6) < 1e-9

    def test_outsider_fails(self, tmp_path):
        from phaselab.field import constant_field

        csv = tmp_path / "high.csv"
        dump_csv(constant_field(_family_axes(), 1.5), csv)
        cfg = _write(tmp_path, "rig.ini", FOLIATE_CONFIG)
        code = main(
            ["rigidity", "--config", str(cfg), "--field", str(csv), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["rigidity", "foliate"])
    def test_self_intersecting_family_exits_two_with_report(self, tmp_path, command):
        # an oblique family over box x box axes crosses its own translates:
        # its chain cannot be extracted, a failed hypothesis, not an error
        from phaselab.field import BoxAxis

        fam = build_family((2, 1), -3, 3, 13, (BoxAxis(-6, 6, 8), BoxAxis(-3, 3, 8)))
        csv = tmp_path / "member.csv"
        dump_csv(fam.member_at(0.3), csv)
        text = (
            "[grid]\nn = 2\nkind = box\nlo = -6, -3\nhi = 6, 3\nm = 8\n\n"
            "[foliate]\ndirection = 2, 1\nb_min = -3\nb_max = 3\ncount = 13\n"
        )
        cfg = _write(tmp_path, "rig.ini", text)
        out = tmp_path / "out"
        field = ["--field", str(csv)] if command == "rigidity" else []
        code = main([command, "--config", str(cfg), *field, "--out", str(out)])
        assert code == 2
        if command == "rigidity":
            report = json.loads((out / "rigidity_report.json").read_text())
            assert report["status"] == "not-applicable" and report["passed"] is False
        else:
            full = json.loads((out / "foliation_report.json").read_text())
            assert full["passed"] is False
            assert full["foliation"]["passed"] and full["total_order"]["passed"]
            report = full["envelope_identity"]
            assert report["passed"] is False and report["per_member"] == []
        assert report["failed_hypothesis"].startswith("family's invariant extraction failed")


class TestAsymptoteCommand:
    def test_member_flows_to_upper_phase(self, tmp_path):
        member_csv = tmp_path / "member.csv"
        fam = build_family((1, 0), -2.0, 2.0, 7, _family_axes())
        dump_csv(fam.member_at(0.0), member_csv)
        cfg = _write(
            tmp_path,
            "asy.ini",
            FOLIATE_CONFIG + "\n[asymptote]\ndirection = -1, 0, 0\nsteps = 80\n",
        )
        out = tmp_path / "out"
        code = main(
            ["asymptote", "--config", str(cfg), "--field", str(member_csv), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "asymptote_report.json").read_text())
        assert report["classification"] == "upper"


class TestReportCommand:
    def test_aggregates_pass_fail(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a_report.json").write_text(json.dumps({"kind": "relax", "passed": True}))
        assert main(["report", "--out", str(out)]) == 0
        (out / "b_report.json").write_text(json.dumps({"kind": "foliate", "passed": False}))
        assert main(["report", "--out", str(out)]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--out", str(empty)]) == 1


#: The modules every command loads: the package, its CLI and the field layer.
BASE_MODULES = {"phaselab", "phaselab.cli", "phaselab.field"}
#: Child code that runs one command, given as its ``sys.argv[1:]``.
RUN_MAIN = "from phaselab.cli import main\nassert main(sys.argv[1:]) == 0"


def _loaded_modules(code, *args):
    """The phaselab modules loaded in a fresh interpreter after ``code``,
    which sees ``args`` as ``sys.argv[1:]``."""
    src = str(Path(phaselab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    report = "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'phaselab']))"
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{report}", *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestModuleSets:
    """Each command loads only the layers it runs, in a fresh interpreter."""

    LAYERS = {
        "relax": {"minimize", "integrand"},
        "classify": {"orbit"},
        "foliate": {"orbit", "foliation", "heteroclinic", "integrand"},
        "rigidity": {"orbit", "foliation", "heteroclinic", "integrand"},
        "asymptote": {"orbit", "foliation", "heteroclinic", "integrand"},
        "report": set(),
    }

    def test_package_and_cli_load_only_the_field_layer(self):
        assert _loaded_modules("import phaselab") == {"phaselab"}
        assert _loaded_modules("import phaselab, phaselab.cli") == BASE_MODULES

    @pytest.mark.parametrize("command", list(LAYERS))
    def test_command_loads_its_own_layers(self, tmp_path, command):
        relax_cfg = _write(tmp_path, "relax.ini", RELAX_CONFIG)
        asymptote = "\n[asymptote]\ndirection = -1, 0, 0\n"
        foliate_cfg = _write(tmp_path, "foliate.ini", FOLIATE_CONFIG + asymptote)
        member_csv = tmp_path / "member.csv"
        dump_csv(build_family((1, 0), -2.0, 2.0, 7, _family_axes()).member_at(0.0), member_csv)
        out = tmp_path / "out"
        argv = {
            "relax": ["--config", relax_cfg],
            "classify": ["--config", relax_cfg, "--field", member_csv],
            "foliate": ["--config", foliate_cfg],
            "rigidity": ["--config", foliate_cfg, "--field", member_csv],
            "asymptote": ["--config", foliate_cfg, "--field", member_csv],
            "report": [],
        }[command]
        if command == "report":
            out.mkdir()
            (out / "a_report.json").write_text(json.dumps({"kind": "relax", "passed": True}))
        loaded = _loaded_modules(RUN_MAIN, command, *map(str, argv), "--out", str(out))
        assert loaded == BASE_MODULES | {f"phaselab.{m}" for m in self.LAYERS[command]}

    def test_member_start_loads_the_foliation_layer(self, tmp_path):
        cfg = _write(tmp_path, "member.ini", RELAX_CONFIG.replace("kind = ramp", "kind = member"))
        loaded = _loaded_modules(RUN_MAIN, "relax", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert loaded == BASE_MODULES | {
            f"phaselab.{m}" for m in ("minimize", "integrand", "foliation", "heteroclinic", "orbit")
        }


def _family_axes():
    from phaselab.field import BoxAxis, PeriodicAxis

    return (BoxAxis(-20, 20, 25), PeriodicAxis(1, 4))


def _crossing_field():
    from phaselab.field import PeriodicAxis

    # a 2-D oscillation of period 2 crosses its own translates
    axes = (PeriodicAxis(2, 8), PeriodicAxis(2, 8))
    return field_from_function(
        axes,
        lambda p: 0.5 + 0.2 * np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1] + np.pi / 4),
    )
