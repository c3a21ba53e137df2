"""Command line interface: parsing, outputs, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import gup
from gup import cli, oscillator
from gup.bounds import slope_coefficients
from gup.dynamics import PendulumConfig


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFit:
    def test_bundled_dataset_report(self, capsys, in_tmp):
        code, out, err = run(capsys, "fit")
        assert code == 0
        assert err == ""
        assert "slope" in out and "intercept" in out
        report = json.loads((in_tmp / "gup-fit.json").read_text())
        assert report["n_points"] == 21
        assert report["slope_s_per_m2"] == pytest.approx(0.023242654517764492, rel=1e-10)
        assert report["intercept_s"] == pytest.approx(3.473041799000506, rel=1e-12)
        assert report["reduced_chi2"] == pytest.approx(0.112, abs=0.002)
        assert report["derived_length_m"] == pytest.approx(2.9954, abs=4e-4)
        assert report["ratio_bound"]["upper"] == pytest.approx(0.00948, abs=2e-4)
        assert report["alpha_min_at_beta0_1"] == pytest.approx(0.075, abs=0.005)
        assert report["n_particles"] == pytest.approx(1.22 / 1.66054e-27, rel=1e-12)

    def test_out_json_path(self, capsys, in_tmp):
        target = in_tmp / "custom.json"
        code, out, _ = run(capsys, "fit", "--out-json", str(target))
        assert code == 0
        assert target.exists()
        assert "custom.json" in out

    def test_explicit_dataset(self, capsys, in_tmp):
        src = Path(cli.bundled_dataset_path()).read_text()
        path = in_tmp / "copy.csv"
        path.write_text(src)
        code, out, _ = run(capsys, "fit", str(path))
        assert code == 0
        assert "copy.csv" in out

    def test_per_row_sigma_columns(self, capsys, in_tmp):
        path = in_tmp / "with_sigmas.csv"
        path.write_text(
            "amplitude_sq_cm2,period_s,sigma_amp_sq_cm2,sigma_period_s\n"
            "100,3.4735,50,1e-4\n200,3.4738,50,1e-4\n400,3.4742,50,1e-4\n"
            "900,3.4752,50,1e-4\n1600,3.4768,50,1e-4\n"
        )
        code, _, _ = run(capsys, "fit", str(path))
        assert code == 0

    def test_zero_slope_dataset_bounds_ratio_by_coefficient_quotient(
        self, capsys, in_tmp
    ):
        # a flat period line pushes the ratio bound up to roughly c0/c1
        rows = ["amplitude_sq_cm2,period_s"]
        for amp_sq in range(100, 2100, 200):
            rows.append(f"{amp_sq},3.4730")
        path = in_tmp / "flat.csv"
        path.write_text("\n".join(rows) + "\n")
        code, _, _ = run(capsys, "fit", str(path))
        assert code == 0
        report = json.loads((in_tmp / "gup-fit.json").read_text())
        pend = PendulumConfig(
            mass=1.22, length=report["derived_length_m"], gravity=9.80393
        )
        c0, c1 = slope_coefficients(pend)
        assert report["ratio_bound"]["upper"] == pytest.approx(c0 / c1, rel=0.2)

    def test_two_rows_rejected(self, capsys, in_tmp):
        path = in_tmp / "tiny.csv"
        path.write_text("amplitude_sq_cm2,period_s\n100,3.47\n200,3.48\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 1
        assert "3 points" in err

    def test_missing_file(self, capsys, in_tmp):
        code, _, err = run(capsys, "fit", "nowhere.csv")
        assert code == 1
        assert "nowhere.csv" in err

    @pytest.mark.parametrize("body,lineno", [
        ("amplitude_sq_cm2,period_s\n100,3.47\n200\n300,3.48\n", 3),
        ("amplitude_sq_cm2,period_s\n100,abc\n200,3.48\n300,3.49\n", 2),
    ])
    def test_parse_errors_name_the_line(self, capsys, in_tmp, body, lineno):
        path = in_tmp / "broken.csv"
        path.write_text(body)
        code, _, err = run(capsys, "fit", str(path))
        assert code == 1
        assert f"broken.csv:{lineno}" in err

    def test_wrong_header_named(self, capsys, in_tmp):
        path = in_tmp / "odd.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 1
        assert "odd.csv:1" in err and "amplitude_sq_cm2" in err


class TestDatasetRoundTrip:
    def test_to_csv_reproduces_bundled_file(self):
        path = cli.bundled_dataset_path()
        dataset = cli.load_dataset(path, 5e-3, 1e-4)
        assert dataset.to_csv() == Path(path).read_text()

    def test_si_conversion(self):
        dataset = cli.load_dataset(cli.bundled_dataset_path(), 5e-3, 1e-4)
        assert dataset.series.x[0] == pytest.approx(43e-4, rel=1e-12)
        assert dataset.series.sigma_x[0] == 5e-3


class TestConfig:
    def test_defaults_without_file(self, monkeypatch):
        monkeypatch.delenv("GUP_CONFIG", raising=False)
        config = cli.load_config(None)
        assert config["pendulum"]["mass_kg"] == 1.22
        assert config["fit"]["confidence_level"] == 0.95
        assert config["grid"]["points"] == 121

    def test_overlay_and_env(self, tmp_path, monkeypatch):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"pendulum": {"mass_kg": 2.5}}))
        monkeypatch.setenv("GUP_CONFIG", str(path))
        config = cli.load_config(None)
        assert config["pendulum"]["mass_kg"] == 2.5
        assert config["pendulum"]["gravity_m_s2"] == 9.80393

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_conf = tmp_path / "env.json"
        env_conf.write_text(json.dumps({"pendulum": {"mass_kg": 9.0}}))
        cli_conf = tmp_path / "cli.json"
        cli_conf.write_text(json.dumps({"pendulum": {"mass_kg": 3.0}}))
        monkeypatch.setenv("GUP_CONFIG", str(env_conf))
        assert cli.load_config(str(cli_conf))["pendulum"]["mass_kg"] == 3.0

    @pytest.mark.parametrize("doc,fragment", [
        ({"pendulum": {"mass_lb": 1.0}}, "pendulum.mass_lb"),
        ({"pendulums": {}}, "pendulums"),
        ({"pendulum": {"mass_kg": "heavy"}}, "pendulum.mass_kg"),
        ({"pendulum": {"mass_kg": -1.0}}, "pendulum.mass_kg"),
        ({"fit": {"confidence_level": 1.5}}, "fit.confidence_level"),
        ({"grid": {"points": 0}}, "grid.points"),
        ({"grid": {"beta0_min": 10.0, "beta0_max": 1.0}}, "beta0_min"),
        ({"scenarios": 7}, "scenarios"),
    ])
    def test_validation_names_offending_key(self, tmp_path, doc, fragment):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.ConfigError, match=fragment):
            cli.load_config(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text("{oops")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.load_config(str(path))

    def test_bad_config_exits_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"fit": {"sigma_period_s": 0.0}}))
        code, _, err = run(capsys, "fit", "--config", str(path))
        assert code == 1
        assert "fit.sigma_period_s" in err


class TestExclusion:
    def test_stdout_lists_plotted_scenarios(self, capsys, in_tmp):
        code, out, _ = run(capsys, "exclusion")
        assert code == 0
        for label in (
            "macroscopic pendulum",
            "micromechanical membranes",
            "sapphire acoustic resonator",
            "levitated gold sphere (projected)",
        ):
            assert label in out
        # style "none" entries are registered but never plotted
        assert "pulsed optomechanics" not in out

    def test_csv_output(self, capsys, in_tmp):
        code, _, _ = run(capsys, "exclusion", "--out-csv", "bounds.csv")
        assert code == 0
        lines = (in_tmp / "bounds.csv").read_text().splitlines()
        assert lines[0] == "label,beta0,alpha_min,style"
        assert len(lines) == 1 + 4 * 121
        styles = {line.split(",")[-1] for line in lines[1:]}
        assert styles == {"solid", "dashed"}

    def test_csv_contains_unit_strength_reference_points(self, capsys, in_tmp):
        run(capsys, "exclusion", "--out-csv", "bounds.csv")
        rows = [
            line.split(",")
            for line in (in_tmp / "bounds.csv").read_text().splitlines()[1:]
        ]
        at_unit = {r[0]: float(r[2]) for r in rows if float(r[1]) == 1.0}
        assert at_unit["micromechanical membranes"] == pytest.approx(-0.33, abs=5e-3)
        assert at_unit["sapphire acoustic resonator"] == pytest.approx(-0.25, abs=5e-3)

    def test_svg_output_valid_and_deterministic(self, capsys, in_tmp):
        run(capsys, "exclusion", "--out-svg", "a.svg")
        run(capsys, "exclusion", "--out-svg", "b.svg")
        first = (in_tmp / "a.svg").read_text()
        assert first == (in_tmp / "b.svg").read_text()
        root = ElementTree.fromstring(first)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) >= 4

    def test_single_point_grid(self, capsys, in_tmp):
        conf = in_tmp / "conf.json"
        conf.write_text(json.dumps({"grid": {"points": 1}}))
        code, _, _ = run(
            capsys, "exclusion", "--config", str(conf), "--out-csv", "one.csv"
        )
        assert code == 0
        assert len((in_tmp / "one.csv").read_text().splitlines()) == 1 + 4

    def test_pendulum_entry_parameters_rejected(self, capsys, in_tmp):
        # the fit takes mass, gravity, sigmas and level from the config only
        registry = in_tmp / "reg.json"
        registry.write_text(json.dumps({"version": 1, "scenarios": [{
            "kind": "pendulum-fit",
            "label": "bob",
            "n_particles": 7.32e26,
            "parameters": {"mass_kg": 1.5, "gravity_m_s2": 9.81},
        }]}))
        conf = in_tmp / "conf.json"
        conf.write_text(json.dumps({"scenarios": str(registry)}))
        code, _, err = run(capsys, "exclusion", "--config", str(conf))
        assert code == 1
        assert "gravity_m_s2, mass_kg" in err


class TestPeriod:
    def test_first_order_at_rest(self, capsys):
        code, out, _ = run(capsys, "period", "--amplitude", "0", "--first-order")
        assert code == 0
        period = float(out.split("period_s=")[1].split()[0])
        assert period == pytest.approx(3.4730, abs=5e-5)

    def test_methods_agree_at_small_amplitude(self, capsys):
        periods = {}
        for method in ("--exact", "--trajectory", "--first-order"):
            code, out, _ = run(capsys, "period", "--amplitude", "0.15", method)
            assert code == 0
            periods[method] = float(out.split("period_s=")[1].split()[0])
        assert periods["--trajectory"] == pytest.approx(periods["--exact"], rel=1e-8)
        assert periods["--first-order"] == pytest.approx(periods["--exact"], rel=1e-5)

    def test_deformation_flags_shorten_period(self, capsys):
        _, plain, _ = run(capsys, "period", "--amplitude", "0.3")
        _, deformed, _ = run(
            capsys, "period", "--amplitude", "0.3",
            "--beta0", "1e6", "--alpha", "0.1", "--n-particles", "1e10",
        )
        t_plain = float(plain.split("period_s=")[1].split()[0])
        t_deformed = float(deformed.split("period_s=")[1].split()[0])
        assert t_deformed < t_plain

    def test_trajectory_csv(self, capsys, in_tmp):
        code, _, _ = run(
            capsys, "period", "--amplitude", "0.2", "--trajectory",
            "--out-csv", "swing.csv",
        )
        assert code == 0
        lines = (in_tmp / "swing.csv").read_text().splitlines()
        assert lines[0] == "time_s,angle_rad,displacement_m"
        assert len(lines) > 64
        t0, angle0, disp0 = map(float, lines[1].split(","))
        assert t0 == 0.0
        assert disp0 == pytest.approx(0.2, rel=1e-10)
        assert angle0 == pytest.approx(math.asin(0.2 / 2.9954), rel=1e-10)

    def test_exact_rejects_zero_amplitude(self, capsys):
        code, _, err = run(capsys, "period", "--amplitude", "0")
        assert code == 1
        assert "positive amplitude" in err

    def test_amplitude_beyond_length_rejected(self, capsys):
        code, _, err = run(capsys, "period", "--amplitude", "3.1")
        assert code == 1
        assert "amplitude" in err

    def test_amplitude_required(self, capsys):
        code, _, err = run(capsys, "period")
        assert code == 1
        assert "--amplitude" in err

    def test_methods_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "period", "--amplitude", "0.1", "--exact", "--trajectory"
        )
        assert code == 1


class TestQuantumCheck:
    def test_default_invariants_pass(self, capsys):
        code, out, _ = run(capsys, "quantum-check")
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out
        assert "all quantum checks passed" in out

    def test_undersized_truncation_fails_numerically(self, capsys):
        code, _, err = run(capsys, "quantum-check", "--j", "30", "--dimension", "12")
        assert code == 2
        assert "numerical failure" in err

    def test_oversized_fock_space_refused(self, capsys):
        # the ceiling must hold before the CLI is asked for 10,461 levels,
        # which as dense complex matrices would take 1.75 GB each
        model = oscillator.OscillatorModel(mass=1.0, omega=1.0, hbar=1.0, beta=5e-6)
        with pytest.raises(oscillator.TruncationError):
            oscillator.build_truncated_operators(model, 1025)
        code, _, err = run(capsys, "quantum-check", "--j", "1e4")
        assert code == 2
        assert "10461 Fock levels" in err
        assert "1024 levels" in err


class TestScenarios:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "scenarios", "list")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 5
        assert any("derived" in line for line in lines)
        assert any("inferred=" in line for line in lines)
        assert any("ref_alpha=+0.07" in line for line in lines)

    def test_custom_registry_via_config(self, capsys, in_tmp):
        registry = in_tmp / "reg.json"
        registry.write_text(json.dumps({
            "version": 1,
            "scenarios": [{
                "kind": "oscillator-frequency",
                "label": "bench",
                "n_particles": 1e12,
                "parameters": {"ratio_upper": 1e3},
            }],
        }))
        conf = in_tmp / "conf.json"
        conf.write_text(json.dumps({"scenarios": str(registry)}))
        code, out, _ = run(capsys, "scenarios", "list", "--config", str(conf))
        assert code == 0
        assert "bench" in out
        assert "macroscopic pendulum" not in out


class TestImports:
    def test_cli_import_skips_scipy_stats(self):
        env = dict(os.environ, PYTHONPATH=str(Path(gup.__file__).parents[1]))
        probe = "import sys, gup.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    def test_rel_tol_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "period", "--amplitude", "0.1", "--rel-tol", "0.5"
        )
        assert code == 1
        assert "rel_tol" in err
