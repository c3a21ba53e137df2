"""Command line interface: parsing, outputs, exit codes."""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from xml.etree import ElementTree

import pytest

import gup
from gup import bounds, cli, oscillator, svgplot
from gup.bounds import slope_coefficients
from gup.dynamics import PendulumConfig

from conftest import reference_curve_elements, reference_exclusion_csv


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

    def test_library_call_matches_report(self, capsys, in_tmp, timing_series):
        assert run(capsys, "fit")[0] == 0
        report = json.loads((in_tmp / "gup-fit.json").read_text())
        fit, length, length_se, ratio, n = bounds.pendulum_fit(timing_series, 1.22, 9.80393,
                                                               0.95)
        assert (fit.slope, fit.intercept, length, length_se, ratio.lower, ratio.upper, n) == (
            report["slope_s_per_m2"], report["intercept_s"], report["derived_length_m"],
            report["derived_length_se_m"], report["ratio_bound"]["lower"],
            report["ratio_bound"]["upper"], report["n_particles"],
        )

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

    def test_sigma_past_the_normal_range_refused(self, capsys, in_tmp):
        # 1e-200 s squares to a subnormal 1e-400: refused, not warned about
        (in_tmp / "tiny_sigma.csv").write_text(
            "amplitude_sq_cm2,period_s,sigma_amp_sq_cm2,sigma_period_s\n"
            "100,3.4735,50,1e-200\n200,3.4738,50,1e-4\n400,3.4742,50,1e-4\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fit", "tiny_sigma.csv")
        assert code == 1
        assert out == ""
        assert err.startswith("gup: error: tiny_sigma.csv: sigmas must lie in about")
        assert err.count("\n") == 1

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
    def test_si_conversion(self):
        dataset = cli.load_dataset(cli.bundled_dataset_path(), 5e-3, 1e-4)
        assert dataset.series.x[0] == pytest.approx(43e-4, rel=1e-12)
        assert dataset.series.sigma_x[0] == 5e-3


class TestDatasetParsing:
    @staticmethod
    def error(in_tmp, text):
        path = in_tmp / "rows.csv"
        path.write_bytes(text.encode())
        with pytest.raises(cli.DatasetError) as caught:
            cli.load_dataset(str(path), 5e-3, 1e-4)
        return str(caught.value)

    @pytest.mark.parametrize("body,message", [
        ("100,3.47\nabc,3.48\n300\n400,3.49\n", "rows.csv:3: non-numeric field"),
        ("100,3.47\n300\nabc,3.48\n400,3.49\n", "rows.csv:3: expected 2 fields, got 1"),
        ("100,3.47\n\n \t\n200,3.48,1\nx,3.49\n", "rows.csv:5: expected 2 fields, got 3"),
        ("100,3.47\n200,\n300,3.49\n", "rows.csv:3: non-numeric field"),
        ("100,3.47\n1__00,3.48\n300,3.49\n", "rows.csv:3: non-numeric field"),
    ])
    def test_first_bad_line_is_named(self, in_tmp, body, message):
        assert self.error(in_tmp, "amplitude_sq_cm2,period_s\n" + body).endswith(message)

    def test_lenient_forms_parse_as_numbers(self, in_tmp):
        # underscores, CRLF, blank and whitespace-only lines, padded fields,
        # and U+001F, which str.strip() removes and float() does not
        path = in_tmp / "lenient.csv"
        path.write_bytes(
            "amplitude_sq_cm2 , period_s\r\n  1_00 , 3.4735\r\n\r\n \t \r\n"
            "200,\t3.4738 \r\n4e2,3.474_2\x1f\r\n\u00a0900,3.4752".encode()
        )
        series = cli.load_dataset(str(path), 5e-3, 1e-4).series
        assert series.x.tolist() == [v * 1e-4 for v in (100.0, 200.0, 400.0, 900.0)]
        assert series.y.tolist() == [3.4735, 3.4738, 3.4742, 3.4752]
        assert series.sigma_y.tolist() == [1e-4] * 4

    @pytest.mark.parametrize("separator", [
        "\u2028", "\u2029", "\u0085", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
    ])
    def test_only_newlines_end_rows(self, in_tmp, separator):
        # str.splitlines() would break these rows in two and count the extra line
        body = f"100,3.4735\n200,3.4738{separator}400,3.4742\n900,3.4752\n"
        message = self.error(in_tmp, "amplitude_sq_cm2,period_s\n" + body)
        assert message.endswith("rows.csv:3: expected 2 fields, got 3")

    @pytest.mark.parametrize("bad,message", [
        ("1.0,zz", "non-numeric field"), ("1.0", "expected 2 fields, got 1"),
    ])
    def test_bad_line_among_many_rows_is_named(self, in_tmp, bad, message):
        rows = [f"{100 + 0.1 * i:.10g},{3.47 + 1e-7 * i:.10g}" for i in range(20_000)]
        rows[12_344] = bad  # line 12,346: the header is line 1
        text = "amplitude_sq_cm2,period_s\n" + "\n".join(rows) + "\n"
        assert self.error(in_tmp, text).endswith(f"rows.csv:12346: {message}")


class TestConfig:
    def test_numeric_keys_are_the_float_defaults(self):
        assert cli._CONFIG_NUMERIC == {
            "pendulum.mass_kg", "pendulum.gravity_m_s2", "fit.confidence_level",
            "fit.sigma_amplitude_sq_m2", "fit.sigma_period_s", "grid.beta0_min",
            "grid.beta0_max",
        }

    def test_period_defaults_are_the_config_pendulum(self, monkeypatch):
        monkeypatch.delenv("GUP_CONFIG", raising=False)
        args = cli.build_parser().parse_args(["period", "--amplitude", "0.1"])
        pendulum = cli.load_config(None)["pendulum"]
        assert (args.mass, args.gravity) == (pendulum["mass_kg"], pendulum["gravity_m_s2"])

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
        ({"pendulum": {"mass_kg": math.inf}}, "pendulum.mass_kg"),
        ({"fit": {"sigma_amplitude_sq_m2": math.nan}}, "fit.sigma_amplitude_sq_m2"),
    ])
    def test_validation_names_offending_key(self, tmp_path, doc, fragment):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.ConfigError, match=fragment):
            cli.load_config(str(path))

    @pytest.mark.parametrize("key,value", [
        ("beta0_max", math.inf),
        ("beta0_min", math.nan),
        # JSON allows integers that float() cannot convert
        pytest.param("beta0_max", 10**400, id="beta0_max-int-past-float-range"),
    ])
    def test_non_finite_grid_bound_exits_before_writing(
        self, capsys, in_tmp, key, value
    ):
        conf = in_tmp / "conf.json"
        conf.write_text(json.dumps({"grid": {key: value}}))
        code, out, err = run(
            capsys, "exclusion", "--config", str(conf),
            "--out-csv", "b.csv", "--out-svg", "b.svg",
        )
        assert code == 1
        assert out == ""
        assert err == f"gup: error: config: key 'grid.{key}' must be finite\n"
        assert not (in_tmp / "b.csv").exists()
        assert not (in_tmp / "b.svg").exists()

    @pytest.mark.parametrize("points", [100_002, 10**40])
    def test_oversized_grid_refused_before_writing(self, capsys, in_tmp, points):
        conf = in_tmp / "conf.json"
        conf.write_text(json.dumps({"grid": {"points": 100_001}}))
        assert cli.load_config(str(conf))["grid"]["points"] == 100_001
        conf.write_text(json.dumps({"grid": {"points": points}}))
        code, out, err = run(
            capsys, "exclusion", "--config", str(conf),
            "--out-csv", "b.csv", "--out-svg", "b.svg",
        )
        assert code == 1
        assert out == ""
        assert err == "gup: error: config: key 'grid.points' must be at most 100001\n"
        assert not (in_tmp / "b.csv").exists()
        assert not (in_tmp / "b.svg").exists()

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

    @pytest.mark.parametrize("mass,n_text,alpha", [
        (1.22, "7.347e+26", "0.0753"), (2.44, "1.469e+27", "0.0966"),
    ])
    def test_pendulum_curve_takes_n_from_the_fit(self, capsys, in_tmp, mass, n_text, alpha):
        # gup fit and the pendulum curve count the bob's nucleons alike, N = m / u
        (in_tmp / "conf.json").write_text(json.dumps({"pendulum": {"mass_kg": mass}}))
        code, out, _ = run(capsys, "exclusion", "--config", "conf.json")
        assert code == 0
        assert out.splitlines()[0].startswith("macroscopic pendulum")
        assert out.splitlines()[0].endswith(f" N={n_text} alpha_min(beta0=1)=+{alpha}")
        code, out, _ = run(capsys, "fit", "--config", "conf.json")
        assert code == 0
        assert f"alpha_min(beta0=1) {alpha}\n" in out
        assert f"{json.loads((in_tmp / 'gup-fit.json').read_text())['n_particles']:.4g}" == n_text

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
            "parameters": {"mass_kg": 1.5, "gravity_m_s2": 9.81},
        }]}))
        conf = in_tmp / "conf.json"
        conf.write_text(json.dumps({"scenarios": str(registry)}))
        code, _, err = run(capsys, "exclusion", "--config", str(conf))
        assert code == 1
        assert "gravity_m_s2, mass_kg" in err


    @pytest.mark.parametrize("registry", [None, "reg.json"])
    def test_fitted_bound_refused_before_scenarios_resolve(self, capsys, in_tmp, registry):
        # at g = 20 m/s^2 the fitted B is negative; the custom registry's
        # first entry, a levitation scenario without radius_m, is not reached
        (in_tmp / "reg.json").write_text(json.dumps({"version": 1, "scenarios": [
            {"kind": "levitation", "label": "no radius", "n_particles": None,
             "parameters": {"density_kg_m3": 19300.0, "susceptibility": 3.4e-5,
                            "field_gradient_T_m": 100.0, "amplitude_m": 1e-6,
                            "damping_hz": 1e-3}},
            {"kind": "pendulum-fit", "label": "bob", "parameters": {}},
        ]}))
        (in_tmp / "conf.json").write_text(json.dumps(
            {"pendulum": {"gravity_m_s2": 20}, "scenarios": registry}))
        assert run(capsys, "exclusion", "--config", "conf.json") == (
            1, "", "gup: error: ratio upper bound must be positive and finite\n")
        (in_tmp / "conf.json").write_text(json.dumps({"scenarios": "reg.json"}))
        assert run(capsys, "exclusion", "--config", "conf.json") == (
            1, "", "gup: error: scenario 'no radius' lacks 'radius_m'\n")

    def test_undrawn_pendulum_entry_is_not_fitted(self, capsys, in_tmp):
        # at g = 20 m/s^2 the fit is refused, but no drawn curve needs it
        (in_tmp / "reg.json").write_text(json.dumps({"version": 1, "scenarios": [
            {"kind": "pendulum-fit", "label": "bob", "style": "none", "parameters": {}},
            {"kind": "optomechanical", "label": "membranes", "n_particles": 5e18,
             "parameters": {"ratio_upper": 2e-3}},
        ]}))
        (in_tmp / "conf.json").write_text(json.dumps(
            {"pendulum": {"gravity_m_s2": 20}, "scenarios": "reg.json"}))
        code, out, err = run(capsys, "exclusion", "--config", "conf.json")
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()] == ["membranes"]


_ODD_LABELS = {"version": 1, "scenarios": [
    {"kind": "oscillator-frequency", "label": "100% <b> & %s %(x)d",
     "n_particles": 1e20, "parameters": {"ratio_upper": 0.3}},
    {"kind": "optomechanical", "label": "a&b <i>%%</i>", "style": "dashed",
     "n_particles": 5e18, "parameters": {"ratio_upper": 2e-3}},
    {"kind": "oscillator-frequency", "label": "trailing %",
     "n_particles": 1e30, "parameters": {"ratio_upper": 5.0}},
]}


# every line but the curves of a default `gup exclusion --out-svg`, as written
# before the chart's title, axis labels and alpha axis became fixed
_DEFAULT_SVG_FRAME = [
    '<svg xmlns="http://www.w3.org/2000/svg" width="760" height="520" viewBox="0 0 760 520">',
    '<style>text{font-family:DejaVu '
    'Sans,Helvetica,sans-serif;font-size:12px;fill:#222}.title{font-size:15px}</style>',
    '<rect width="760" height="520" fill="#ffffff"/>',
    '<clipPath id="plot"><rect x="64.00" y="40.00" width="678.00" height="432.00"/></clipPath>',
    '<line x1="64.00" y1="40.00" x2="64.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="64.00" y="488.00" text-anchor="middle">1e-4</text>',
    '<line x1="177.00" y1="40.00" x2="177.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="177.00" y="488.00" text-anchor="middle">1e-2</text>',
    '<line x1="290.00" y1="40.00" x2="290.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="290.00" y="488.00" text-anchor="middle">1</text>',
    '<line x1="403.00" y1="40.00" x2="403.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="403.00" y="488.00" text-anchor="middle">1e2</text>',
    '<line x1="516.00" y1="40.00" x2="516.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="516.00" y="488.00" text-anchor="middle">1e4</text>',
    '<line x1="629.00" y1="40.00" x2="629.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="629.00" y="488.00" text-anchor="middle">1e6</text>',
    '<line x1="742.00" y1="40.00" x2="742.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="742.00" y="488.00" text-anchor="middle">1e8</text>',
    '<line x1="64.00" y1="472.00" x2="742.00" y2="472.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="58.00" y="476.00" text-anchor="end">-1</text>',
    '<line x1="64.00" y1="364.00" x2="742.00" y2="364.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="58.00" y="368.00" text-anchor="end">-0.5</text>',
    '<line x1="64.00" y1="256.00" x2="742.00" y2="256.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="58.00" y="260.00" text-anchor="end">0</text>',
    '<line x1="64.00" y1="148.00" x2="742.00" y2="148.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="58.00" y="152.00" text-anchor="end">0.5</text>',
    '<line x1="64.00" y1="40.00" x2="742.00" y2="40.00" stroke="#dddddd" stroke-width="1"/>',
    '<text x="58.00" y="44.00" text-anchor="end">1</text>',
    '<rect x="64.00" y="40.00" width="678.00" height="432.00" fill="none" '
    'stroke="#444444" stroke-width="1"/>',
    '<text x="380.00" y="22" text-anchor="middle" class="title">Excluded deformation '
    'parameters (shaded side ruled out)</text>',
    '<text x="403.00" y="508.00" text-anchor="middle">beta0</text>',
    '<text x="16" y="256.00" text-anchor="middle" transform="rotate(-90 16 '
    '256.00)">alpha</text>',
    '<line x1="76.00" y1="50.00" x2="102.00" y2="50.00" stroke="#1f77b4" stroke-width="1.8"/>',
    '<text x="108.00" y="54.00">macroscopic pendulum</text>',
    '<line x1="76.00" y1="68.00" x2="102.00" y2="68.00" stroke="#d62728" stroke-width="1.8"/>',
    '<text x="108.00" y="72.00">micromechanical membranes</text>',
    '<line x1="76.00" y1="86.00" x2="102.00" y2="86.00" stroke="#2ca02c" stroke-width="1.8"/>',
    '<text x="108.00" y="90.00">sapphire acoustic resonator</text>',
    '<line x1="76.00" y1="104.00" x2="102.00" y2="104.00" stroke="#9467bd" '
    'stroke-width="1.8" stroke-dasharray="7 5"/>',
    '<text x="108.00" y="108.00">levitated gold sphere (projected)</text>',
    '</svg>',
    '',
]


def curve_ends(curves) -> list:
    """curves as for reference_curve_elements, each cut to its first and last point."""
    return [(label, style, [points[0], points[-1]] if len(points) > 1 else points)
            for label, style, points in curves]


def polyline_vertices(svg: str) -> list:
    """The (x, y) vertices of each polyline in svg, as written."""
    return [[tuple(map(float, pair.split(","))) for pair in points.split()]
            for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def segment_distance(point, a, b) -> float:
    """Euclidean distance from point to the segment from a to b."""
    (x, y), (ax, ay), (bx, by) = point, a, b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    t = 0.0 if length_sq == 0.0 else min(1.0, max(0.0, ((x - ax) * dx + (y - ay) * dy) / length_sq))
    return math.hypot(x - ax - t * dx, y - ay - t * dy)


def assert_curve_elements(expected: list, svg: str) -> None:
    """The chart's curve elements form one block of lines equal to expected."""
    lines = svg.split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith(("<polygon", "<polyline", "<circle"))]
    assert at == list(range(at[0], at[0] + len(expected)))
    assert lines[at[0] : at[-1] + 1] == expected


class TestExclusionWriters:
    """The column-at-a-time CSV writer and the chart against per-point references."""

    @pytest.mark.parametrize("registry", ["bundled", "odd labels"])
    @pytest.mark.parametrize("beta0_range", [(1e-4, 1e8), (1e-300, 1e300), (3.0, 3.0)])
    @pytest.mark.parametrize("points", [1, 2, 121, 20_001])
    def test_match_per_point_writers(self, capsys, in_tmp, timing_series, registry,
                                     beta0_range, points):
        config = {"grid": {"beta0_min": beta0_range[0], "beta0_max": beta0_range[1],
                           "points": points}}
        if registry == "odd labels":
            (in_tmp / "reg.json").write_text(json.dumps(_ODD_LABELS))
            config["scenarios"] = str(in_tmp / "reg.json")
        (in_tmp / "conf.json").write_text(json.dumps(config))
        code, _, err = run(capsys, "exclusion", "--config", "conf.json",
                           "--out-csv", "b.csv", "--out-svg", "b.svg")
        assert (code, err) == (0, "")

        resolved = cli.load_config("conf.json")
        grid = bounds.beta0_log_grid(**resolved["grid"])
        *_, ratio, n = bounds.pendulum_fit(timing_series, 1.22, 9.80393, 0.95)
        curves = [(s.label, s.style, boundary.points.tolist()) for s, _, _, boundary
                  in bounds.scenario_curves(bounds.load_scenarios(resolved["scenarios"]),
                                            grid, (ratio.upper, n))]
        assert (in_tmp / "b.csv").read_bytes() == reference_exclusion_csv(curves).encode()
        # each boundary is drawn by its grid ends; every vertex of the
        # per-point drawing lies within its own 0.01 px print rounding of it
        svg = (in_tmp / "b.svg").read_text()
        assert_curve_elements(reference_curve_elements(curve_ends(curves), beta0_range), svg)
        drawn = polyline_vertices(svg)
        per_point = polyline_vertices("\n".join(reference_curve_elements(curves, beta0_range)))
        assert len(drawn) == len(per_point) == (len(curves) if points > 1 else 0)
        for segment, vertices in zip(drawn, per_point):
            assert len(segment) == 2
            assert max(segment_distance(vertex, *segment) for vertex in vertices) <= 0.01

    def test_labels_with_separators_are_quoted(self, capsys, in_tmp):
        labels = ["membranes, SiN", 'the "bar" pendulum', "two\nlines", "cr\r, 100%"]
        registry = {"version": 1, "scenarios": [
            {"kind": "oscillator-frequency", "label": label, "n_particles": 1e20,
             "parameters": {"ratio_upper": 0.3}} for label in labels
        ]}
        (in_tmp / "reg.json").write_text(json.dumps(registry))
        (in_tmp / "conf.json").write_text(json.dumps(
            {"scenarios": "reg.json", "grid": {"points": 3}}))
        code, _, err = run(capsys, "exclusion", "--config", "conf.json", "--out-csv", "b.csv")
        assert (code, err) == (0, "")
        with open(in_tmp / "b.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["label", "beta0", "alpha_min", "style"]
        assert [row[0] for row in rows[1:]] == [label for label in labels for _ in range(3)]
        assert {len(row) for row in rows} == {4}

    def test_distinct_x_columns_and_point_lists(self):
        curves = [
            ("one", "solid", [(1.0, 0.1), (10.0, 0.2), (100.0, -0.3)]),
            ("same x", "dashed", [(1.0, 0.5), (10.0, 0.6), (100.0, 0.7)]),
            ("other x", "solid", [(2.0, 0.0), (20.0, 0.25)]),
            ("single", "dashed", [(5.0, -0.5)]),
        ]
        series = [svgplot.Series(label, points, style) for label, style, points in curves]
        svg = svgplot.line_chart(series, (1.0, 100.0))
        assert_curve_elements(reference_curve_elements(curves, (1.0, 100.0)), svg)

    def test_default_frame_is_unchanged(self, capsys, in_tmp):
        assert run(capsys, "exclusion", "--out-svg", "a.svg")[0] == 0
        lines = (in_tmp / "a.svg").read_text().split("\n")
        curves = ("<polygon", "<polyline", "<circle")
        assert sum(line.startswith(curves) for line in lines) == 2 * 4
        assert [line for line in lines if not line.startswith(curves)] == _DEFAULT_SVG_FRAME

    @pytest.mark.parametrize("x_range,labels", [
        ((1e-4, 1e8), ["1e-4", "1e-2", "1", "1e2", "1e4", "1e6", "1e8"]),
        ((1e-300, 1e300), [f"1e{e}" if e else "1" for e in range(-300, 301, 75)]),
    ])
    def test_at_most_nine_x_labels(self, x_range, labels):
        # every second decade of (1e-300, 1e300) was 301 labels 2.26 px apart
        svg = svgplot.line_chart([svgplot.Series("one", [(1.0, 0.0)], "solid")], x_range)
        assert re.findall(r'text-anchor="middle">(1|1e-?\d+)</text>', svg) == labels

    def test_nothing_to_draw(self, capsys, in_tmp):
        (in_tmp / "reg.json").write_text(json.dumps({"version": 1, "scenarios": [
            {"kind": "optomechanical", "label": "membranes", "style": "none",
             "n_particles": 5e18, "parameters": {"ratio_upper": 2e-3}},
        ]}))
        (in_tmp / "conf.json").write_text(json.dumps({"scenarios": "reg.json"}))
        code, _, err = run(capsys, "exclusion", "--config", "conf.json",
                           "--out-csv", "n.csv", "--out-svg", "n.svg")
        assert (code, err) == (0, "")
        assert (in_tmp / "n.csv").read_text() == "label,beta0,alpha_min,style\n"
        legend = ('<line x1="76.00"', '<text x="108.00"')
        frame = [line for line in _DEFAULT_SVG_FRAME if not line.startswith(legend)]
        assert (in_tmp / "n.svg").read_text().split("\n") == frame


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

    @pytest.mark.parametrize("method", ["--exact", "--first-order", "--trajectory"])
    def test_suppression_past_float_range(self, capsys, method):
        # N^alpha = 10^400 overflows: beta rounds to 0, as at beta0 = 0
        base = ("period", "--amplitude", "0.35", method)
        plain = run(capsys, *base, "--beta0", "0")
        assert plain[0] == 0
        assert run(capsys, *base, "--beta0", "1", "--n-particles", "10",
                   "--alpha", "400") == plain
        # N^alpha = 10^-400 rounds to 0: beta overflows and is refused
        code, out, err = run(capsys, *base, "--beta0", "1", "--n-particles", "10",
                             "--alpha", "-400")
        assert (code, out) == (1, "")
        assert err == "gup: error: effective beta overflows for n_particles=10.0, alpha=-400.0\n"

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

    @pytest.mark.parametrize("method", [(), ("--exact",), ("--first-order",)])
    def test_csv_without_trajectory_refused(self, capsys, in_tmp, monkeypatch, method):
        # refused before anything is computed, and no file is written
        monkeypatch.setattr(cli.dynamics, "period_exact_quadrature", None)
        monkeypatch.setattr(cli.dynamics, "period_first_order", None)
        code, out, err = run(
            capsys, "period", "--amplitude", "0.2", *method, "--out-csv", "swing.csv"
        )
        assert code == 1
        assert out == ""
        name = method[0] if method else "--exact"
        assert err == f"gup: error: --out-csv needs --trajectory: {name} computes no samples\n"
        assert list(in_tmp.iterdir()) == []

    def test_trajectory_near_the_length_at_large_deformation(self, capsys):
        # a trial stage past |x| = L once ended this with exit 1
        periods = {}
        for method in ("--exact", "--trajectory"):
            code, out, err = run(
                capsys, "period", "--amplitude", "2.9", "--beta0", "1e6", method
            )
            assert (code, err) == (0, "")
            periods[method] = float(out.split("period_s=")[1].split()[0])
        assert periods["--trajectory"] == pytest.approx(periods["--exact"], rel=1e-8)

    def test_exact_matches_trajectory_in_the_turning_point_layer(self, capsys):
        # two scipy quad integrals subtracted here printed 1.086e-8 s
        periods = {}
        for method in ("--exact", "--trajectory"):
            code, out, err = run(
                capsys, "period", "--amplitude", "2.99", "--beta0", "1e8", method
            )
            assert (code, err) == (0, "")
            periods[method] = float(out.split("period_s=")[1].split()[0])
        assert periods["--exact"] == pytest.approx(periods["--trajectory"], rel=1e-6)
        assert periods["--exact"] == pytest.approx(2.062e-5, rel=1e-3)

    def test_exact_at_the_tightest_tolerance(self, capsys):
        code, out, err = run(capsys, "period", "--amplitude", "0.2", "--rel-tol", "1.01e-14")
        assert (code, err) == (0, "")
        assert float(out.split("period_s=")[1]) == pytest.approx(3.47398855013, rel=1e-11)

    def test_quadrature_panel_cap_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.dynamics, "_MAX_PANELS", 1)
        code, out, err = run(capsys, "period", "--amplitude", "0.35", "--beta0", "1e8")
        assert (code, out) == (2, "")
        assert err.startswith("gup: numerical failure: quadrature needs more than 1 panels")

    def test_trajectory_csv_sized_without_the_quadrature(self, capsys, in_tmp):
        # a grid sized from the old quadrature's 1.086e-8 s period wrote
        # 972,040 rows here
        code, _, err = run(
            capsys, "period", "--amplitude", "2.99", "--beta0", "1e8",
            "--trajectory", "--out-csv", "swing.csv",
        )
        assert (code, err) == (0, "")
        lines = (in_tmp / "swing.csv").read_text().splitlines()
        assert len(lines) == 1 + 512

    @pytest.mark.parametrize("beta0", ["0", "1"])
    @pytest.mark.parametrize("mass", ["1e160", "1e200"])
    @pytest.mark.parametrize("method", ["--exact", "--first-order", "--trajectory"])
    def test_overflowing_pendulum_refused(self, capsys, method, mass, beta0):
        # m^2 overflowed float64: a traceback from mass**2, or scipy warnings
        # and exit 2 from the swing
        code, out, err = run(
            capsys, "period", "--amplitude", "0.2", "--mass", mass, "--beta0", beta0, method
        )
        assert (code, out) == (1, "")
        assert err == f"gup: error: m^2 g L overflows float64 at mass {float(mass):g} kg\n"

    def test_heavy_pendulum_still_timed(self, capsys):
        code, out, err = run(capsys, "period", "--amplitude", "0.2", "--mass", "1e150", "--exact")
        assert (code, err) == (0, "")
        assert out.endswith("\nperiod_s=3.47398855013\n")

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

    def test_sized_for_half_beta_state(self, capsys):
        # the beta/2 state of the closed-form check needs more levels than
        # the beta state at this point
        code, out, _ = run(
            capsys, "quantum-check", "--beta", "5.565862708719852e-07", "--j", "107.8"
        )
        assert code == 0
        assert "all quantum checks passed" in out

    def test_forms_no_dense_operator(self, capsys, monkeypatch):
        calls = []
        for name in ("build_truncated_operators", "matrix_expectation"):
            original = getattr(oscillator, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(oscillator, name, counting)
        code, _, _ = run(capsys, "quantum-check")
        assert code == 0
        assert calls == []

    def test_dimension_too_small_for_half_beta_refused_before_any_check(self, capsys):
        code, out, err = run(
            capsys, "quantum-check", "--beta", "5.565862708719852e-07", "--j", "107.8",
            "--dimension", "193",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "gup: numerical failure: dimension 193 leaves more than 1e-12 of the "
            "state's weight in or beyond the top 4 levels\n"
        )

    def test_builds_two_gk_weight_tables(self, capsys, monkeypatch):
        # the beta/2 state and the beta state; the space is sized from the
        # first, and the temporal-stability check rebuilds from the second
        tables = []
        original = oscillator._gk_weights

        def counting(model, J):
            tables.append((model.beta, J))
            return original(model, J)

        monkeypatch.setattr(oscillator, "_gk_weights", counting)
        code, _, _ = run(capsys, "quantum-check")
        assert code == 0
        assert tables == [(2.5e-6, 4.0), (5e-6, 4.0)]

    def test_zero_beta_refused_before_any_check(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quantum-check", "--beta", "0", "--j", "4")
        assert code == 1
        assert out == ""
        assert err == (
            "gup: error: the commutator-scaling check needs beta > 0; "
            "there is no deformation to scale\n"
        )
        assert caught == []

    def test_zero_action_refused_before_any_check(self, capsys):
        code, out, err = run(capsys, "quantum-check", "--j", "0")
        assert code == 1
        assert out == ""
        assert err == "gup: error: the invariant checks need J > 0; J = 0 has no trajectory\n"

    def test_beta_below_resolution_refused_before_any_check(self, capsys):
        code, out, _ = run(capsys, "quantum-check", "--beta", "2e-11", "--j", "4")
        assert "PASS  commutator residual" in out
        code, out, err = run(capsys, "quantum-check", "--beta", "2e-12", "--j", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("gup: error: beta = 2e-12 (nu = 1e-12) is below")
        assert err.count("\n") == 1

    # nu = beta / 2 here: the cubic band terms overflow (1e300, 1e150), their
    # products in the residual (1e60), or the eigenvalues choose_dimension
    # reads (1e307)
    @pytest.mark.parametrize("argv", [
        ("--beta", "1e300"), ("--beta", "1e150", "--j", "4"), ("--beta", "1e60"),
        ("--beta", "1e307"),
    ])
    def test_overflowing_beta_refused_before_any_check(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quantum-check", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"gup: error: beta = {float(argv[1]):g} ")
        assert "overflows float64" in err and err.count("\n") == 1
        assert caught == []

    @pytest.mark.parametrize("option,value", [
        ("--mass", "inf"), ("--omega", "inf"), ("--hbar", "inf"), ("--mass", "1e300"),
    ])
    def test_unrepresentable_model_scale_refused(self, capsys, option, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quantum-check", option, value)
        assert code == 1
        assert out == ""
        assert err.startswith("gup: error: ") and err.count("\n") == 1
        assert caught == []

    def test_overflowing_deformation_refused_before_any_check(self, capsys):
        # hbar m omega = hbar / (m omega) = 1 but m^2 overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quantum-check", "--mass", "1e200", "--omega", "1e-200")
        assert code == 1
        assert out == ""
        assert err == "gup: error: z = beta m^2 omega^2 A^2 = inf is not finite\n"
        assert caught == []

    def test_classical_model_scale_refused_before_any_check(self, capsys):
        # hbar m omega = 1e-200 is representable, 1e-6 of it for the
        # hbar->0 check is not
        argv = ("--hbar", "1e-150", "--mass", "1e-50", "--beta", "2e194")
        code, out, err = run(capsys, "quantum-check", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("gup: error: hbar m omega") and err.count("\n") == 1

    # z = beta m^2 omega^2 A^2 = 8 beta at J = 4.  The hbar->0 record's gap,
    # first-order closed form against exact classical motion, is about
    # 5.27 A z^2 against a tolerance of 1e-3 A z; it is decided before any record
    @pytest.mark.parametrize("beta", ["1e4", "0.125", "0.12", "2.5e-5"])
    def test_deformation_past_the_closed_forms_refused(self, capsys, beta):
        start = time.perf_counter()
        code, out, err = run(capsys, "quantum-check", "--beta", beta, "--j", "4")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"gup: numerical failure: z = beta m^2 omega^2 A^2 = {8 * float(beta):.3g} "
            "at J = 4: the first-order closed form is "
        )
        assert "from the exact classical trajectory, past its tolerance" in err
        assert err.count("\n") == 1

    # z = 2 beta J at unit mass, omega and hbar; past z = 1.9e-4 the first-order
    # closed forms miss the exact classical motion by more than their tolerance
    @pytest.mark.parametrize("z", [1e-6, 1e-4, 1.4e-4, 2e-4, 1e-2, 0.9])
    @pytest.mark.parametrize("j", [1.0, 16.0, 100.0, 300.0])
    def test_deformation_scan_passes_or_refuses(self, capsys, z, j):
        code, out, err = run(capsys, "quantum-check", "--beta", repr(z / (2.0 * j)),
                             "--j", repr(j))
        if z < 1.9e-4:
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert len(lines) == 7 and lines[-1] == "all quantum checks passed"
            assert all(line.startswith("PASS  ") for line in lines[:6])
        else:
            assert code == 2
            assert out == ""
            assert err.startswith("gup: numerical failure: z = ") and err.count("\n") == 1

    @pytest.mark.parametrize("j", ["nan", "inf"])
    def test_non_finite_action_refused(self, capsys, j):
        code, out, err = run(capsys, "quantum-check", "--j", j)
        assert code == 1
        assert out == ""
        assert err == "gup: error: J must be finite and non-negative\n"

    def test_undersized_truncation_fails_numerically(self, capsys):
        code, _, err = run(capsys, "quantum-check", "--j", "30", "--dimension", "12")
        assert code == 2
        assert "numerical failure" in err

    def test_action_past_the_summed_series_refused(self, capsys):
        # the weights of |J, 0> peak near level J, beyond the 262,144 levels
        # summed and far beyond the 1,024 the operators allow
        assert run(capsys, "quantum-check", "--j", "1e6", "--beta", "1e-8") == (
            2, "", "gup: numerical failure: J = 1e+06: the generalized coherent state's "
            "series has not fallen off within 262144 levels, the most it is summed over; "
            "the operators stop at 1024 levels\n")

    def test_oversized_fock_space_refused(self, capsys):
        # the ceiling must hold before the CLI is asked for 10,586 levels,
        # which as dense complex matrices would take 1.75 GB each
        model = oscillator.OscillatorModel(mass=1.0, omega=1.0, hbar=1.0, beta=5e-6)
        with pytest.raises(oscillator.TruncationError):
            oscillator.build_truncated_operators(model, 1025)
        code, _, err = run(capsys, "quantum-check", "--j", "1e4")
        assert code == 2
        assert "10586 Fock levels" in err
        assert "1024 levels" in err

    def test_requested_dimension_past_the_cap_refused(self, capsys):
        # refused before any state is built: 10**12 levels would not fit in memory
        assert run(capsys, "quantum-check", "--dimension", "1000000000000") == (
            2, "", "gup: numerical failure: 1000000000000 Fock levels requested; the "
            "banded operators are checked against dense products only up to 1024 levels\n")


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


    def test_line_breaks_in_labels_stay_on_one_row(self, capsys, in_tmp):
        labels = ["two\nlines", "crlf\r\nend", "page\x0cfeed", "para\u2029graph", "plain label"]
        shown = ["two\\nlines", "crlf\\r\\nend", "page\\x0cfeed", "para\\u2029graph",
                 "plain label"]
        (in_tmp / "reg.json").write_text(json.dumps({"version": 1, "scenarios": [
            {"kind": "oscillator-frequency", "label": label, "n_particles": 1e12,
             "parameters": {"ratio_upper": 1e3}}
            for label in labels
        ]}))
        (in_tmp / "conf.json").write_text(json.dumps({"scenarios": "reg.json"}))
        for argv in (("scenarios", "list"), ("exclusion",)):
            code, out, _ = run(capsys, *argv, "--config", "conf.json")
            assert code == 0
            rows = out.splitlines()
            assert len(rows) == len(labels)
            assert [row[:38].rstrip() for row in rows] == shown

    @staticmethod
    def write_registry(tmp, **fields):
        entry = {"kind": "oscillator-frequency", "label": "bench", "n_particles": 1e12,
                 "parameters": {"ratio_upper": 1e3}}
        (tmp / "reg.json").write_text(json.dumps({"version": 1, "scenarios": [entry | fields]}))
        (tmp / "conf.json").write_text(json.dumps({"scenarios": "reg.json"}))

    @pytest.mark.parametrize("fields,listed", [
        ({"n_particles": [1]}, False),
        ({"kind": []}, False),
        ({"inferred": 5}, False),
        ({"reference": [1]}, False),
        ({"n_particles": math.inf}, False),
        ({"parameters": {"ratio_upper": [1]}}, True),
        ({"parameters": {"ratio_upper": math.inf}}, True),
        ({"parameters": {"ratio_upper": math.nan}}, True),
        ({"label": None}, False),
        ({"label": 5}, False),
        ({"label": []}, False),
    ])
    def test_bad_registry_field_exits_one_before_writing(self, capsys, in_tmp, fields, listed):
        self.write_registry(in_tmp, **fields)
        code, out, err = run(capsys, "exclusion", "--config", "conf.json",
                             "--out-csv", "b.csv", "--out-svg", "b.svg")
        assert (code, out) == (1, "")
        assert err.startswith("gup: error: scenario ") and err.count("\n") == 1
        assert not (in_tmp / "b.csv").exists() and not (in_tmp / "b.svg").exists()
        # listing reads no parameters, so only the record's own fields stop it
        code, _, err = run(capsys, "scenarios", "list", "--config", "conf.json")
        assert code == (0 if listed else 1)

    # the good first entry was listed before the encoding error
    @pytest.mark.parametrize("fields,message", [
        ({"label": "sur\ud800gate"}, "label must be a string without lone surrogates"),
        ({"inferred": ["ratio\udc00upper"]},
         "inferred must be an array of strings without lone surrogates"),
    ])
    def test_lone_surrogate_refused_before_any_row(self, capsys, in_tmp, fields, message):
        entry = {"kind": "oscillator-frequency", "label": "bench", "n_particles": 1e12,
                 "parameters": {"ratio_upper": 1e3}}
        (in_tmp / "reg.json").write_text(
            json.dumps({"version": 1, "scenarios": [entry, entry | fields]}))
        (in_tmp / "conf.json").write_text(json.dumps({"scenarios": "reg.json"}))
        writers = ("--out-csv", "b.csv", "--out-svg", "b.svg")
        for argv in (("scenarios", "list"), ("exclusion", *writers)):
            code, out, err = run(capsys, *argv, "--config", "conf.json")
            assert (code, out, err) == (1, "", f"gup: error: scenario #1: {message}\n")
        assert not (in_tmp / "b.csv").exists() and not (in_tmp / "b.svg").exists()

    def test_bad_registry_field_prints_no_traceback(self, in_tmp):
        self.write_registry(in_tmp, n_particles=[1])
        env = dict(os.environ, PYTHONPATH=str(Path(gup.__file__).parents[1]))
        for argv in (["exclusion"], ["scenarios", "list"]):
            result = subprocess.run(
                [sys.executable, "-m", "gup.cli", *argv, "--config", "conf.json"],
                env=env, cwd=in_tmp, capture_output=True, text=True,
            )
            assert result.returncode == 1
            assert "Traceback" not in result.stderr
            assert result.stderr == "gup: error: scenario #0: n_particles must be a number or null\n"

    def test_svg_of_labels_with_control_characters_parses(self, capsys, in_tmp):
        labels = ["bad\x01label\x0b", "nul\x00and\ufffe", "tab\tkept"]
        (in_tmp / "reg.json").write_text(json.dumps({"version": 1, "scenarios": [
            {"kind": "oscillator-frequency", "label": label, "n_particles": 1e12,
             "parameters": {"ratio_upper": 1e3}}
            for label in labels
        ]}))
        (in_tmp / "conf.json").write_text(json.dumps({"scenarios": "reg.json"}))
        code, _, _ = run(capsys, "exclusion", "--config", "conf.json", "--out-svg", "b.svg")
        assert code == 0
        root = ElementTree.parse(in_tmp / "b.svg").getroot()
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert texts[-3:] == ["bad\\x01label\\x0b", "nul\\x00and\\ufffe", "tab\tkept"]


class TestParserReuse:
    """main builds the parser once per process and parses every argv afresh."""

    SEQUENCE = (
        ["fit"],
        ["fit", "--config", "conf.json"],
        ["exclusion"],
        ["period", "--amplitude", "0.1", "--first-order"],
        ["period", "--amplitude", "0.1"],
        ["period", "--amplitude", "0.1", "--exact", "--first-order"],
        ["--help"],
        ["--help"],
    )

    def outcomes(self, capsys, fresh):
        calls = []
        for argv in self.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            calls.append(run(capsys, *argv))
        return calls

    def test_reused_parser_matches_fresh_parsers(self, capsys, in_tmp, monkeypatch):
        monkeypatch.delenv("GUP_CONFIG", raising=False)
        (in_tmp / "conf.json").write_text(json.dumps({"fit": {"confidence_level": 0.9}}))
        cli.build_parser.cache_clear()
        reused = self.outcomes(capsys, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert reused == self.outcomes(capsys, fresh=True)
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 1, 0, 0]
        assert "90% CI" in reused[1][1] and "95% CI" in reused[0][1]
        assert reused[3][1].startswith("method=first-order")
        assert reused[4][1].startswith("method=exact")

    def test_import_builds_no_parser(self):
        # the first main call builds the parser, so start-up time does not hold it
        env = dict(os.environ, PYTHONPATH=str(Path(gup.__file__).parents[1]))
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import gup.cli\n"
            "print(len(built))\n"
            "for _ in range(2):\n"
            "    gup.cli.main(['scenarios', 'list'])\n"
            "print(built.count('gup'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        lines = result.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "1")


class TestImports:
    def test_cli_import_skips_scipy_stats(self):
        env = dict(os.environ, PYTHONPATH=str(Path(gup.__file__).parents[1]))
        probe = "import sys, gup.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"

    @staticmethod
    def _scipy_loaded_after(code, cwd):
        """scipy and numpy.polynomial modules in sys.modules after running
        code in a fresh interpreter (each costs start-up time)."""
        env = dict(os.environ, PYTHONPATH=str(Path(gup.__file__).parents[1]))
        probe = code + (
            "\nimport sys"
            "\nprint(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True,
            text=True, check=True,
        )
        return result.stdout.splitlines()[-1]

    def test_package_import_loads_no_scipy(self, tmp_path):
        assert self._scipy_loaded_after("import gup, gup.cli", tmp_path) == "[]"

    def test_analysis_commands_load_no_scipy(self, tmp_path):
        code = (
            "import gup.cli\n"
            "for argv in (['scenarios', 'list'], ['fit', '--out-json', 'fit.json'],\n"
            "             ['exclusion', '--out-csv', 'b.csv', '--out-svg', 'b.svg']):\n"
            "    assert gup.cli.main(argv) == 0, argv"
        )
        assert self._scipy_loaded_after(code, tmp_path) == "[]"
        assert {p.name for p in tmp_path.iterdir()} == {"fit.json", "b.csv", "b.svg"}

    @pytest.mark.parametrize(
        "method",
        [[], ["--first-order"], ["--trajectory"], ["--trajectory", "--out-csv", "swing.csv"]],
        ids=["exact", "first-order", "trajectory", "trajectory-csv"],
    )
    def test_period_loads_no_scipy(self, tmp_path, method):
        code = (
            "import gup.cli\n"
            f"assert gup.cli.main(['period', '--amplitude', '0.35', *{method!r}]) == 0"
        )
        assert self._scipy_loaded_after(code, tmp_path) == "[]"

    def test_quantum_check_loads_no_scipy(self, tmp_path):
        code = "import gup.cli\nassert gup.cli.main(['quantum-check']) == 0"
        assert self._scipy_loaded_after(code, tmp_path) == "[]"

    def test_oscillator_trajectory_loads_no_scipy(self, tmp_path):
        code = (
            "import gup.dynamics\n"
            "gup.dynamics.integrate_oscillator_trajectory(1.0, 1.0, 1e-3, 0.5, [0.0, 1.0])"
        )
        assert self._scipy_loaded_after(code, tmp_path) == "[]"

    def test_pendulum_trajectory_loads_no_scipy(self, tmp_path):
        code = (
            "import gup.dynamics as d\n"
            "d.integrate_trajectory(d.PendulumConfig(1.22, 2.9954, 9.80393), 1e3, 0.3, 7.0)"
        )
        assert self._scipy_loaded_after(code, tmp_path) == "[]"

    @pytest.mark.parametrize(
        "name", [m.name for m in pkgutil.iter_modules(gup.__path__)]
    )
    def test_public_names_resolve(self, name):
        module = importlib.import_module(f"gup.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == []


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
