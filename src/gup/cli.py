"""Command-line entry points.

Subcommands, each with the library call that computes what it prints:

  fit            EIV line fit of a period-vs-amplitude^2 dataset, derived
                 length and deformation-ratio bound (bounds.pendulum_fit).
  exclusion      (beta0, alpha) exclusion boundaries of the registered
                 experiments as a table, CSV and/or SVG
                 (bounds.scenario_curves; bounds.pendulum_fit for the fit's B, N).
  period         Pendulum period by the first-order formula, the full
                 quadrature, or direct trajectory integration (dynamics).
  quantum-check  Invariant suite of the deformed-oscillator matrix
                 mechanics (oscillator.invariant_checks).
  scenarios      Registry inspection (bounds.load_scenarios).

This module parses arguments, config and the dataset CSV, and formats the
tables, the JSON report and both CSVs; gup.svgplot draws the chart.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
A JSON config file (--config or the GUP_CONFIG environment variable)
overrides the built-in defaults; unknown or ill-typed keys are rejected
by name.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import bounds, dynamics, evfit, oscillator, svgplot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

_NUMERIC_FAILURES = (
    evfit.FitConvergenceError,
    dynamics.QuadratureError,
    dynamics.TrajectoryError,
    oscillator.TruncationError,
)


class ConfigError(ValueError):
    """Configuration file rejected; message names the offending key."""


class DatasetError(ValueError):
    """Dataset file rejected; message carries the file line number."""


# --- configuration ---------------------------------------------------------

_DEFAULT_CONFIG = {
    "pendulum": {"mass_kg": 1.22, "gravity_m_s2": 9.80393},
    "fit": {
        "confidence_level": 0.95,
        "sigma_amplitude_sq_m2": 5e-3,
        "sigma_period_s": 1e-4,
    },
    # the library's default grid: the defaults of bounds.beta0_log_grid
    "grid": {
        name: param.default
        for name, param in inspect.signature(bounds.beta0_log_grid).parameters.items()
    },
    "scenarios": None,
}

# five times the largest exclusion grid the benchmark runs
_MAX_GRID_POINTS = 100_001

# the numeric keys are those with a float default
_CONFIG_NUMERIC = {
    f"{section}.{key}"
    for section, content in _DEFAULT_CONFIG.items() if isinstance(content, dict)
    for key, value in content.items() if isinstance(value, float)
}


def load_config(path: "str | None") -> dict:
    """Defaults overlaid with the JSON file at path (or GUP_CONFIG)."""
    if path is None:
        path = os.environ.get("GUP_CONFIG") or None
    merged = json.loads(json.dumps(_DEFAULT_CONFIG))
    if path is None:
        return merged
    try:
        with open(path, "r", encoding="utf-8") as handle:
            user = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    for section, content in user.items():
        if section == "scenarios":
            if content is not None and not isinstance(content, str):
                raise ConfigError("config: key 'scenarios' must be a path or null")
            merged["scenarios"] = content
            continue
        if section not in merged:
            raise ConfigError(f"config: unknown key {section!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"config: key {section!r} must be an object")
        for key, value in content.items():
            dotted = f"{section}.{key}"
            if key not in merged[section]:
                raise ConfigError(f"config: unknown key {dotted!r}")
            if dotted in _CONFIG_NUMERIC:
                number = bounds.json_number(value)  # JSON allows NaN and Infinity
                if number is None:
                    raise ConfigError(f"config: key {dotted!r} must be a number")
                if number <= 0.0:
                    raise ConfigError(f"config: key {dotted!r} must be positive")
                if dotted == "fit.confidence_level" and not number < 1.0:
                    raise ConfigError(
                        "config: key 'fit.confidence_level' must be below 1"
                    )
                if not math.isfinite(number):
                    raise ConfigError(f"config: key {dotted!r} must be finite")
            elif dotted == "grid.points":
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ConfigError(
                        "config: key 'grid.points' must be a positive integer"
                    )
                if value > _MAX_GRID_POINTS:
                    raise ConfigError(
                        f"config: key 'grid.points' must be at most {_MAX_GRID_POINTS}"
                    )
            merged[section][key] = value
    if merged["grid"]["beta0_min"] > merged["grid"]["beta0_max"]:
        raise ConfigError("config: 'grid.beta0_min' exceeds 'grid.beta0_max'")
    return merged


# --- dataset ingestion -----------------------------------------------------

_BASE_COLUMNS = ("amplitude_sq_cm2", "period_s")
_SIGMA_COLUMNS = ("sigma_amp_sq_cm2", "sigma_period_s")


@dataclass(frozen=True)
class Dataset:
    """Parsed dataset: its path and the series in SI units."""

    path: str
    series: evfit.MeasurementSeries


def bundled_dataset_path() -> str:
    """Filesystem path of the packaged timing dataset."""
    return str(resources.files("gup").joinpath("data/pendulum_timing.csv"))


def load_dataset(path: str, sigma_x_m2: float, sigma_y_s: float) -> Dataset:
    """Parse a timing CSV into a MeasurementSeries in SI units.

    Columns amplitude_sq_cm2,period_s with optional per-row sigma
    columns; missing sigmas fall back to the given defaults (already in
    m^2 and s).  Parse failures name the file line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")  # universal newlines made every line end \n
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or exc}") from None
    rows = list(filter(str.strip, lines))
    if not rows:
        raise DatasetError(f"{path}: file is empty")
    header_line = rows[0].strip()
    header = tuple(name.strip() for name in header_line.split(","))
    if header not in (_BASE_COLUMNS, _BASE_COLUMNS + _SIGMA_COLUMNS):
        raise DatasetError(
            f"{path}:1: header must be {','.join(_BASE_COLUMNS)}"
            f"[,{','.join(_SIGMA_COLUMNS)}], got {header_line!r}"
        )
    expected = len(header)
    if len(rows) == 1:
        raise DatasetError(f"{path}: no data rows")
    # all fields in one pass; float() strips what str.strip() does except
    # U+001F, so any failure is left to the row-by-row parse to name or take
    try:
        if set(map(str.count, rows[1:], itertools.repeat(","))) != {expected - 1}:
            raise ValueError("field count")
        fields = ",".join(rows[1:]).split(",")
        data = np.fromiter(map(float, fields), float, len(fields)).reshape(-1, expected)
    except ValueError:
        data = _parse_rows(path, lines, expected)
    x = data[:, 0] * 1e-4  # cm^2 -> m^2
    y = data[:, 1]
    if expected == 4:
        sx = data[:, 2] * 1e-4
        sy = data[:, 3]
    else:
        sx = np.full(x.size, sigma_x_m2)
        sy = np.full(x.size, sigma_y_s)
    try:
        series = evfit.MeasurementSeries(x, y, sx, sy)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return Dataset(path=path, series=series)


def _parse_rows(path: str, lines: list, expected: int) -> np.ndarray:
    """The data rows below the header, one line at a time; errors name the first bad line."""
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    raw = []
    for lineno, line in rows[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != expected:
            raise DatasetError(
                f"{path}:{lineno}: expected {expected} fields, got {len(fields)}"
            )
        try:
            raw.append(tuple(float(f) for f in fields))
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: non-numeric field") from None
    return np.asarray(raw)


# --- fit -------------------------------------------------------------------


def _pendulum_fit(config: dict, path: str) -> tuple:
    """bounds.pendulum_fit of the timing CSV at path, with the config's settings."""
    fit_config, pendulum = config["fit"], config["pendulum"]
    dataset = load_dataset(
        path, fit_config["sigma_amplitude_sq_m2"], fit_config["sigma_period_s"]
    )
    return bounds.pendulum_fit(
        dataset.series, pendulum["mass_kg"], pendulum["gravity_m_s2"],
        fit_config["confidence_level"],
    )


def cmd_fit(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    path = args.dataset if args.dataset else bundled_dataset_path()
    fit, length, length_se, ratio, n_particles = _pendulum_fit(config, path)
    level = config["fit"]["confidence_level"]
    mass, gravity = config["pendulum"]["mass_kg"], config["pendulum"]["gravity_m_s2"]
    slope_ci = evfit.confidence_interval(fit, "slope", level)
    intercept_ci = evfit.confidence_interval(fit, "intercept", level)
    alpha_min = bounds.alpha_bound(ratio.upper, n_particles, 1.0)
    report = {
        "dataset": path,
        "n_points": fit.n_points,
        "confidence_level": level,
        "slope_s_per_m2": fit.slope,
        "slope_se": fit.slope_se,
        "slope_ci": list(slope_ci),
        "intercept_s": fit.intercept,
        "intercept_se": fit.intercept_se,
        "intercept_ci": list(intercept_ci),
        "chi2": fit.chi2,
        "reduced_chi2": fit.reduced_chi2,
        "dof": fit.dof,
        "pendulum": {"mass_kg": mass, "gravity_m_s2": gravity},
        "derived_length_m": length,
        "derived_length_se_m": length_se,
        "ratio_bound": {"lower": ratio.lower, "upper": ratio.upper},
        "n_particles": n_particles,
        "alpha_min_at_beta0_1": alpha_min,
    }
    level_pct = 100.0 * level
    print(f"dataset            {path} ({fit.n_points} points)")
    print(
        f"slope              {fit.slope:.6g} s/m^2"
        f"  [{level_pct:g}% CI {slope_ci[0]:.6g}, {slope_ci[1]:.6g}]"
    )
    print(
        f"intercept          {fit.intercept:.8g} s"
        f"  [{level_pct:g}% CI {intercept_ci[0]:.8g}, {intercept_ci[1]:.8g}]"
    )
    print(f"reduced chi^2      {fit.reduced_chi2:.4g} (dof {fit.dof})")
    print(f"derived length     {length:.6f} m +- {length_se:.6f}")
    print(f"ratio bound        {ratio.lower:.6g} < beta0/N^alpha < {ratio.upper:.6g}")
    print(f"alpha_min(beta0=1) {alpha_min:.4f}")
    out_path = args.out_json
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to  {out_path}")
    return EXIT_OK


# --- exclusion -------------------------------------------------------------


def _format_rows(template: str, *columns: list) -> str:
    """template once per row, filled from the columns in one C-level % pass.

    Row i takes entry i of each column in turn, so the template holds one
    conversion per column; a literal % in it must be written %%.
    """
    values = [None] * (len(columns[0]) * len(columns))
    for offset, column in enumerate(columns):
        values[offset :: len(columns)] = column
    return template * len(columns[0]) % tuple(values)


# what str.splitlines breaks at, escaped so that a label keeps its table row
_LINE_BREAKS = {ord(c): c.encode("unicode_escape").decode()
                for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def cmd_exclusion(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = bounds.beta0_log_grid(**config["grid"])
    scenarios = bounds.load_scenarios(config["scenarios"])
    fitted = None
    if any(s.kind == "pendulum-fit" and s.style != "none" for s in scenarios):
        *_, ratio, nucleons = _pendulum_fit(config, bundled_dataset_path())
        fitted = ratio.upper, nucleons
    curves = bounds.scenario_curves(scenarios, grid, fitted)
    for scenario, upper, n_particles, _ in curves:
        alpha_unit = bounds.alpha_bound(upper, n_particles, 1.0)
        print(
            f"{scenario.label.translate(_LINE_BREAKS):<38} style={scenario.style:<6} "
            f"B={upper:.4g} N={n_particles:.4g} alpha_min(beta0=1)={alpha_unit:+.4f}"
        )
    if args.out_csv:
        # every boundary is sampled on grid: its column is formatted once
        beta0_text = _format_rows("%.12g\n", grid.tolist()).splitlines()
        with open(args.out_csv, "w", encoding="utf-8") as handle:
            handle.write("label,beta0,alpha_min,style\n")
            for scenario, _, _, boundary in curves:
                label = scenario.label.replace("%", "%%")
                if any(c in label for c in ',"\r\n'):  # quoted as RFC 4180 asks
                    label = '"' + label.replace('"', '""') + '"'
                handle.write(_format_rows(f"{label},%s,%.12g,{scenario.style}\n",
                                          beta0_text, boundary.points[:, 1].tolist()))
        print(f"boundary CSV written to {args.out_csv}")
    if args.out_svg:
        # each boundary is straight in (log beta0, alpha): its grid ends draw it
        ends = [0, -1] if len(grid) > 1 else [0]
        series = [
            svgplot.Series(label=scenario.label, points=boundary.points[ends], style=scenario.style)
            for scenario, _, _, boundary in curves
        ]
        svg = svgplot.line_chart(
            series, (config["grid"]["beta0_min"], config["grid"]["beta0_max"])
        )
        with open(args.out_svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"exclusion plot written to {args.out_svg}")
    return EXIT_OK


# --- period ----------------------------------------------------------------


def cmd_period(args: argparse.Namespace) -> int:
    if args.out_csv and args.method != "trajectory":
        raise ValueError(f"--out-csv needs --trajectory: --{args.method} computes no samples")
    pend = dynamics.PendulumConfig(mass=args.mass, length=args.length, gravity=args.gravity)
    params = dynamics.DeformationParams(
        beta0=args.beta0, alpha=args.alpha, n_particles=args.n_particles
    )
    if args.amplitude < 0.0 or args.amplitude >= pend.length:
        raise ValueError("amplitude must lie in [0, length)")
    heading = f"method={args.method} amplitude_m={args.amplitude:.12g}"
    if args.method == "first-order":
        period = dynamics.period_first_order(pend, params, args.amplitude)
    else:
        if args.amplitude == 0.0:
            raise ValueError(f"--{args.method} needs a positive amplitude")
        phi = math.asin(args.amplitude / pend.length)
        heading += f" angle_rad={phi:.12g} rel_tol={args.rel_tol:g}"
        if args.method == "exact":
            period = dynamics.period_exact_quadrature(pend, params, phi, args.rel_tol)
        else:
            period = dynamics.trajectory_period(pend, params, phi, args.rel_tol)
    print(heading)
    print(f"period_s={period:.12g}")
    if args.out_csv:
        samples = dynamics.integrate_trajectory(
            pend, params, phi, 2.0 * period, rel_tol=args.rel_tol
        )
        with open(args.out_csv, "w", encoding="utf-8") as handle:
            handle.write("time_s,angle_rad,displacement_m\n")
            handle.write(_format_rows("%.12g,%.12g,%.12g\n", *samples.T.tolist()))
        print(f"trajectory written to {args.out_csv}")
    return EXIT_OK


# --- quantum check ---------------------------------------------------------


def cmd_quantum_check(args: argparse.Namespace) -> int:
    model = oscillator.OscillatorModel(
        mass=args.mass, omega=args.omega, hbar=args.hbar, beta=args.beta
    )
    ok = True
    for check in oscillator.invariant_checks(model, args.j, args.dimension):
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name:<28} {check.detail}")
        ok &= check.passed
    if not ok:
        print("quantum checks FAILED")
        return EXIT_NUMERIC
    print("all quantum checks passed")
    return EXIT_OK


# --- scenarios -------------------------------------------------------------


def cmd_scenarios(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    scenarios = bounds.load_scenarios(config["scenarios"])
    for scenario in scenarios:
        n = scenario.n_particles
        n_text = f"{n:.4g}" if n is not None else "derived"
        reference = scenario.reference.get("alpha_min_at_unit_strength")
        ref_text = f" ref_alpha={reference:+.2f}" if reference is not None else ""
        inferred = f" inferred={','.join(scenario.inferred)}" if scenario.inferred else ""
        print(
            f"{scenario.label.translate(_LINE_BREAKS):<38} kind={scenario.kind:<20} "
            f"style={scenario.style:<6} N={n_text}{ref_text}{inferred}"
        )
    return EXIT_OK


# --- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto this
    # CLI's convention (1 usage, 2 numerical)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # built on the first main call, then reused: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gup", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="EIV fit of a timing dataset")
    p_fit.add_argument(
        "dataset", nargs="?", default=None, help="CSV path (default: bundled data)"
    )
    p_fit.add_argument("--config", default=None, help="JSON config path")
    p_fit.add_argument(
        "--out-json", default="gup-fit.json", help="machine-readable report path"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_exc = sub.add_parser("exclusion", help="exclusion boundaries")
    p_exc.add_argument("--config", default=None)
    p_exc.add_argument("--out-csv", default=None, help="boundary table path")
    p_exc.add_argument("--out-svg", default=None, help="plot path")
    p_exc.set_defaults(func=cmd_exclusion)

    p_per = sub.add_parser("period", help="pendulum period")
    pendulum = _DEFAULT_CONFIG["pendulum"]
    p_per.add_argument("--mass", type=float, default=pendulum["mass_kg"], help="kg")
    p_per.add_argument("--length", type=float, default=2.9954, help="m")
    p_per.add_argument("--gravity", type=float, default=pendulum["gravity_m_s2"], help="m/s^2")
    p_per.add_argument(
        "--amplitude", type=float, required=True, help="displacement amplitude, m"
    )
    p_per.add_argument("--beta0", type=float, default=0.0)
    p_per.add_argument("--alpha", type=float, default=0.0)
    p_per.add_argument("--n-particles", type=float, default=1.0)
    p_per.add_argument("--rel-tol", type=float, default=1e-10)
    p_per.add_argument("--out-csv", default=None, help="trajectory samples path")
    group = p_per.add_mutually_exclusive_group()
    group.add_argument(
        "--exact", dest="method", action="store_const", const="exact"
    )
    group.add_argument(
        "--first-order", dest="method", action="store_const", const="first-order"
    )
    group.add_argument(
        "--trajectory", dest="method", action="store_const", const="trajectory"
    )
    p_per.set_defaults(method="exact", func=cmd_period)

    p_q = sub.add_parser("quantum-check", help="oscillator invariant suite")
    p_q.add_argument("--mass", type=float, default=1.0)
    p_q.add_argument("--omega", type=float, default=1.0)
    p_q.add_argument("--hbar", type=float, default=1.0)
    # default beta keeps z = beta m^2 w^2 A^2 small enough that the
    # first-order closed form is inside its own tolerance band
    p_q.add_argument("--beta", type=float, default=5e-6)
    p_q.add_argument("--j", type=float, default=4.0)
    p_q.add_argument(
        "--dimension", type=int, default=None, help="Fock truncation (default auto)"
    )
    p_q.set_defaults(func=cmd_quantum_check)

    p_s = sub.add_parser("scenarios", help="experiment registry")
    s_sub = p_s.add_subparsers(dest="subcommand", required=True)
    p_list = s_sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--config", default=None)
    p_list.set_defaults(func=cmd_scenarios)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # ConfigError, DatasetError and ScenarioError are ValueErrors
    except (ValueError, evfit.DegenerateDataError, OSError) as exc:
        print(f"gup: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_FAILURES as exc:
        print(f"gup: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
