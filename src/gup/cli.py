"""Command-line entry points.

Subcommands:

  fit            EIV line fit of a period-vs-amplitude^2 dataset, with the
                 derived pendulum length and deformation-ratio bound.
  exclusion      (beta0, alpha) exclusion boundaries for all registered
                 experiments, as a table, CSV and/or SVG.
  period         Pendulum period by the first-order formula, the full
                 quadrature, or direct trajectory integration.
  quantum-check  Invariant suite of the deformed-oscillator matrix
                 mechanics against the closed forms.
  scenarios      Registry inspection.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
A JSON config file (--config or the GUP_CONFIG environment variable)
overrides the built-in defaults; unknown or ill-typed keys are rejected
by name.
"""

from __future__ import annotations

import argparse
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
    "grid": {"beta0_min": 1e-4, "beta0_max": 1e8, "points": 121},
    "scenarios": None,
}

_CONFIG_NUMERIC = {
    "pendulum.mass_kg",
    "pendulum.gravity_m_s2",
    "fit.confidence_level",
    "fit.sigma_amplitude_sq_m2",
    "fit.sigma_period_s",
    "grid.beta0_min",
    "grid.beta0_max",
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
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ConfigError(f"config: key {dotted!r} must be a number")
                if value <= 0.0:
                    raise ConfigError(f"config: key {dotted!r} must be positive")
                if dotted == "fit.confidence_level" and not value < 1.0:
                    raise ConfigError(
                        "config: key 'fit.confidence_level' must be below 1"
                    )
            elif dotted == "grid.points":
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ConfigError(
                        "config: key 'grid.points' must be a positive integer"
                    )
            merged[section][key] = value
    if merged["grid"]["beta0_min"] > merged["grid"]["beta0_max"]:
        raise ConfigError("config: 'grid.beta0_min' exceeds 'grid.beta0_max'")
    return merged


def _pendulum_from_config(config: dict, length: float) -> dynamics.PendulumConfig:
    p = config["pendulum"]
    return dynamics.PendulumConfig(
        mass=p["mass_kg"], length=length, gravity=p["gravity_m_s2"]
    )


# --- dataset ingestion -----------------------------------------------------

_BASE_COLUMNS = ("amplitude_sq_cm2", "period_s")
_SIGMA_COLUMNS = ("sigma_amp_sq_cm2", "sigma_period_s")


@dataclass(frozen=True)
class Dataset:
    """Parsed dataset plus the raw cm^2-unit values for round-tripping."""

    path: str
    series: evfit.MeasurementSeries
    raw_rows: tuple[tuple[float, ...], ...]
    header: tuple[str, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.raw_rows:
            lines.append(",".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"


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
            lines = handle.read().splitlines()
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or exc}") from None
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise DatasetError(f"{path}: file is empty")
    header_line = rows[0][1]
    header = tuple(name.strip() for name in header_line.split(","))
    if header not in (_BASE_COLUMNS, _BASE_COLUMNS + _SIGMA_COLUMNS):
        raise DatasetError(
            f"{path}:1: header must be {','.join(_BASE_COLUMNS)}"
            f"[,{','.join(_SIGMA_COLUMNS)}], got {header_line!r}"
        )
    expected = len(header)
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
    if not raw:
        raise DatasetError(f"{path}: no data rows")
    data = np.asarray(raw)
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
    return Dataset(path=path, series=series, raw_rows=tuple(raw), header=header)


# --- fit -------------------------------------------------------------------


def _fit_chain(dataset: Dataset, config: dict) -> dict:
    """Run fit -> length -> ratio bound -> alpha and collect everything."""
    level = config["fit"]["confidence_level"]
    fit = evfit.odr_fit(dataset.series)
    slope_ci = evfit.confidence_interval(fit, "slope", level)
    intercept_ci = evfit.confidence_interval(fit, "intercept", level)
    gravity = config["pendulum"]["gravity_m_s2"]
    mass = config["pendulum"]["mass_kg"]
    length, length_se = bounds.derived_length(
        fit.intercept, gravity, fit.intercept_se
    )
    pend = _pendulum_from_config(config, length)
    ratio = bounds.ratio_bound_from_fit(fit, pend, level)
    n_particles = bounds.nucleon_count(mass)
    alpha_min = bounds.alpha_bound(ratio.upper, n_particles, 1.0)
    return {
        "dataset": dataset.path,
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


def cmd_fit(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    path = args.dataset if args.dataset else bundled_dataset_path()
    dataset = load_dataset(
        path,
        config["fit"]["sigma_amplitude_sq_m2"],
        config["fit"]["sigma_period_s"],
    )
    report = _fit_chain(dataset, config)
    level_pct = 100.0 * report["confidence_level"]
    print(f"dataset            {report['dataset']} ({report['n_points']} points)")
    print(
        f"slope              {report['slope_s_per_m2']:.6g} s/m^2"
        f"  [{level_pct:g}% CI {report['slope_ci'][0]:.6g}, "
        f"{report['slope_ci'][1]:.6g}]"
    )
    print(
        f"intercept          {report['intercept_s']:.8g} s"
        f"  [{level_pct:g}% CI {report['intercept_ci'][0]:.8g}, "
        f"{report['intercept_ci'][1]:.8g}]"
    )
    print(f"reduced chi^2      {report['reduced_chi2']:.4g} (dof {report['dof']})")
    print(
        f"derived length     {report['derived_length_m']:.6f} m"
        f" +- {report['derived_length_se_m']:.6f}"
    )
    print(
        f"ratio bound        {report['ratio_bound']['lower']:.6g}"
        f" < beta0/N^alpha < {report['ratio_bound']['upper']:.6g}"
    )
    print(f"alpha_min(beta0=1) {report['alpha_min_at_beta0_1']:.4f}")
    out_path = args.out_json
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to  {out_path}")
    return EXIT_OK


# --- exclusion -------------------------------------------------------------


def _scenario_curves(config: dict) -> list[dict]:
    scenarios = bounds.load_scenarios(config["scenarios"])
    fit_bound = None
    if any(s.kind == "pendulum-fit" for s in scenarios):
        dataset = load_dataset(
            bundled_dataset_path(),
            config["fit"]["sigma_amplitude_sq_m2"],
            config["fit"]["sigma_period_s"],
        )
        report = _fit_chain(dataset, config)
        fit_bound = bounds.RatioBound(**report["ratio_bound"])
    grid = bounds.beta0_log_grid(**config["grid"])
    curves = []
    for scenario in scenarios:
        if scenario.style == "none":
            continue
        upper, n_particles = bounds.resolve_scenario(scenario, fit_bound)
        boundary = bounds.exclusion_boundary(upper, n_particles, grid)
        curves.append(
            {
                "label": scenario.label,
                "style": scenario.style,
                "upper": upper,
                "n_particles": n_particles,
                "boundary": boundary,
            }
        )
    return curves


def cmd_exclusion(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    curves = _scenario_curves(config)
    for curve in curves:
        alpha_unit = bounds.alpha_bound(curve["upper"], curve["n_particles"], 1.0)
        print(
            f"{curve['label']:<38} style={curve['style']:<6} "
            f"B={curve['upper']:.4g} N={curve['n_particles']:.4g} "
            f"alpha_min(beta0=1)={alpha_unit:+.4f}"
        )
    if args.out_csv:
        lines = ["label,beta0,alpha_min,style"]
        for curve in curves:
            for beta0, alpha in curve["boundary"].points:
                lines.append(
                    f"{curve['label']},{beta0:.12g},{alpha:.12g},{curve['style']}"
                )
        with open(args.out_csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"boundary CSV written to {args.out_csv}")
    if args.out_svg:
        series = [
            svgplot.Series(
                label=curve["label"],
                points=list(curve["boundary"].points),
                style=curve["style"],
                shade_below=True,
            )
            for curve in curves
        ]
        svg = svgplot.line_chart(
            series,
            title="Excluded deformation parameters (shaded side ruled out)",
            x_label="beta0",
            y_label="alpha",
            x_log=True,
            x_range=(config["grid"]["beta0_min"], config["grid"]["beta0_max"]),
            y_range=(-1.0, 1.0),
        )
        with open(args.out_svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"exclusion plot written to {args.out_svg}")
    return EXIT_OK


# --- period ----------------------------------------------------------------


def cmd_period(args: argparse.Namespace) -> int:
    pend = dynamics.PendulumConfig(
        mass=args.mass, length=args.length, gravity=args.gravity
    )
    params = dynamics.DeformationParams(
        beta0=args.beta0, alpha=args.alpha, n_particles=args.n_particles
    )
    if args.amplitude < 0.0 or args.amplitude >= pend.length:
        raise DatasetError("amplitude must lie in [0, length)")
    if args.method == "first-order":
        period = dynamics.period_first_order(pend, params, args.amplitude)
        print(f"method=first-order amplitude_m={args.amplitude:.12g}")
        print(f"period_s={period:.12g}")
        return EXIT_OK
    if args.amplitude == 0.0:
        raise DatasetError(f"--{args.method} needs a positive amplitude")
    phi = math.asin(args.amplitude / pend.length)
    if args.method == "exact":
        period = dynamics.period_exact_quadrature(pend, params, phi, args.rel_tol)
        print(
            f"method=exact amplitude_m={args.amplitude:.12g} "
            f"angle_rad={phi:.12g} rel_tol={args.rel_tol:g}"
        )
        print(f"period_s={period:.12g}")
        return EXIT_OK
    period = dynamics.trajectory_period(pend, params, phi, args.rel_tol)
    print(
        f"method=trajectory amplitude_m={args.amplitude:.12g} "
        f"angle_rad={phi:.12g} rel_tol={args.rel_tol:g}"
    )
    print(f"period_s={period:.12g}")
    if args.out_csv:
        samples = dynamics.integrate_trajectory(
            pend, params, phi, 2.0 * period, rel_tol=args.rel_tol
        )
        lines = ["time_s,angle_rad,displacement_m"]
        for s in samples:
            lines.append(f"{s.time:.12g},{s.angle:.12g},{s.displacement:.12g}")
        with open(args.out_csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"trajectory written to {args.out_csv}")
    return EXIT_OK


# --- quantum check ---------------------------------------------------------


def _check_line(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'}  {name:<28} {detail}")
    return passed


def _commutator_residual(model: oscillator.OscillatorModel, dim: int) -> float:
    ops = oscillator.build_truncated_operators(model, dim)
    target = 1j * model.hbar * (
        np.eye(dim, dtype=complex) + model.beta * (ops.p @ ops.p)
    )
    residual = ops.x @ ops.p - ops.p @ ops.x - target
    interior = dim - 4
    return float(np.max(np.abs(residual[: interior - 1, : interior - 1])))


def cmd_quantum_check(args: argparse.Namespace) -> int:
    model = oscillator.OscillatorModel(
        mass=args.mass, omega=args.omega, hbar=args.hbar, beta=args.beta
    )
    state = oscillator.gazeau_klauder_state(model, args.j, 0.0, args.dimension)
    dim = state.dimension
    ops = oscillator.build_truncated_operators(model, dim)
    ok = True

    deficit = abs(1.0 - state.norm**2)
    ok &= _check_line("norm", deficit < 1e-10, f"deficit={deficit:.3e} tol=1e-10")

    t_probe = 2.345 / model.omega
    evolved = oscillator.evolve_gk(state, model, t_probe)
    rebuilt = oscillator.gazeau_klauder_state(
        model, args.j, model.omega * t_probe, dim
    )
    drift = float(np.max(np.abs(evolved.amplitudes - rebuilt.amplitudes)))
    ok &= _check_line(
        "temporal stability", drift < 1e-12, f"drift={drift:.3e} tol=1e-12"
    )

    h_exp = oscillator.matrix_expectation(state, ops.h)
    h_ref = model.hbar * model.omega * args.j
    h_err = abs(h_exp.real - h_ref) / h_ref if h_ref else abs(h_exp.real)
    ok &= _check_line(
        "<h> = hbar omega J", h_err < 1e-10, f"rel_err={h_err:.3e} tol=1e-10"
    )

    residuals = []
    scales = (1.0, 0.1, 0.01)
    for scale in scales:
        scaled = oscillator.OscillatorModel(
            mass=model.mass,
            omega=model.omega,
            hbar=model.hbar,
            beta=model.beta * scale,
        )
        residuals.append(_commutator_residual(scaled, dim))
    slope = np.polyfit(
        np.log10([model.beta * s for s in scales]), np.log10(residuals), 1
    )[0]
    ok &= _check_line(
        "commutator residual",
        abs(slope - 2.0) < 0.1,
        f"beta-scaling slope={slope:.3f} expected 2+-0.1",
    )

    times = np.linspace(0.0, 2.0 * math.pi / model.omega, 33)

    def closed_vs_matrix(mod: oscillator.OscillatorModel) -> float:
        st = oscillator.gazeau_klauder_state(mod, args.j, 0.0, dim)
        op = oscillator.build_truncated_operators(mod, dim)
        worst = 0.0
        for t in times:
            ev = oscillator.evolve_gk(st, mod, float(t))
            xm = oscillator.matrix_expectation(ev, op.x).real
            xc, _ = oscillator.expectation_xp_closed_form(
                mod, args.j, mod.omega * float(t)
            )
            worst = max(worst, abs(xm - xc))
        return worst

    dev_full = closed_vs_matrix(model)
    half = oscillator.OscillatorModel(
        mass=model.mass, omega=model.omega, hbar=model.hbar, beta=0.5 * model.beta
    )
    dev_half = closed_vs_matrix(half)
    ratio = dev_full / dev_half if dev_half else math.inf
    ok &= _check_line(
        "closed form vs matrix <x>",
        3.5 <= ratio <= 4.5,
        f"halving-beta ratio={ratio:.3f} expected ~4",
    )

    amplitude = math.sqrt(2.0 * model.hbar * args.j / (model.mass * model.omega))
    tiny_hbar = model.hbar * 1e-6
    classical = oscillator.OscillatorModel(
        mass=model.mass, omega=model.omega, hbar=tiny_hbar, beta=model.beta
    )
    x_ode = dynamics.integrate_oscillator_trajectory(
        model.mass, model.omega, model.beta, amplitude, times
    )
    x_closed = oscillator.trajectory_x_closed_form(classical, amplitude, times)
    z = model.beta * model.mass**2 * model.omega**2 * amplitude**2
    dev = float(np.max(np.abs(x_ode - x_closed)))
    tol = max(1e-3 * amplitude * z, 1e-13 * amplitude)
    ok &= _check_line(
        "hbar->0 vs classical ODE", dev < tol, f"max_dev={dev:.3e} tol={tol:.3e}"
    )

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
            f"{scenario.label:<38} kind={scenario.kind:<20} "
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
    p_per.add_argument("--mass", type=float, default=1.22, help="kg")
    p_per.add_argument("--length", type=float, default=2.9954, help="m")
    p_per.add_argument("--gravity", type=float, default=9.80393, help="m/s^2")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # ConfigError, DatasetError and ScenarioError are ValueErrors
    except (ValueError, evfit.DegenerateDataError) as exc:
        print(f"gup: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_FAILURES as exc:
        print(f"gup: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"gup: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
