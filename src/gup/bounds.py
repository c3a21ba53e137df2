"""Exclusion bounds on the deformation parameters.

A null experimental result limits the composite ratio beta0 / N^alpha
from above by some B.  In the (beta0, alpha) plane the admissible
region at fixed constituent count N is

    alpha > alpha_min(beta0) = (ln beta0 - ln B) / ln N,

a straight line in (log10 beta0, alpha) with slope 1 / log10 N.  This
module derives B from the pendulum timing fit and from diamagnetic
levitation, reads registered B values for the other experiments from the
scenario registry, and turns any (B, N) pair into a plottable boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

import numpy as np

from .constants import ATOMIC_MASS_UNIT, PLANCK_MOMENTUM_SQ, VACUUM_PERMEABILITY
from .dynamics import PendulumConfig
from .evfit import LinearFit, confidence_interval

__all__ = [
    "RatioBound",
    "ExperimentScenario",
    "ExclusionBoundary",
    "ScenarioError",
    "derived_length",
    "slope_coefficients",
    "theoretical_slope",
    "ratio_bound_from_fit",
    "nucleon_count",
    "alpha_bound",
    "beta0_log_grid",
    "exclusion_boundary",
    "sphere_mass",
    "levitation_frequency",
    "levitation_ratio_bound",
    "load_scenarios",
    "resolve_scenario",
    "json_number",
]

class ScenarioError(ValueError):
    """A scenario registry entry is malformed or incomplete."""


@dataclass(frozen=True)
class RatioBound:
    """Admissible interval for beta0 / N^alpha from one experiment."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.upper):
            raise ValueError("ratio bound requires lower <= upper")


@dataclass(frozen=True)
class ExperimentScenario:
    """One entry of the experiment registry.

    kind names the resolver in _RESOLVERS; parameters is the record that
    resolver reads.  style controls plotting ("solid", "dashed" or "none"
    for registered-but-not-plotted entries).  inferred lists parameter
    names whose values were back-computed rather than taken from a source.
    """

    kind: str
    label: str
    n_particles: float | None
    parameters: dict[str, Any]
    style: str = "solid"
    inferred: tuple[str, ...] = ()
    reference: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RESOLVERS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if self.style not in ("solid", "dashed", "none"):
            raise ScenarioError(f"unknown plot style {self.style!r}")
        if self.n_particles is not None and not 1.0 <= self.n_particles < math.inf:
            raise ScenarioError("n_particles must be finite and at least 1 when given")


@dataclass(frozen=True)
class ExclusionBoundary:
    """Sampled boundary curve alpha_min(beta0) for one experiment.

    points is a read-only (n, 2) float64 array of (beta0, alpha_min)
    rows.  Parameter pairs below the curve (in alpha) are excluded: they
    would have produced a signal above the experimental limit.
    """

    points: np.ndarray


def derived_length(t0: float, gravity: float, t0_sigma: float = 0.0):
    """Pendulum length from the small-amplitude period, with uncertainty.

    Inverts t0 = 2 pi sqrt(L/g); the returned sigma is 2 L sigma_t0/t0.
    """
    if not (t0 > 0.0 and gravity > 0.0):
        raise ValueError("t0 and gravity must be positive")
    if t0_sigma < 0.0:
        raise ValueError("t0_sigma must be non-negative")
    length = gravity * (t0 / (2.0 * math.pi)) ** 2
    return length, 2.0 * length * t0_sigma / t0


def slope_coefficients(pend: PendulumConfig) -> tuple[float, float]:
    """(c0, c1) of the period-vs-amplitude^2 line T' = c0 - ratio * c1.

    c0 is the classical anharmonic coefficient 2 pi sqrt(L/g) / (16 L^2)
    and c1 the deformation coefficient 2 pi sqrt(L/g) m^2 g /
    (2 (M_p c)^2 L); ratio is beta0 N^-alpha.  Units s/m^2.
    """
    t0 = pend.small_period
    c0 = t0 / (16.0 * pend.length**2)
    c1 = t0 * pend.mass**2 * pend.gravity / (2.0 * PLANCK_MOMENTUM_SQ * pend.length)
    return c0, c1


def theoretical_slope(pend: PendulumConfig, ratio: float) -> float:
    """Predicted slope of period vs displacement-amplitude^2 in s/m^2."""
    c0, c1 = slope_coefficients(pend)
    return c0 - ratio * c1


def ratio_bound_from_fit(
    fit: LinearFit, pend: PendulumConfig, level: float = 0.95
) -> RatioBound:
    """Invert the theoretical slope over the fitted slope's CI.

    The admissible ratio interval is [(c0 - s_hi)/c1, (c0 - s_lo)/c1]
    for slope CI [s_lo, s_hi]; a fitted slope above the classical value
    c0 makes the lower endpoint negative.
    """
    c0, c1 = slope_coefficients(pend)
    if c1 <= 0.0:
        raise ValueError("deformation coefficient must be positive")
    s_lo, s_hi = confidence_interval(fit, "slope", level)
    return RatioBound(lower=(c0 - s_hi) / c1, upper=(c0 - s_lo) / c1)


def nucleon_count(mass: float) -> float:
    """Number of nucleons in a body of the given mass, m / u."""
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    return mass / ATOMIC_MASS_UNIT


def alpha_bound(upper: float, n_particles: float, beta0: float = 1.0) -> float:
    """Smallest admissible suppression exponent at the given beta0.

    From beta0 N^-alpha <= upper: alpha_min = (ln beta0 - ln upper)/ln N.
    The region alpha > alpha_min survives the experiment.
    """
    _check_leverage(upper, n_particles)
    if beta0 <= 0.0:
        raise ValueError("beta0 must be positive")
    return (math.log(beta0) - math.log(upper)) / math.log(n_particles)


def _check_leverage(upper: float, n_particles: float) -> None:
    if not 0.0 < upper < math.inf:
        raise ValueError("ratio upper bound must be positive and finite")
    if not 1.0 < n_particles < math.inf:
        raise ValueError("n_particles must exceed 1 and be finite for suppression leverage")


def beta0_log_grid(
    beta0_min: float = 1e-4, beta0_max: float = 1e8, points: int = 121
) -> np.ndarray:
    """Log-spaced beta0 values; the default grid hits 1 exactly."""
    return 10.0 ** np.linspace(math.log10(beta0_min), math.log10(beta0_max), points)


def exclusion_boundary(
    upper: float, n_particles: float, beta0_grid=None
) -> ExclusionBoundary:
    """Boundary curve alpha_min(beta0) for a ratio bound B and count N."""
    if beta0_grid is None:
        beta0_grid = beta0_log_grid()
    grid = np.asarray(beta0_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("beta0 grid must be non-empty")
    _check_leverage(upper, n_particles)
    if np.any(grid <= 0.0):
        raise ValueError("beta0 must be positive")
    alphas = (np.log(grid) - math.log(upper)) / math.log(n_particles)
    points = np.column_stack((grid, alphas))
    points.flags.writeable = False
    return ExclusionBoundary(points=points)


def sphere_mass(density: float, radius: float) -> float:
    """Mass of a homogeneous sphere, density * (4/3) pi r^3."""
    if density <= 0.0 or radius <= 0.0:
        raise ValueError("density and radius must be positive")
    return density * (4.0 / 3.0) * math.pi * radius**3


def levitation_frequency(
    density: float, susceptibility: float, gradient: float
) -> float:
    """Trap frequency of a diamagnetically levitated sphere.

        omega = sqrt(chi_v / (rho mu_0)) * dB/dx

    Inputs in SI; the output is quoted in Hz-style units without a 2 pi
    conversion, matching how such trap frequencies are usually reported.
    """
    if density <= 0.0 or gradient < 0.0 or susceptibility < 0.0:
        raise ValueError("density must be positive; chi_v and dB/dx non-negative")
    return math.sqrt(susceptibility / (density * VACUUM_PERMEABILITY)) * gradient


def levitation_ratio_bound(
    mass: float,
    omega: float,
    amplitude: float,
    damping: float = 0.0,
    n_measurements: int = 1,
    delta_omega_override: float | None = None,
) -> RatioBound:
    """Ratio bound from an undetected frequency shift of a levitated sphere.

    The deformation shifts the trap frequency by beta m^2 omega^3 A^2/2;
    resolving shifts down to delta_omega_max = damping / sqrt(n_meas)
    (or an explicit override) bounds

        beta0 N^-alpha <= delta_omega_max * 2 (M_p c)^2 / (m^2 omega^3 A^2).

    The lower endpoint is 0: a projected null measurement has no
    negative branch.
    """
    if mass <= 0.0 or omega <= 0.0 or amplitude <= 0.0:
        raise ValueError("mass, omega and amplitude must be positive")
    if delta_omega_override is not None:
        delta_max = float(delta_omega_override)
    else:
        if damping <= 0.0 or n_measurements < 1:
            raise ValueError(
                "damping must be positive and n_measurements >= 1 "
                "unless delta_omega_override is given"
            )
        delta_max = damping / math.sqrt(n_measurements)
    if delta_max <= 0.0:
        raise ValueError("frequency resolution must be positive")
    upper = delta_max * 2.0 * PLANCK_MOMENTUM_SQ / (mass**2 * omega**3 * amplitude**2)
    return RatioBound(lower=0.0, upper=upper)


# --- registry loading ------------------------------------------------------

_REQUIRED_KEYS = {"kind", "label", "parameters"}
_OPTIONAL_KEYS = {"n_particles", "style", "inferred", "reference"}


def json_number(value: Any) -> "float | None":
    """A JSON number as a float, +-inf past float range; None if it is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # JSON allows integers float() cannot convert
        return math.inf if value > 0 else -math.inf


# the JSON type of each field, checked before a use of it could raise a TypeError
_FIELD_TYPES = {
    "kind": ("a string", lambda v: isinstance(v, str)),
    "parameters": ("an object", lambda v: isinstance(v, dict)),
    "n_particles": ("a number or null", lambda v: v is None or json_number(v) is not None),
    "inferred": ("an array of strings",
                 lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v)),
    "reference": ("an object of numbers",
                  lambda v: isinstance(v, dict) and None not in map(json_number, v.values())),
}


def _scenario_from_record(index: int, record: Any) -> ExperimentScenario:
    if not isinstance(record, dict):
        raise ScenarioError(f"scenario #{index} is not an object")
    keys = set(record)
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise ScenarioError(
            f"scenario #{index} is missing keys: {', '.join(sorted(missing))}"
        )
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ScenarioError(
            f"scenario #{index} has unknown keys: {', '.join(sorted(unknown))}"
        )
    for key, (expected, valid) in _FIELD_TYPES.items():
        if key in record and not valid(record[key]):
            raise ScenarioError(f"scenario #{index}: {key} must be {expected}")
    try:
        return ExperimentScenario(
            kind=record["kind"],
            label=str(record["label"]),
            n_particles=json_number(record.get("n_particles")),
            parameters=dict(record["parameters"]),
            style=record.get("style", "solid"),
            inferred=tuple(record.get("inferred", ())),
            reference=dict(record.get("reference", {})),
        )
    except ScenarioError as exc:
        raise ScenarioError(f"scenario #{index}: {exc}") from None


def load_scenarios(path: "str | None" = None) -> list[ExperimentScenario]:
    """Load the experiment registry, bundled by default.

    The registry is a JSON document {"version": 1, "scenarios": [...]};
    every entry is validated and malformed entries are reported by index
    and offending key.
    """
    if path is None:
        text = (
            resources.files("gup").joinpath("data/scenarios.json").read_text("utf-8")
        )
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"registry is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "scenarios" not in doc:
        raise ScenarioError("registry must be an object with a 'scenarios' array")
    entries = doc["scenarios"]
    if not isinstance(entries, list):
        raise ScenarioError("'scenarios' must be an array")
    return [_scenario_from_record(i, rec) for i, rec in enumerate(entries)]


def _registered_count(scenario: ExperimentScenario) -> float:
    if scenario.n_particles is None:
        raise ScenarioError(f"scenario {scenario.label!r} lacks n_particles")
    return scenario.n_particles


def _pendulum_fit(scenario: ExperimentScenario, fit_bound: RatioBound | None):
    # mass, gravity, sigmas and confidence level come from the config
    # that drove the fit, so registry parameters would be ignored
    if scenario.parameters:
        raise ScenarioError(
            f"scenario {scenario.label!r}: pendulum-fit takes its settings from "
            f"the config, not parameters: {', '.join(sorted(scenario.parameters))}"
        )
    if fit_bound is None:
        raise ScenarioError(f"scenario {scenario.label!r} needs a fitted RatioBound")
    return fit_bound.upper, _registered_count(scenario)


def _parameter(scenario: ExperimentScenario, key: str, *default):
    """Parameter key as a finite float; where it is absent or null, the default if given."""
    value = scenario.parameters.get(key)
    if value is None:
        if not default:
            raise ScenarioError(f"scenario {scenario.label!r} lacks {key!r}")
        return default[0]
    number = json_number(value)
    if number is None or not math.isfinite(number):
        raise ScenarioError(
            f"scenario {scenario.label!r}: {key!r} must be a finite number, got {value!r}"
        )
    return number


def _levitation(scenario: ExperimentScenario, fit_bound: RatioBound | None):
    density = _parameter(scenario, "density_kg_m3")
    mass = sphere_mass(density, _parameter(scenario, "radius_m"))
    omega = levitation_frequency(
        density,
        _parameter(scenario, "susceptibility"),
        _parameter(scenario, "field_gradient_T_m"),
    )
    bound = levitation_ratio_bound(
        mass,
        omega,
        _parameter(scenario, "amplitude_m"),
        damping=_parameter(scenario, "damping_hz", 0.0),
        n_measurements=int(_parameter(scenario, "n_measurements", 1)),
        delta_omega_override=_parameter(scenario, "delta_omega_override_hz", None),
    )
    n = scenario.n_particles
    return bound.upper, nucleon_count(mass) if n is None else n


def _registered(scenario: ExperimentScenario, fit_bound: RatioBound | None):
    return _parameter(scenario, "ratio_upper"), _registered_count(scenario)


# kind -> resolver (scenario, fit_bound) -> (B, N); the keys are the
# accepted kinds.  oscillator-frequency and optomechanical entries both
# carry a registered composite bound.
_RESOLVERS = {
    "pendulum-fit": _pendulum_fit,
    "oscillator-frequency": _registered,
    "levitation": _levitation,
    "optomechanical": _registered,
}


def resolve_scenario(
    scenario: ExperimentScenario, fit_bound: "RatioBound | None" = None
) -> tuple[float, float]:
    """(ratio upper bound B, constituent count N) for one scenario.

    pendulum-fit entries need the RatioBound obtained from the timing
    fit; levitation entries derive everything from their physical
    parameters; the remaining kinds carry a registered ratio_upper.
    """
    return _RESOLVERS[scenario.kind](scenario, fit_bound)
