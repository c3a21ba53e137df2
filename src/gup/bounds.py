"""Exclusion bounds on the deformation parameters.

A null experimental result limits the composite ratio beta0 / N^alpha
from above by some B.  In the (beta0, alpha) plane the admissible
region at fixed constituent count N is

    alpha > alpha_min(beta0) = (ln beta0 - ln B) / ln N,

a straight line in (log10 beta0, alpha) with slope 1 / log10 N.  This
module derives B for the experiments handled here (pendulum timing fit,
diamagnetic levitation, pulsed optomechanics), carries a registry of
fixed literature bounds, and turns any (B, N) pair into a plottable
boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

import numpy as np

from .constants import ATOMIC_MASS_UNIT, REDUCED_PLANCK, VACUUM_PERMEABILITY
from .constants import PLANCK_MOMENTUM_SQ
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
    "default_beta0_grid",
    "exclusion_boundary",
    "sphere_mass",
    "levitation_frequency",
    "levitation_ratio_bound",
    "optomech_coupling",
    "optomech_field",
    "optomech_ratio_bound",
    "literature_bounds",
    "load_scenarios",
    "resolve_scenario",
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

    kind selects the bound pipeline; parameters is the kind-specific
    record.  style controls plotting ("solid", "dashed" or "none" for
    registered-but-not-plotted entries).  inferred lists parameter names
    whose values were back-computed rather than taken from a source.
    """

    kind: str
    label: str
    n_particles: float | None
    parameters: dict[str, Any]
    style: str = "solid"
    inferred: tuple[str, ...] = ()
    reference: dict[str, float] = field(default_factory=dict)

    _KINDS = ("pendulum-fit", "oscillator-frequency", "levitation", "optomechanical")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if self.style not in ("solid", "dashed", "none"):
            raise ScenarioError(f"unknown plot style {self.style!r}")
        if self.n_particles is not None and not self.n_particles >= 1.0:
            raise ScenarioError("n_particles must be at least 1 when given")


@dataclass(frozen=True)
class ExclusionBoundary:
    """Sampled boundary curve alpha_min(beta0) for one experiment.

    Parameter pairs below the curve (in alpha) are excluded: they would
    have produced a signal above the experimental limit.
    """

    points: tuple[tuple[float, float], ...]
    excluded_side: str = "below"


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
    if upper <= 0.0:
        raise ValueError("ratio upper bound must be positive")
    if n_particles <= 1.0:
        raise ValueError("n_particles must exceed 1 for suppression leverage")
    if beta0 <= 0.0:
        raise ValueError("beta0 must be positive")
    return (math.log(beta0) - math.log(upper)) / math.log(n_particles)


def default_beta0_grid(num: int = 121) -> np.ndarray:
    """Log-spaced beta0 values covering 1e-4 to 1e8, hitting 1 exactly."""
    return 10.0 ** np.linspace(-4.0, 8.0, num)


def exclusion_boundary(
    upper: float, n_particles: float, beta0_grid=None
) -> ExclusionBoundary:
    """Boundary curve alpha_min(beta0) for a ratio bound B and count N."""
    if beta0_grid is None:
        beta0_grid = default_beta0_grid()
    grid = np.asarray(beta0_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("beta0 grid must be non-empty")
    points = tuple(
        (float(b0), alpha_bound(upper, n_particles, float(b0))) for b0 in grid
    )
    return ExclusionBoundary(points=points, excluded_side="below")


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


def optomech_coupling(
    finesse: float, wavelength: float, mass: float, omega: float
) -> float:
    """Dimensionless pulse-oscillator coupling of a cavity interaction.

        lambda = (4 F / lambda_L) sqrt(hbar / (m omega))
    """
    if min(finesse, wavelength, mass, omega) <= 0.0:
        raise ValueError("finesse, wavelength, mass and omega must be positive")
    return (4.0 * finesse / wavelength) * math.sqrt(REDUCED_PLANCK / (mass * omega))


def optomech_field(
    xi: complex,
    lam: float,
    n_photons: float,
    beta: float,
    mass: float,
    omega: float,
    p_mean: float = 0.0,
) -> complex:
    """Mean light-pulse field after interacting with a deformed oscillator.

    First order in beta:

        <a_l> = xi exp(-2 i lam^2 N_p
                       - (4/3) i beta hbar m omega lam^4 N_p^3
                       + 2 i beta lam^2 N_p <p>^2)

    p_mean = 0 reproduces the ground-state expression; a coherent
    oscillator state contributes through its mean momentum only.
    """
    phase = (
        -2.0 * lam**2 * n_photons
        - (4.0 / 3.0) * beta * REDUCED_PLANCK * mass * omega * lam**4 * n_photons**3
        + 2.0 * beta * lam**2 * n_photons * p_mean**2
    )
    return complex(xi) * complex(math.cos(phase), math.sin(phase))


def optomech_phase_coefficient(
    lam: float, n_photons: float, mass: float, omega: float, p_mean: float = 0.0
) -> float:
    """Deformation-phase magnitude per unit beta of the pulse field."""
    return (
        (4.0 / 3.0) * REDUCED_PLANCK * mass * omega * lam**4 * n_photons**3
        + 2.0 * lam**2 * n_photons * p_mean**2
    )


def optomech_ratio_bound(
    phase_resolution: float,
    lam: float,
    n_photons: float,
    mass: float,
    omega: float,
    p_mean: float = 0.0,
) -> RatioBound:
    """Ratio bound from an unresolved deformation phase on the pulse.

    The extra phase is linear in beta, so the smallest resolvable phase
    maps directly onto an upper bound for beta0 N^-alpha.
    """
    if phase_resolution < 0.0:
        raise ValueError("phase resolution must be non-negative")
    coefficient = optomech_phase_coefficient(lam, n_photons, mass, omega, p_mean)
    if coefficient <= 0.0:
        raise ValueError("deformation phase coefficient must be positive")
    upper = phase_resolution * PLANCK_MOMENTUM_SQ / coefficient
    return RatioBound(lower=0.0, upper=upper)


def literature_bounds() -> list[ExperimentScenario]:
    """Registry entries carrying fixed published alpha bounds."""
    return [
        s for s in load_scenarios() if "alpha_min_at_unit_strength" in s.reference
    ]


# --- registry loading ------------------------------------------------------

_REQUIRED_KEYS = {"kind", "label", "parameters"}
_OPTIONAL_KEYS = {"n_particles", "style", "inferred", "reference"}


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
    params = record["parameters"]
    if not isinstance(params, dict):
        raise ScenarioError(f"scenario #{index}: parameters must be an object")
    n_particles = record.get("n_particles")
    try:
        return ExperimentScenario(
            kind=record["kind"],
            label=str(record["label"]),
            n_particles=None if n_particles is None else float(n_particles),
            parameters=dict(params),
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


def resolve_scenario(
    scenario: ExperimentScenario, fit_bound: "RatioBound | None" = None
) -> tuple[float, float]:
    """(ratio upper bound B, constituent count N) for one scenario.

    pendulum-fit entries need the RatioBound obtained from the timing
    fit; levitation entries derive everything from their physical
    parameters; the remaining kinds carry a registered ratio_upper.
    """
    p = scenario.parameters
    if scenario.kind == "pendulum-fit":
        if fit_bound is None:
            raise ScenarioError(
                f"scenario {scenario.label!r} needs a fitted RatioBound"
            )
        if scenario.n_particles is None:
            raise ScenarioError(f"scenario {scenario.label!r} lacks n_particles")
        return fit_bound.upper, scenario.n_particles
    if scenario.kind == "levitation":
        try:
            mass = sphere_mass(p["density_kg_m3"], p["radius_m"])
            omega = levitation_frequency(
                p["density_kg_m3"], p["susceptibility"], p["field_gradient_T_m"]
            )
            bound = levitation_ratio_bound(
                mass,
                omega,
                p["amplitude_m"],
                damping=p.get("damping_hz", 0.0),
                n_measurements=int(p.get("n_measurements", 1)),
                delta_omega_override=p.get("delta_omega_override_hz"),
            )
        except KeyError as exc:
            raise ScenarioError(
                f"scenario {scenario.label!r} lacks parameter {exc.args[0]!r}"
            ) from None
        n = scenario.n_particles
        return bound.upper, nucleon_count(mass) if n is None else n
    # oscillator-frequency and optomechanical: registered composite bound
    if "ratio_upper" not in p:
        raise ScenarioError(f"scenario {scenario.label!r} lacks 'ratio_upper'")
    if scenario.n_particles is None:
        raise ScenarioError(f"scenario {scenario.label!r} lacks n_particles")
    return float(p["ratio_upper"]), scenario.n_particles
