"""Pendulum timing, oscillator matrix mechanics and exclusion bounds
for a minimal-length deformed commutator.

The modules split along the physics: `dynamics` integrates the
classical deformed equations of motion and pendulum periods, `evfit`
fits period-vs-amplitude^2 data with errors on both axes, `oscillator`
carries the quantum cross-check, and `bounds` turns the fit into a ratio
bound (`pendulum_fit`) and the registry into exclusion curves
(`scenario_curves`).  `cli` only parses and formats for the `gup` command.
"""

from .bounds import (
    ExclusionBoundary,
    ExperimentScenario,
    RatioBound,
    alpha_bound,
    derived_length,
    exclusion_boundary,
    levitation_frequency,
    levitation_ratio_bound,
    load_scenarios,
    nucleon_count,
    ratio_bound_from_fit,
)
from .constants import (
    ATOMIC_MASS_UNIT,
    PLANCK_MASS,
    PLANCK_MOMENTUM_SQ,
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
)
from .dynamics import (
    DeformationParams,
    PendulumConfig,
    integrate_oscillator_trajectory,
    integrate_trajectory,
    momentum_remap,
    period_beta_linearized,
    period_exact_quadrature,
    period_first_order,
    trajectory_period,
)
from .evfit import (
    LinearFit,
    MeasurementSeries,
    confidence_interval,
    odr_fit,
    wls_fit,
)
from .oscillator import (
    GKState,
    OscillatorModel,
    build_truncated_operators,
    evolve_gk,
    gazeau_klauder_state,
    trajectory_x_closed_form,
)

__version__ = "0.1.0"
