"""Bound chains: slope inversion, exclusion curves, scenario registry."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from gup.bounds import (
    ExclusionBoundary,
    ExperimentScenario,
    RatioBound,
    ScenarioError,
    alpha_bound,
    beta0_log_grid,
    derived_length,
    exclusion_boundary,
    levitation_frequency,
    levitation_ratio_bound,
    load_scenarios,
    nucleon_count,
    ratio_bound_from_fit,
    resolve_scenario,
    slope_coefficients,
    sphere_mass,
    theoretical_slope,
)
from gup.constants import ATOMIC_MASS_UNIT, PLANCK_MOMENTUM_SQ
from gup.dynamics import PendulumConfig
from gup.evfit import confidence_interval, odr_fit


class TestDerivedLength:
    def test_unit_example(self):
        length, sigma = derived_length(2.0 * math.pi, 1.0)
        assert length == pytest.approx(1.0, rel=1e-15)
        assert sigma == 0.0

    def test_doubling_period_quadruples_length(self):
        l1, _ = derived_length(1.7, 9.8)
        l2, _ = derived_length(3.4, 9.8)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-14)

    def test_sigma_propagation(self):
        length, sigma = derived_length(3.0, 9.8, t0_sigma=0.003)
        assert sigma == pytest.approx(2.0 * length * 0.001, rel=1e-14)

    def test_experiment_value(self, timing_series, experiment):
        fit = odr_fit(timing_series)
        length, _ = derived_length(fit.intercept, experiment.gravity)
        assert length == pytest.approx(2.9954, abs=4e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derived_length(0.0, 9.8)
        with pytest.raises(ValueError):
            derived_length(1.0, 9.8, t0_sigma=-1.0)


class TestSlopeChain:
    def test_frozen_coefficients(self, experiment):
        c0, c1 = slope_coefficients(experiment)
        assert c0 == pytest.approx(0.02419232157288427, rel=1e-13)
        assert c1 == pytest.approx(0.19870528289386327, rel=1e-13)

    def test_zero_ratio_gives_classical_slope(self, experiment):
        c0, _ = slope_coefficients(experiment)
        assert theoretical_slope(experiment, 0.0) == c0

    def test_slope_vanishes_at_coefficient_ratio(self, experiment):
        c0, c1 = slope_coefficients(experiment)
        assert theoretical_slope(experiment, c0 / c1) == pytest.approx(0.0, abs=1e-18)

    def test_ratio_bound_round_trip(self, timing_series, experiment):
        fit = odr_fit(timing_series)
        bound = ratio_bound_from_fit(fit, experiment, level=0.95)
        s_lo, s_hi = confidence_interval(fit, "slope", 0.95)
        assert theoretical_slope(experiment, bound.upper) == pytest.approx(s_lo, rel=1e-10)
        assert theoretical_slope(experiment, bound.lower) == pytest.approx(s_hi, rel=1e-10)

    def test_ratio_bound_window(self, timing_series, experiment):
        bound = ratio_bound_from_fit(odr_fit(timing_series), experiment)
        assert bound.lower < bound.upper
        assert 0.009 < bound.upper < 0.013

    def test_ratio_bound_orders_endpoints(self):
        with pytest.raises(ValueError):
            RatioBound(lower=1.0, upper=0.5)


class TestAlphaBound:
    def test_pendulum_headline_number(self):
        assert alpha_bound(0.011, 7.32e26) == pytest.approx(0.07, abs=0.01)

    def test_round_trip_on_random_samples(self, rng):
        # beta0 N^-alpha = B inverted back to alpha, 100 draws
        for _ in range(100):
            alpha = rng.uniform(-2.0, 2.0)
            n = 10.0 ** rng.uniform(3.0, 27.0)
            beta0 = 10.0 ** rng.uniform(-4.0, 8.0)
            upper = beta0 * n ** (-alpha)
            recovered = alpha_bound(upper, n, beta0)
            assert recovered == pytest.approx(alpha, rel=1e-12, abs=1e-12)

    def test_unit_beta0_closed_form(self):
        assert alpha_bound(1e6, 1e24) == pytest.approx(-0.25, rel=1e-12)
        assert alpha_bound(1e-2, 1e20) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"upper": 0.0, "n_particles": 1e6},
        {"upper": 1.0, "n_particles": 1.0},
        {"upper": 1.0, "n_particles": 1e6, "beta0": 0.0},
        {"upper": math.inf, "n_particles": 1e6},
        {"upper": 1.0, "n_particles": math.inf},
    ])
    def test_rejects_degenerate_inputs(self, kwargs):
        with pytest.raises(ValueError):
            alpha_bound(**kwargs)


class TestExclusionBoundary:
    def test_default_grid(self):
        grid = beta0_log_grid()
        assert grid.size == 121
        assert grid[0] == pytest.approx(1e-4, rel=1e-12)
        assert grid[-1] == pytest.approx(1e8, rel=1e-12)
        assert grid[40] == 1.0

    def test_monotone_in_log_beta0(self):
        boundary = exclusion_boundary(0.011, 7.32e26)
        alphas = [alpha for _, alpha in boundary.points]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_slope_in_decade_coordinates(self):
        # d alpha / d log10 beta0 = 1 / log10 N
        n = 1e20
        boundary = exclusion_boundary(1.0, n, beta0_grid=[1.0, 10.0])
        (_, a0), (_, a1) = boundary.points
        assert a1 - a0 == pytest.approx(1.0 / 20.0, rel=1e-12)

    def test_custom_grid_round_trip(self, rng):
        n, upper = 5e18, 0.3
        grid = 10.0 ** rng.uniform(-3.0, 7.0, size=25)
        boundary = exclusion_boundary(upper, n, beta0_grid=grid)
        for beta0, alpha in boundary.points:
            assert beta0 * n ** (-alpha) == pytest.approx(upper, rel=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            exclusion_boundary(1.0, 1e6, beta0_grid=[])

    @pytest.mark.parametrize("upper,n,grid,fragment", [
        (0.0, 1e6, [1.0], "ratio upper bound must be positive"),
        (1.0, 1.0, [1.0], "n_particles must exceed 1"),
        (1.0, 1e6, [1.0, 0.0], "beta0 must be positive"),
        (math.inf, 1e6, [1.0], "ratio upper bound must be positive and finite"),
        (math.nan, 1e6, [1.0], "ratio upper bound must be positive and finite"),
        (1.0, math.inf, [1.0], "n_particles must exceed 1 and be finite"),
    ])
    def test_rejects_degenerate_inputs(self, upper, n, grid, fragment):
        with pytest.raises(ValueError, match=fragment):
            exclusion_boundary(upper, n, beta0_grid=grid)

    def test_matches_pointwise_alpha_bound(self):
        grid = beta0_log_grid(1e-3, 1e7, 57)
        boundary = exclusion_boundary(0.3, 5e18, beta0_grid=grid)
        for beta0, alpha in boundary.points:
            assert alpha == pytest.approx(alpha_bound(0.3, 5e18, beta0), abs=1e-15)

    def test_configured_grid_endpoints(self):
        grid = beta0_log_grid(1e-2, 1e4, 7)
        np.testing.assert_allclose(grid, 10.0 ** np.arange(-2.0, 5.0), rtol=1e-15)
        assert beta0_log_grid(points=1).tolist() == [1e-4]


class TestNucleonCount:
    def test_uses_atomic_mass_unit(self):
        assert nucleon_count(ATOMIC_MASS_UNIT) == pytest.approx(1.0, rel=1e-15)

    def test_pendulum_bob(self):
        assert nucleon_count(1.22) == pytest.approx(7.347e26, rel=1e-3)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            nucleon_count(0.0)


class TestLevitation:
    def test_gold_sphere_mass(self):
        assert sphere_mass(19300.0, 0.05) == pytest.approx(10.1054, rel=1e-4)

    def test_trap_frequency(self):
        omega = levitation_frequency(19300.0, 3.287e-5, 1000.0)
        assert omega == pytest.approx(36.81, abs=0.01)

    def test_bound_from_damping(self):
        mass = sphere_mass(19300.0, 0.05)
        omega = levitation_frequency(19300.0, 3.287e-5, 1000.0)
        bound = levitation_ratio_bound(mass, omega, 0.1, damping=1.2e-7)
        assert bound.lower == 0.0
        expected = 1.2e-7 * 2.0 * PLANCK_MOMENTUM_SQ / (mass**2 * omega**3 * 0.1**2)
        assert bound.upper == pytest.approx(expected, rel=1e-14)

    def test_averaging_tightens_bound(self):
        kwargs = dict(mass=10.0, omega=36.8, amplitude=0.1, damping=1e-7)
        single = levitation_ratio_bound(n_measurements=1, **kwargs)
        many = levitation_ratio_bound(n_measurements=100, **kwargs)
        assert many.upper == pytest.approx(single.upper / 10.0, rel=1e-13)

    def test_override_wins(self):
        a = levitation_ratio_bound(10.0, 36.8, 0.1, delta_omega_override=1e-4)
        b = levitation_ratio_bound(10.0, 36.8, 0.1, damping=5.0, delta_omega_override=1e-4)
        assert a.upper == b.upper

    def test_requires_resolution_source(self):
        with pytest.raises(ValueError):
            levitation_ratio_bound(10.0, 36.8, 0.1)

    @pytest.mark.parametrize("args", [(0.0, 36.8, 0.1), (10.0, 0.0, 0.1), (10.0, 36.8, -0.1)])
    def test_rejects_non_positive_arguments(self, args):
        with pytest.raises(ValueError, match="must be positive"):
            levitation_ratio_bound(*args, damping=1e-7)


class TestRegistry:
    def test_bundled_registry_loads(self):
        scenarios = load_scenarios()
        assert len(scenarios) == 5
        kinds = {s.kind for s in scenarios}
        assert kinds == {
            "pendulum-fit", "oscillator-frequency", "levitation", "optomechanical"
        }

    def test_literature_boundary_points_at_unit_strength(self):
        registered = {
            s.label: s
            for s in load_scenarios()
            if s.kind == "oscillator-frequency"
            and "alpha_min_at_unit_strength" in s.reference
        }
        assert len(registered) == 2
        for scenario, expected in zip(
            sorted(registered.values(), key=lambda s: s.n_particles),
            (-0.33, -0.25),
        ):
            upper, n = resolve_scenario(scenario)
            boundary = exclusion_boundary(upper, n)
            at_unit = dict(boundary.points)[1.0]
            assert at_unit == pytest.approx(expected, abs=5e-3)

    def test_levitation_scenario_resolves(self):
        scenario = next(s for s in load_scenarios() if s.kind == "levitation")
        upper, n = resolve_scenario(scenario)
        assert upper > 0.0
        assert n == pytest.approx(nucleon_count(sphere_mass(19300.0, 0.05)), rel=1e-12)
        assert alpha_bound(upper, n) == pytest.approx(0.35, abs=0.01)

    def test_pendulum_scenario_needs_fit(self):
        scenario = next(s for s in load_scenarios() if s.kind == "pendulum-fit")
        with pytest.raises(ScenarioError):
            resolve_scenario(scenario)
        upper, n = resolve_scenario(scenario, RatioBound(0.0, 0.011))
        assert upper == 0.011
        assert n == 7.32e26

    def test_pendulum_scenario_rejects_parameters(self):
        # the fit reads mass, gravity, sigmas and level from the config only
        scenario = ExperimentScenario(
            kind="pendulum-fit", label="bob", n_particles=7.32e26,
            parameters={"mass_kg": 1.22, "confidence_level": 0.9},
        )
        with pytest.raises(ScenarioError, match="confidence_level, mass_kg"):
            resolve_scenario(scenario, RatioBound(0.0, 0.011))

    @pytest.mark.parametrize("kind", ["oscillator-frequency", "optomechanical"])
    def test_registered_kinds_read_ratio_upper(self, kind):
        entry = ExperimentScenario(
            kind=kind, label="probe", n_particles=1e9, parameters={"ratio_upper": 2.0}
        )
        assert resolve_scenario(entry) == (2.0, 1e9)
        bare = ExperimentScenario(kind=kind, label="bare", n_particles=1e9, parameters={})
        with pytest.raises(ScenarioError, match="lacks 'ratio_upper'"):
            resolve_scenario(bare)

    def test_inferred_parameters_are_flagged(self):
        flagged = [s for s in load_scenarios() if s.inferred]
        assert flagged
        for s in flagged:
            for name in s.inferred:
                assert name in s.parameters or name == "n_particles"

    def test_load_from_explicit_path(self, tmp_path):
        doc = {
            "version": 1,
            "scenarios": [{
                "kind": "optomechanical",
                "label": "probe",
                "n_particles": 1e9,
                "parameters": {"ratio_upper": 2.0},
            }],
        }
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(doc))
        scenarios = load_scenarios(str(path))
        assert scenarios[0].label == "probe"
        assert resolve_scenario(scenarios[0]) == (2.0, 1e9)

    @pytest.mark.parametrize("mangle,fragment", [
        (lambda d: d["scenarios"][0].pop("kind"), "missing keys: kind"),
        (lambda d: d["scenarios"][0].update(surprise=1), "unknown keys: surprise"),
        (lambda d: d["scenarios"][0].update(kind="astrology"), "unknown scenario kind"),
        (lambda d: d.pop("scenarios"), "'scenarios'"),
        # fields of the wrong JSON type
        (lambda d: d["scenarios"][0].update(n_particles=[1]), "#0: n_particles must be a number"),
        (lambda d: d["scenarios"][0].update(kind=[]), "#0: kind must be a string"),
        (lambda d: d["scenarios"][0].update(inferred=5), "#0: inferred must be an array"),
        (lambda d: d["scenarios"][0].update(reference=[1]), "#0: reference must be an object"),
        (lambda d: d["scenarios"][0].update(parameters={"ratio_upper": [1]}),
         "'probe': 'ratio_upper' must be a finite number"),
        # numbers past float range, or no number at all
        (lambda d: d["scenarios"][0].update(parameters={"ratio_upper": math.inf}),
         "'probe': 'ratio_upper' must be a finite number"),
        (lambda d: d["scenarios"][0].update(parameters={"ratio_upper": math.nan}),
         "'probe': 'ratio_upper' must be a finite number"),
        (lambda d: d["scenarios"][0].update(n_particles=math.inf), "#0: n_particles must be finite"),
        (lambda d: d["scenarios"][0].update(n_particles=10**400), "#0: n_particles must be finite"),
    ])
    def test_validation_names_the_problem(self, tmp_path, mangle, fragment):
        doc = {
            "version": 1,
            "scenarios": [{
                "kind": "optomechanical",
                "label": "probe",
                "n_particles": 1e9,
                "parameters": {"ratio_upper": 2.0},
            }],
        }
        mangle(doc)
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=fragment):
            for scenario in load_scenarios(str(path)):
                resolve_scenario(scenario)

    def test_error_reports_index(self, tmp_path):
        doc = {"version": 1, "scenarios": [
            {"kind": "optomechanical", "label": "good", "n_particles": 1e9,
             "parameters": {"ratio_upper": 2.0}},
            {"kind": "optomechanical", "label": "bad"},
        ]}
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="#1"):
            load_scenarios(str(path))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenarios(str(path))

    def test_scenario_validation(self):
        with pytest.raises(ScenarioError):
            ExperimentScenario(kind="seance", label="x", n_particles=1.0, parameters={})
        with pytest.raises(ScenarioError):
            ExperimentScenario(
                kind="levitation", label="x", n_particles=0.5, parameters={}
            )
        with pytest.raises(ScenarioError):
            ExperimentScenario(
                kind="levitation", label="x", n_particles=None, parameters={},
                style="dotted",
            )
        with pytest.raises(ScenarioError, match="n_particles must be finite"):
            ExperimentScenario(
                kind="levitation", label="x", n_particles=math.inf, parameters={}
            )

    def test_missing_levitation_parameter_named(self):
        scenario = ExperimentScenario(
            kind="levitation", label="thin", n_particles=None,
            parameters={"density_kg_m3": 19300.0},
        )
        with pytest.raises(ScenarioError, match="radius_m"):
            resolve_scenario(scenario)

    def test_exclusion_boundary_is_frozen_structure(self):
        boundary = ExclusionBoundary(points=((1.0, 0.5),))
        assert boundary.points == ((1.0, 0.5),)
        with pytest.raises(AttributeError):
            boundary.points = ()
