"""Pendulum dynamics: periods, quadrature, trajectory integration."""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest

from gup import dynamics
from gup.constants import PLANCK_MOMENTUM_SQ
from gup.dynamics import (
    DeformationParams,
    PendulumConfig,
    QuadratureError,
    TrajectoryError,
    integrate_oscillator_trajectory,
    integrate_trajectory,
    momentum_remap,
    period_beta_linearized,
    period_exact_quadrature,
    period_first_order,
    trajectory_period,
)

from conftest import agm_pendulum_period, composite_pendulum_period, pendulum_zero_crossings


class TestDeformationParams:
    def test_unit_strength_single_particle(self):
        params = DeformationParams(beta0=1.0)
        assert params.effective_beta == pytest.approx(1.0 / PLANCK_MOMENTUM_SQ, rel=1e-15)

    def test_suppression_by_constituent_count(self):
        base = DeformationParams(beta0=1.0)
        suppressed = DeformationParams(beta0=1.0, alpha=2.0, n_particles=10.0)
        assert suppressed.effective_beta == pytest.approx(base.effective_beta / 100.0, rel=1e-14)

    def test_zero_strength_is_exactly_zero(self):
        assert DeformationParams(beta0=0.0).effective_beta == 0.0

    @pytest.mark.parametrize("alpha", [-400.0, 400.0])
    def test_zero_strength_at_any_suppression(self, alpha):
        params = DeformationParams(beta0=0.0, alpha=alpha, n_particles=10.0)
        assert params.effective_beta == 0.0

    def test_suppression_past_float_range_rounds_to_zero(self):
        # 10^400 overflows float64; beta0 / 10^400 rounds to 0
        assert DeformationParams(beta0=1.0, alpha=400.0, n_particles=10.0).effective_beta == 0.0

    def test_enhancement_rounding_to_zero_overflows(self):
        # 10^-400 rounds to 0, so beta0 / 10^-400 overflows
        params = DeformationParams(beta0=1.0, alpha=-400.0, n_particles=10.0)
        with pytest.raises(ValueError, match="effective beta overflows for n_particles=10.0"):
            params.effective_beta

    @pytest.mark.parametrize("kwargs", [
        {"beta0": -1.0},
        {"beta0": 1.0, "n_particles": 0.5},
        {"beta0": math.nan},
        {"beta0": 1.0, "alpha": math.inf},
    ])
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DeformationParams(**kwargs)


class TestPendulumConfig:
    def test_small_period(self, experiment):
        expected = 2.0 * math.pi * math.sqrt(experiment.length / experiment.gravity)
        assert experiment.small_period == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("field", ["mass", "length", "gravity"])
    def test_rejects_non_positive(self, field):
        kwargs = {"mass": 1.0, "length": 1.0, "gravity": 9.8, field: 0.0}
        with pytest.raises(ValueError):
            PendulumConfig(**kwargs)

    @pytest.mark.parametrize("mass", [1e160, 1e200])
    def test_rejects_overflowing_strength(self, mass):
        # mass**2 used to raise OverflowError in the period formulas
        with pytest.raises(ValueError, match=r"m\^2 g L overflows"):
            PendulumConfig(mass=mass, length=2.9954, gravity=9.80393)


class TestMomentumRemap:
    def test_identity_at_zero_beta(self):
        p = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_array_equal(momentum_remap(p, 0.0), p)

    def test_odd_function(self):
        p = np.linspace(0.1, 30.0, 40)
        np.testing.assert_allclose(momentum_remap(-p, 0.2), -momentum_remap(p, 0.2), rtol=1e-15)

    def test_small_momentum_limit(self):
        beta = 1e-4
        p = 1e-3
        # arctan(x)/x = 1 - x^2/3 + ...
        expected = p * (1.0 - beta * p * p / 3.0)
        assert momentum_remap(p, beta) == pytest.approx(expected, rel=1e-10)

    def test_saturates_below_half_pi_over_root_beta(self):
        beta = 0.7
        bound = 0.5 * math.pi / math.sqrt(beta)
        assert abs(momentum_remap(1e12, beta)) < bound
        assert momentum_remap(1e12, beta) == pytest.approx(bound, rel=1e-10)

    def test_scalar_in_scalar_out(self):
        out = momentum_remap(2.0, 0.3)
        assert isinstance(out, float)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            momentum_remap(1.0, -1e-3)


class TestPeriodQuadrature:
    @pytest.mark.parametrize("phi", [0.05, 0.2, 0.5, 1.0])
    def test_matches_agm_oracle_at_zero_beta(self, experiment, phi):
        oracle = agm_pendulum_period(experiment, phi)
        value = period_exact_quadrature(experiment, 0.0, phi, rel_tol=1e-12)
        assert value == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("phi", [0.05, 0.2, 0.5, 1.0])
    def test_linearized_matches_agm_at_zero_beta(self, experiment, phi):
        oracle = agm_pendulum_period(experiment, phi)
        value = period_beta_linearized(experiment, 0.0, phi, rel_tol=1e-12)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_deformation_shortens_period(self, experiment):
        plain = period_exact_quadrature(experiment, 0.0, 0.3)
        deformed = period_exact_quadrature(experiment, DeformationParams(beta0=1e5), 0.3)
        assert deformed < plain

    def test_exact_vs_linearized_scales_as_beta_squared(self, experiment):
        # the linearized weight drops the O(z^2) part of z/(1+z)
        phi = 0.4
        diffs = []
        betas = [1e-3, 5e-4, 2.5e-4]
        for beta in betas:
            exact = period_exact_quadrature(experiment, beta, phi, rel_tol=1e-12)
            lin = period_beta_linearized(experiment, beta, phi, rel_tol=1e-12)
            diffs.append(abs(exact - lin))
        slope = np.polyfit(np.log(betas), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_first_order_example(self, experiment):
        assert period_first_order(experiment, 0.0, 0.0) == pytest.approx(3.4730, abs=5e-5)

    def test_first_order_phi4_convergence(self, experiment):
        # quartering the residual under halving phi pins the O(phi^4) term
        phis = [0.2, 0.1, 0.05]
        residuals = []
        for phi in phis:
            exact = period_exact_quadrature(experiment, 0.0, phi, rel_tol=1e-12)
            first = period_first_order(experiment, 0.0, experiment.length * math.sin(phi))
            residuals.append(abs(exact - first))
        exponent = np.polyfit(np.log(phis), np.log(residuals), 1)[0]
        assert exponent == pytest.approx(4.0, abs=0.3)

    def test_first_order_tracks_exact_deformation_shift(self, experiment):
        # comparing shifts cancels the shared O(phi^4) anharmonic residual
        deformation = DeformationParams(beta0=1.0)
        phi = 0.05
        amp = experiment.length * math.sin(phi)
        shift_exact = (
            period_exact_quadrature(experiment, 0.0, phi, rel_tol=1e-12)
            - period_exact_quadrature(experiment, deformation, phi, rel_tol=1e-12)
        )
        shift_first = (
            period_first_order(experiment, 0.0, amp)
            - period_first_order(experiment, deformation, amp)
        )
        assert shift_first == pytest.approx(shift_exact, rel=5e-3)

    def test_accepts_scalar_beta_and_params(self, experiment):
        params = DeformationParams(beta0=2e4)
        via_params = period_exact_quadrature(experiment, params, 0.3)
        via_scalar = period_exact_quadrature(experiment, params.effective_beta, 0.3)
        assert via_params == via_scalar

    @pytest.mark.parametrize("phi", [0.0, -0.1, 0.5 * math.pi, 2.0])
    def test_rejects_bad_amplitude(self, experiment, phi):
        with pytest.raises(ValueError):
            period_exact_quadrature(experiment, 0.0, phi)

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-15, 1e-2])
    def test_rejects_bad_tolerance(self, experiment, rel_tol):
        with pytest.raises(ValueError):
            period_exact_quadrature(experiment, 0.0, 0.3, rel_tol=rel_tol)

    def test_first_order_rejects_overlong_amplitude(self, experiment):
        with pytest.raises(ValueError):
            period_first_order(experiment, 0.0, experiment.length)


# the documented range, out to phi = 1.5705 where large beta0 leaves a thin
# layer at the turning point
ORACLE_BETA0 = (0.0, 1e-4, 1.0, 1e3, 1e4, 1e6, 1e8)
ORACLE_PHI = (0.02, 0.3, 1.0, 1.2, 1.5, 1.55, 1.569, 1.5705)


def _oracle_period(pend, beta, phi, linearized):
    return composite_pendulum_period(
        pend.mass, pend.length, pend.gravity, beta, phi, linearized=linearized
    )


class TestPeriodOracle:
    """Both period integrals against the composite Gauss-Legendre oracle."""

    @pytest.mark.parametrize("phi", ORACLE_PHI)
    @pytest.mark.parametrize("beta0", ORACLE_BETA0)
    def test_matches_oracle(self, experiment, beta0, phi):
        beta = DeformationParams(beta0=beta0).effective_beta
        for func, linearized in ((period_exact_quadrature, False), (period_beta_linearized, True)):
            oracle = _oracle_period(experiment, beta, phi, linearized)
            assert func(experiment, beta, phi) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("rel_tol,agreement", [(1.01e-14, 1e-9), (9.9e-4, 1e-3)])
    @pytest.mark.parametrize("beta0", ORACLE_BETA0)
    def test_extreme_tolerances_converge(self, experiment, beta0, rel_tol, agreement):
        # scipy's quad raised QuadratureError at rel_tol 1.01e-14
        beta = DeformationParams(beta0=beta0).effective_beta
        for phi in ORACLE_PHI:
            for func, linearized in (
                (period_exact_quadrature, False), (period_beta_linearized, True)
            ):
                oracle = _oracle_period(experiment, beta, phi, linearized)
                value = func(experiment, beta, phi, rel_tol=rel_tol)
                assert value == pytest.approx(oracle, rel=agreement), (phi, linearized)

    def test_oracle_checks_the_layer(self, experiment):
        # at (1e8, 1.5) the layer holds the whole period: 2.4e-5 s, not 3.5 s
        beta = DeformationParams(beta0=1e8).effective_beta
        assert _oracle_period(experiment, beta, 1.5, False) == pytest.approx(2.43e-5, rel=1e-2)

    @pytest.mark.parametrize("n", [20, 40])
    def test_gauss_legendre_rule(self, n):
        nodes, weights = dynamics._gauss_legendre(n)
        reference_nodes, reference_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes, reference_nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(weights, reference_weights, rtol=1e-12)

    @pytest.mark.parametrize("func", [period_exact_quadrature, period_beta_linearized])
    def test_panel_cap_raises(self, experiment, monkeypatch, func):
        monkeypatch.setattr(dynamics, "_MAX_PANELS", 1)
        assert func(experiment, 0.0, 0.3) > 0.0  # one panel suffices undeformed
        with pytest.raises(QuadratureError, match="more than 1 panels"):
            func(experiment, DeformationParams(beta0=1e8), 1.5)

    def test_overflowing_deformation_raises(self, experiment):
        with pytest.raises(QuadratureError, match="overflows"):
            period_exact_quadrature(experiment, DeformationParams(beta0=1e308), 0.1)


class TestTrajectory:
    @pytest.mark.parametrize("phi,beta0", [(0.05, 0.0), (0.3, 0.0), (1.2, 0.0)])
    def test_period_matches_quadrature_undeformed(self, experiment, phi, beta0):
        reference = period_exact_quadrature(experiment, beta0, phi, rel_tol=1e-12)
        measured = trajectory_period(experiment, beta0, phi, rel_tol=1e-10)
        assert measured == pytest.approx(reference, rel=1e-8)

    @pytest.mark.parametrize("beta0,phi", [
        (1e6, 0.05),
        (1e4, 0.7),
        (300.0, 0.6),
        (5.062794789021211, 0.5464744751347133),
        (926.3708144463365, 0.22675649986861235),
    ])
    def test_period_matches_quadrature_deformed(self, experiment, beta0, phi):
        deformation = DeformationParams(beta0=beta0)
        reference = period_exact_quadrature(experiment, deformation, phi, rel_tol=1e-12)
        measured = trajectory_period(experiment, deformation, phi, rel_tol=1e-10)
        assert measured == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("beta0,phi", [(0.0, 0.05), (1e6, 0.05)])
    def test_default_grid_resolves_every_period(self, experiment, beta0, phi):
        # the deformation at beta0 = 1e6 shortens the period about 50-fold
        deformation = DeformationParams(beta0=beta0)
        period = trajectory_period(experiment, deformation, phi)
        samples = integrate_trajectory(experiment, deformation, phi, 4.0 * period)
        assert len(samples) / 4.0 >= 250

    def test_angle_bounded_by_amplitude(self, experiment):
        phi = 0.4
        samples = integrate_trajectory(experiment, 0.0, phi, 8.0, rel_tol=1e-10)
        tol = 1e-8
        assert np.all(np.abs(samples[:, 1]) <= phi + tol)

    def test_starts_at_rest_on_amplitude(self, experiment):
        samples = integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=[0.0])
        assert samples[0, 1] == pytest.approx(0.3, abs=1e-12)
        assert samples[0, 2] == pytest.approx(experiment.length * math.sin(0.3), rel=1e-12)

    def test_explicit_times_respected(self, experiment):
        ts = np.linspace(0.0, 5.0, 37)
        samples = integrate_trajectory(experiment, 0.0, 0.3, 5.0, times=ts)
        assert samples.shape == (37, 3) and samples.dtype == np.float64
        assert not samples.flags.writeable
        np.testing.assert_array_equal(samples[:, 0], ts)

    def test_small_amplitude_is_near_cosine(self, experiment):
        phi = 0.01
        omega = math.sqrt(experiment.gravity / experiment.length)
        ts = np.linspace(0.0, 2.0 * math.pi / omega, 200)
        samples = integrate_trajectory(experiment, 0.0, phi, ts[-1], times=ts)
        np.testing.assert_allclose(samples[:, 1], phi * np.cos(omega * ts), atol=2e-6 * phi + 1e-6)

    @staticmethod
    def quarter_swing_energies(pend, beta, phi):
        """t_1 and H(theta, ptilde) at 200 times of the quarter swing to t_1.

        H = tan^2(sqrt(beta) ptilde) c^2 / (2 m beta) - m g L c, c = cos(theta),
        with tan(sqrt(beta) ptilde) / sqrt(beta) = ptilde at beta = 0.
        """
        t_1, steps, rhs = dynamics._quarter_swing(pend, beta, phi, 1e-11)
        states = dynamics._swing_states(rhs, steps, np.linspace(0.0, t_1, 200))
        theta, ptilde = states.real, states.imag
        p = np.tan(math.sqrt(beta) * ptilde) / math.sqrt(beta) if beta else ptilde
        c = np.cos(theta)
        return t_1, p**2 * c**2 / (2.0 * pend.mass) - pend.mass * pend.gravity * pend.length * c

    @pytest.mark.parametrize("phi", [0.3, 1.0, 1.5])
    def test_energy_conserved_at_turning_points(self, experiment, phi):
        _, energies = self.quarter_swing_energies(experiment, 0.0, phi)
        reference = -experiment.mass * experiment.gravity * experiment.length * math.cos(phi)
        np.testing.assert_allclose(energies, reference, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("phi", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("beta0", [1e4, 1e6])
    def test_energy_conserved_when_deformed(self, experiment, beta0, phi):
        # the longest steps of the swing, and so of its continuous extension, come at large phi
        deformation = DeformationParams(beta0=beta0)
        t_1, energies = self.quarter_swing_energies(experiment, deformation.effective_beta, phi)
        reference = -experiment.mass * experiment.gravity * experiment.length * math.cos(phi)
        np.testing.assert_allclose(energies, reference, rtol=1e-7, atol=0.0)
        # the solve ends at the deformed quarter period, not the undeformed one
        period = period_exact_quadrature(experiment, deformation, phi)
        assert 4.0 * t_1 == pytest.approx(period, rel=1e-9)

    @pytest.mark.parametrize("beta0,phi", [(1e6, 1.5), (1e8, 0.3), (1e3, 1.0)])
    def test_no_drift_over_twenty_periods(self, experiment, beta0, phi):
        # integrating every period let x at the 20th zero crossing drift by up
        # to 6e-4 of the amplitude at (1e6, 1.5)
        deformation = DeformationParams(beta0=beta0)
        period = period_exact_quadrature(experiment, deformation, phi, rel_tol=1e-13)
        quarters = np.arange(80)
        samples = integrate_trajectory(
            experiment, deformation, phi, 20.0 * period, times=quarters * period / 4.0
        )
        # zero crossings at odd quarters, turning points at +-L sin(phi) at even ones
        amplitude = experiment.length * math.sin(phi)
        expected = amplitude * np.round(np.cos(0.5 * np.pi * quarters))
        assert np.max(np.abs(samples[:, 2] - expected)) <= 1e-6 * amplitude

    def test_rejects_bad_times(self, experiment):
        message = r"^times must be non-decreasing within \[0, t_end\]$"
        with pytest.raises(ValueError, match=message):
            integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=[0.0, 2.0])
        with pytest.raises(ValueError, match=message):
            integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=[0.5, 0.1])

    def test_rejects_non_positive_horizon(self, experiment):
        with pytest.raises(ValueError):
            integrate_trajectory(experiment, 0.0, 0.3, 0.0)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_horizon(self, experiment, t_end):
        # a NaN or infinite horizon used to hang inside solve_ivp
        with pytest.raises(ValueError, match="finite"):
            integrate_trajectory(experiment, 0.0, 0.3, t_end)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, experiment, bad):
        # a NaN time used to come back as a silent NaN row
        with pytest.raises(ValueError, match="finite"):
            integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=[0.0, bad, 1.0])

    @pytest.mark.parametrize("times", [[], [[0.0, 0.5]], [0.0, math.nan]])
    def test_time_grids_refused_as_for_the_oscillator(self, experiment, times):
        message = "^times must be a non-empty 1-D sequence of finite values$"
        with pytest.raises(ValueError, match=message):
            integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=times)
        with pytest.raises(ValueError, match=message):
            integrate_oscillator_trajectory(1.0, 1.0, 1e-3, 0.5, times)

    @pytest.mark.parametrize("beta0", [0.0, 1e6])
    def test_refuses_span_past_period_cap(self, experiment, beta0):
        # t_end = 1e12 s used to run for minutes towards some 7e13 rows
        deformation = DeformationParams(beta0=beta0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 1000 periods"):
            integrate_trajectory(experiment, deformation, 0.3, 1e12)
        assert time.perf_counter() - start < 1.0

    def test_period_cap_uses_the_deformed_period(self, experiment):
        # beta0 = 1e6 shortens the period about 50-fold: 1,001 deformed periods
        # last less than 100 undeformed ones
        deformation = DeformationParams(beta0=1e6)
        period = trajectory_period(experiment, deformation, 0.05)
        assert 1001.0 * period < 100.0 * trajectory_period(experiment, 0.0, 0.05)
        with pytest.raises(ValueError, match="spans 1e\\+03 periods"):
            integrate_trajectory(experiment, deformation, 0.05, 1001.0 * period)

    def test_deformation_separates_trajectories(self, experiment):
        # a tiny deformation must produce a small but non-zero drift
        phi = 0.05
        beta = 1e-8
        ts = np.linspace(0.0, 3.5, 300)
        deformed = integrate_trajectory(experiment, beta, phi, 3.5, times=ts, rel_tol=1e-11)
        plain = integrate_trajectory(experiment, 0.0, phi, 3.5, times=ts, rel_tol=1e-11)
        drift = np.max(np.abs(deformed[:, 1] - plain[:, 1]))
        momentum_scale = experiment.mass * math.sqrt(experiment.gravity * experiment.length) * phi
        scale = 2.0 * momentum_scale**2 * beta
        assert 0.0 < drift < 10.0 * scale


# DOP853 trial stages used to step past |x| = L at some of these amplitudes
GUARD_AMPLITUDES = np.linspace(0.36, 1.5, 58)

# rel_tol across its accepted range (1e-14, 1e-3), ends included
SWEEP_REL_TOL = (9.9e-4, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 1e-13, 1.01e-14)
# measured |T / oracle - 1| where trajectory_period misses 10 rel_tol
SWEEP_GAPS = {
    (1.01e-14, 1e8, 1.5705): "8.2e-13, next to p's pole",
}


def _sweep_cases():
    for rel_tol in SWEEP_REL_TOL:
        for beta0 in ORACLE_BETA0:
            for phi in ORACLE_PHI:
                gap = SWEEP_GAPS.get((rel_tol, beta0, phi))
                marks = () if gap is None else pytest.mark.xfail(
                    strict=True, reason=f"off the oracle by {gap}")
                yield pytest.param(rel_tol, beta0, phi, marks=marks)


@functools.cache
def _sweep_oracle(pend, beta0, phi):
    beta = DeformationParams(beta0=beta0).effective_beta
    return beta, _oracle_period(pend, beta, phi, linearized=False)


class TestQuarterSwing:
    """trajectory_period times one quarter swing, T = 4 t_1."""

    @pytest.mark.parametrize("beta0,phi", [(0.0, 0.3), (1e4, 0.7), (1e6, 0.05)])
    def test_matches_spacing_of_same_direction_crossings(self, experiment, beta0, phi):
        beta = DeformationParams(beta0=beta0).effective_beta
        period = period_exact_quadrature(experiment, beta, phi)
        crossings = pendulum_zero_crossings(
            experiment.mass, experiment.length, experiment.gravity, beta, phi, 2.3 * period
        )
        assert len(crossings) == 5
        spacing = float(np.mean(crossings[2:] - crossings[:-2]))
        assert trajectory_period(experiment, beta, phi) == pytest.approx(spacing, rel=1e-9)

    @pytest.mark.parametrize("beta0,phi,most", [(0.0, 0.3, 12), (1e3, 0.3, 30), (1e6, 0.05, 38)])
    def test_accepted_steps_stay_few(self, experiment, beta0, phi, most):
        # DOP853 takes 9, 24 and 30 steps here; a 5(4) pair took 50, 94 and 106
        beta = DeformationParams(beta0=beta0).effective_beta
        _, steps, _ = dynamics._quarter_swing(experiment, beta, phi, 1e-10)
        assert len(steps) <= most

    def test_independent_of_the_quadrature(self, experiment, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trajectory_period reached the quadrature")

        monkeypatch.setattr(dynamics, "period_exact_quadrature", refuse)
        period = trajectory_period(experiment, 0.0, 0.3)
        assert period == pytest.approx(agm_pendulum_period(experiment, 0.3), rel=1e-8)

    @pytest.mark.parametrize("beta0,phi", [(1e6, 1.5), (1e8, 1.2)])
    def test_matches_quadrature_at_large_amplitude(self, experiment, beta0, phi):
        deformation = DeformationParams(beta0=beta0)
        reference = period_exact_quadrature(experiment, deformation, phi, rel_tol=1e-12)
        measured = trajectory_period(experiment, deformation, phi)
        assert measured == pytest.approx(reference, rel=1e-8)

    @pytest.mark.parametrize("beta0", [1e6, 1e8])
    def test_no_domain_error_on_amplitude_grid(self, experiment, beta0):
        # at (1e8, 1.5) period_exact_quadrature reads about 1.1e-8 s
        deformation = DeformationParams(beta0=beta0)
        for phi in GUARD_AMPLITUDES:
            period = trajectory_period(experiment, deformation, phi)
            assert 0.0 < period < agm_pendulum_period(experiment, phi)

    def test_integration_survives_amplitude_grid(self, experiment):
        # a whole period brings the bob back to its release angle; at this
        # rel_tol the stage past |x| = L came at 36 of the 58 amplitudes
        deformation = DeformationParams(beta0=1e6)
        for phi in GUARD_AMPLITUDES:
            t_end = period_exact_quadrature(experiment, deformation, phi)
            samples = integrate_trajectory(
                experiment, deformation, phi, t_end, rel_tol=1e-8, times=[t_end]
            )
            assert samples[-1, 1] == pytest.approx(phi, rel=1e-6)

    @pytest.mark.parametrize("beta0,rel_tol", [(1e6, 1e-4), (1e8, 1e-6)])
    def test_loose_tolerance_stays_below_the_pole(self, experiment, beta0, rel_tol):
        # a step across sqrt(beta) ptilde = pi/2 used to flip the sign of p
        deformation = DeformationParams(beta0=beta0)
        for phi in GUARD_AMPLITUDES[GUARD_AMPLITUDES <= 1.2]:
            reference = period_exact_quadrature(experiment, deformation, phi)
            measured = trajectory_period(experiment, deformation, phi, rel_tol=rel_tol)
            assert measured == pytest.approx(reference, rel=1e-3)

    def test_solver_failure_raises_trajectory_error(self, experiment, monkeypatch):
        physical = dynamics._physical_momentum

        def undefined_past(ptilde, root):
            return (math.nan, math.nan) if abs(ptilde) > 1e-3 else physical(ptilde, root)

        monkeypatch.setattr(dynamics, "_physical_momentum", undefined_past)
        with pytest.raises(TrajectoryError, match="swing integration failed"):
            trajectory_period(experiment, 0.0, 0.3)

    def test_undefined_everywhere_raises_promptly(self, experiment, monkeypatch):
        # every stage NaN: the step shrinks below the float spacing of t = 0
        monkeypatch.setattr(dynamics, "_physical_momentum", lambda ptilde, root: (math.nan,) * 2)
        start = time.perf_counter()
        with pytest.raises(TrajectoryError, match="swing integration failed"):
            trajectory_period(experiment, 0.0, 0.3)
        assert time.perf_counter() - start < 1.0

    def test_span_without_crossing_raises(self, experiment, monkeypatch):
        # a bob that never moves runs the whole span
        monkeypatch.setattr(dynamics, "_physical_momentum", lambda ptilde, root: (0.0, 1.0))
        with pytest.raises(TrajectoryError, match="did not reach a zero crossing"):
            trajectory_period(experiment, 0.0, 0.3)

    @pytest.mark.parametrize("phi", ORACLE_PHI)
    @pytest.mark.parametrize("beta0", ORACLE_BETA0)
    def test_matches_oracle(self, experiment, beta0, phi):
        beta = DeformationParams(beta0=beta0).effective_beta
        oracle = _oracle_period(experiment, beta, phi, linearized=False)
        assert trajectory_period(experiment, beta, phi, rel_tol=1e-10) == pytest.approx(
            oracle, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("rel_tol,beta0,phi", _sweep_cases())
    def test_meets_rel_tol_on_oracle_grid(self, experiment, rel_tol, beta0, phi):
        beta, oracle = _sweep_oracle(experiment, beta0, phi)
        gap = abs(trajectory_period(experiment, beta, phi, rel_tol=rel_tol) / oracle - 1.0)
        assert gap <= 10.0 * rel_tol


class TestOscillatorTrajectory:
    def test_zero_beta_is_cosine(self):
        ts = np.linspace(0.0, 4.0 * math.pi, 300)
        x = integrate_oscillator_trajectory(1.3, 2.0, 0.0, 0.7, ts)
        np.testing.assert_allclose(x, 0.7 * np.cos(2.0 * ts), atol=1e-9)

    def test_frequency_shift_matches_formula(self):
        mass, omega, amp = 1.0, 1.0, 1.0
        beta = 1e-4
        shift = 0.5 * beta * mass**2 * omega**3 * amp**2
        # after many cycles the accumulated phase advance reveals the shift
        n_cycles = 40
        t_probe = n_cycles * 2.0 * math.pi / omega
        ts = np.linspace(0.0, t_probe, 4000)
        x = integrate_oscillator_trajectory(mass, omega, beta, amp, ts)
        # locate the last downward zero crossing and infer the shifted period
        sign_flips = np.nonzero((x[:-1] > 0.0) & (x[1:] <= 0.0))[0]
        i = sign_flips[-1]
        t_cross = ts[i] + (ts[i + 1] - ts[i]) * x[i] / (x[i] - x[i + 1])
        k = len(sign_flips)
        measured_omega = (0.25 + (k - 1)) * 2.0 * math.pi / t_cross
        assert measured_omega - omega == pytest.approx(shift, rel=0.05)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf]],
                             ids=["nan", "inf"])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            integrate_oscillator_trajectory(1.0, 1.0, 1e-3, 0.5, times)

    # beta m^2 omega^2 A^2 overflows, or is 0 * inf
    @pytest.mark.parametrize("mass,omega,beta,amp", [
        (1e200, 1.0, 1.0, 1.0), (1.0, 1e10, 1e300, 1.0), (1.0, 1.0, 0.0, math.inf),
    ])
    def test_rejects_non_finite_deformation(self, mass, omega, beta, amp):
        with pytest.raises(ValueError, match=r"^z = beta m\^2 omega\^2 A\^2 = (inf|nan) "):
            integrate_oscillator_trajectory(mass, omega, beta, amp, [0.0, 1.0])

    def test_unsorted_times_match_the_sorted_grid(self, rng):
        ts = rng.uniform(-20.0, 20.0, 101)
        order = np.argsort(ts)
        x = integrate_oscillator_trajectory(1.3, 2.0, 0.3, 0.7, ts)
        sorted_x = integrate_oscillator_trajectory(1.3, 2.0, 0.3, 0.7, ts[order])
        assert np.array_equal(x[order], sorted_x)

    def test_rejects_non_positive_arguments(self):
        for mass, omega, amp in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError, match="must be positive"):
                integrate_oscillator_trajectory(mass, omega, 0.0, amp, [0.0, 1.0])


def _counting(counts: dict, name: str, func):
    def counted(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    return counted


def _span_of_periods(pend, deformation, phi, periods):
    period = period_exact_quadrature(pend, deformation, phi)
    return integrate_trajectory(pend, deformation, phi, periods * period)


class TestIntegratorLookup:
    """gup.dynamics.integrate still names scipy.integrate, and no solve reaches it."""

    def test_names_scipy_integrate(self):
        import scipy.integrate

        assert dynamics.integrate is scipy.integrate

    @pytest.mark.parametrize("call,swings", [
        (lambda pend: trajectory_period(pend, 0.0, 0.1), 1),
        (lambda pend: integrate_oscillator_trajectory(1.0, 1.0, 1e-3, 0.5, [0.0, 1.0, 2.0]), 0),
        (lambda pend: period_exact_quadrature(pend, 0.0, 0.1), 0),
        (lambda pend: integrate_trajectory(pend, 0.0, 0.1, 1.0), 1),
        # one quarter swing for any span; solving every period would take about 37 s
        (lambda pend: _span_of_periods(pend, DeformationParams(beta0=1e6), 0.05, 900), 1),
    ], ids=["trajectory_period", "integrate_oscillator_trajectory",
            "period_exact_quadrature", "integrate_trajectory",
            "integrate_trajectory_900_periods"])
    def test_wrapped_integrators_are_reached(self, monkeypatch, experiment, call, swings):
        counts = {"solve_ivp": 0, "quad": 0, "_quarter_swing": 0}
        for module, name in ((dynamics.integrate, "solve_ivp"), (dynamics.integrate, "quad"),
                             (dynamics, "_quarter_swing")):
            monkeypatch.setattr(module, name, _counting(counts, name, getattr(module, name)))
        call(experiment)
        assert counts == {"solve_ivp": 0, "quad": 0, "_quarter_swing": swings}
