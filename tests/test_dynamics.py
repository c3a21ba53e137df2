"""Pendulum dynamics: periods, quadrature, trajectory integration."""

from __future__ import annotations

import math

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

from conftest import agm_pendulum_period


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
    def turning_point_energies(pend, beta, phi):
        """(time, energy) at each turning point of a 2.3-period swing.

        ptilde vanishes there, so the energy is -m g L cos(theta).
        """
        period = period_exact_quadrature(pend, beta, phi)
        sol = dynamics._solve_swing(pend, beta, phi, 2.3 * period, 1e-11)
        scale = pend.mass * pend.gravity * pend.length
        return [
            (t, -scale * math.sqrt(1.0 - (x / pend.length) ** 2))
            for t, (x, _) in zip(sol.t_events[1], sol.y_events[1])
        ]

    def test_energy_conserved_at_turning_points(self, experiment):
        phi = 0.3
        energies = self.turning_point_energies(experiment, 0.0, phi)
        assert len(energies) >= 3
        reference = -experiment.mass * experiment.gravity * experiment.length * math.cos(phi)
        for _, energy in energies:
            assert energy == pytest.approx(reference, rel=1e-9)

    def test_energy_conserved_when_deformed(self, experiment):
        phi = 0.3
        deformation = DeformationParams(beta0=1e4)
        energies = self.turning_point_energies(
            experiment, deformation.effective_beta, phi
        )
        reference = -experiment.mass * experiment.gravity * experiment.length * math.cos(phi)
        for _, energy in energies:
            assert energy == pytest.approx(reference, rel=1e-7)
        # the span covers a few deformed periods, not the undeformed one
        horizon = 2.3 * period_exact_quadrature(experiment, deformation, phi)
        assert 3 <= len(energies) <= 5
        assert all(t < horizon for t, _ in energies)

    def test_rejects_bad_times(self, experiment):
        with pytest.raises(ValueError):
            integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=[0.0, 2.0])
        with pytest.raises(ValueError):
            integrate_trajectory(experiment, 0.0, 0.3, 1.0, times=[0.5, 0.1])

    def test_rejects_non_positive_horizon(self, experiment):
        with pytest.raises(ValueError):
            integrate_trajectory(experiment, 0.0, 0.3, 0.0)

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


class TestOscillatorTrajectory:
    def test_zero_beta_is_cosine(self):
        ts = np.linspace(0.0, 4.0 * math.pi, 300)
        x = integrate_oscillator_trajectory(1.3, 2.0, 0.0, 0.7, ts, rel_tol=1e-12)
        np.testing.assert_allclose(x, 0.7 * np.cos(2.0 * ts), atol=1e-9)

    def test_frequency_shift_matches_formula(self):
        mass, omega, amp = 1.0, 1.0, 1.0
        beta = 1e-4
        shift = 0.5 * beta * mass**2 * omega**3 * amp**2
        # after many cycles the accumulated phase advance reveals the shift
        n_cycles = 40
        t_probe = n_cycles * 2.0 * math.pi / omega
        ts = np.linspace(0.0, t_probe, 4000)
        x = integrate_oscillator_trajectory(mass, omega, beta, amp, ts, rel_tol=1e-12)
        # locate the last downward zero crossing and infer the shifted period
        sign_flips = np.nonzero((x[:-1] > 0.0) & (x[1:] <= 0.0))[0]
        i = sign_flips[-1]
        t_cross = ts[i] + (ts[i + 1] - ts[i]) * x[i] / (x[i] - x[i + 1])
        k = len(sign_flips)
        measured_omega = (0.25 + (k - 1)) * 2.0 * math.pi / t_cross
        assert measured_omega - omega == pytest.approx(shift, rel=0.05)

    def test_rejects_non_positive_arguments(self):
        for mass, omega, amp in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError, match="must be positive"):
                integrate_oscillator_trajectory(mass, omega, 0.0, amp, [0.0, 1.0])


def _counting(counts: dict, name: str, func):
    def counted(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    return counted


class TestIntegratorLookup:
    """Solves go through gup.dynamics.integrate, so wrapping it sees them all."""

    def test_names_scipy_integrate(self):
        import scipy.integrate

        assert dynamics.integrate is scipy.integrate

    @pytest.mark.parametrize("call,solve_ivp,quad", [
        (lambda pend: trajectory_period(pend, 0.0, 0.1), 1, True),
        (lambda pend: integrate_oscillator_trajectory(
            1.0, 1.0, 1e-3, 0.5, [0.0, 1.0, 2.0]), 1, False),
        (lambda pend: period_exact_quadrature(pend, 0.0, 0.1), 0, True),
    ], ids=["trajectory_period", "integrate_oscillator_trajectory",
            "period_exact_quadrature"])
    def test_wrapped_integrators_are_reached(
        self, monkeypatch, experiment, call, solve_ivp, quad
    ):
        counts = {"solve_ivp": 0, "quad": 0}
        for name in counts:
            wrapped = _counting(counts, name, getattr(dynamics.integrate, name))
            monkeypatch.setattr(dynamics.integrate, name, wrapped)
        call(experiment)
        assert counts["solve_ivp"] == solve_ivp
        assert (counts["quad"] > 0) == quad
