"""Deformed oscillator: spectrum, operators, coherent states, closed forms."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from gup import oscillator
from gup.dynamics import integrate_oscillator_trajectory
from gup.oscillator import (
    GKState,
    OscillatorModel,
    TruncationError,
    build_truncated_operators,
    choose_dimension,
    evolve_gk,
    gazeau_klauder_state,
    invariant_checks,
    matrix_expectation,
    trajectory_x_closed_form,
)

from conftest import (
    decimal_commutator_residual,
    dense_commutator_residual,
    dense_truncated_operators,
    gk_log_terms_loop,
    ode_oscillator_trajectory,
)


def model_units(beta=0.0, hbar=1.0):
    return OscillatorModel(mass=1.0, omega=1.0, hbar=hbar, beta=beta)


def gk_amplitude(model: OscillatorModel, J: float) -> float:
    """The release amplitude sqrt(2 hbar J / (m omega)) whose motion |J, 0> follows."""
    return math.sqrt(2.0 * model.hbar * J / (model.mass * model.omega))


class TestModel:
    def test_ladder_deformation(self):
        m = OscillatorModel(mass=2.0, omega=3.0, hbar=0.5, beta=1e-3)
        assert m.ladder_deformation == pytest.approx(0.5 * 1e-3 * 2.0 * 0.5 * 3.0, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"mass": 0.0, "omega": 1.0},
        {"mass": 1.0, "omega": -1.0},
        {"mass": 1.0, "omega": 1.0, "hbar": 0.0},
        {"mass": 1.0, "omega": 1.0, "beta": -1e-9},
        {"mass": math.inf, "omega": 1.0},
        {"mass": 1.0, "omega": 1.0, "hbar": math.inf},
        # hbar m omega and hbar / (m omega) overflow their 3/2 powers
        {"mass": 1e300, "omega": 1.0},
        {"mass": 1e-300, "omega": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OscillatorModel(**kwargs)


class TestSpectrum:
    def test_number_eigenvalues(self):
        m = model_units(beta=2e-3)
        nu = m.ladder_deformation
        e = oscillator._level_eigenvalues(nu, 6)
        for n in range(6):
            assert e[n] == pytest.approx(n * (1.0 + nu + nu * n), rel=1e-15)

    def test_harmonic_limit(self):
        # the ladder Hamiltonian hbar omega a^dag a has levels n hbar omega
        h = build_truncated_operators(model_units(beta=0.0), 8).h
        np.testing.assert_array_equal(np.diag(h).real, np.arange(8.0))

    def test_superlinear_spacing_when_deformed(self):
        gaps = np.diff(np.diag(build_truncated_operators(model_units(beta=1e-2), 9).h).real)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_log_terms_match_level_loop(self):
        # the cumulative sum must reproduce the sequential per-level loop
        # bit for bit, over the (beta, J) range the CLI reaches
        rng = np.random.default_rng(20261018)
        for count in (64, 1024, 8192):
            for _ in range(20):
                beta = 10.0 ** rng.uniform(-9.0, -1.0)
                J = 10.0 ** rng.uniform(-1.0, 3.0)
                model = model_units(beta=beta)
                assert np.array_equal(
                    oscillator._gk_log_terms(model, J, count),
                    gk_log_terms_loop(model, J, count),
                ), (beta, J, count)


    @pytest.mark.parametrize("J,count", [
        (4.0, 64), (20.0, 128), (80.0, 256), (200.0, 512), (500.0, 1024),
        (1000.0, 2048), (2500.0, 4096),
    ])
    def test_weight_table_matches_level_loop(self, J, count):
        # the table logs each level once across its doublings and must stop
        # where, and equal what, the sequential loop gives, bit for bit
        model = model_units(beta=1e-6)
        log_terms = oscillator._gk_weights(model, J)[0]
        assert len(log_terms) == count
        reference = gk_log_terms_loop(model, J, count)
        assert np.array_equal(log_terms, reference - np.max(reference))

@pytest.fixture(scope="module")
def ops():
    return build_truncated_operators(model_units(beta=2e-4), 40)


@pytest.fixture(scope="module")
def gk_model():
    return model_units(beta=2e-4)


class TestTruncatedOperators:
    def test_minimum_dimension_enforced(self):
        with pytest.raises(ValueError):
            build_truncated_operators(model_units(), 7)

    def test_lowering_structure(self, ops):
        nu = ops.model.ladder_deformation
        for n in range(1, 8):
            assert ops.a[n - 1, n] == pytest.approx(
                math.sqrt(n * (1.0 + nu + nu * n)), rel=1e-15
            )
        assert np.count_nonzero(np.tril(ops.a)) == 0

    def test_x_p_hermitian(self, ops):
        np.testing.assert_allclose(ops.x, ops.x.conj().T, atol=1e-15)
        np.testing.assert_allclose(ops.p, ops.p.conj().T, atol=1e-15)

    def test_number_operator_diagonal_excludes_top(self, ops):
        # the top level of a^dag a lacks its a a^dag partner; interior only
        nu = ops.model.ladder_deformation
        num = (ops.a.conj().T @ ops.a).real
        n = np.arange(ops.dimension - 1)
        expected = n * (1.0 + nu + nu * n)
        np.testing.assert_allclose(np.diag(num)[:-1], expected, rtol=1e-12)

    def test_hamiltonian_diagonal(self, ops):
        m = ops.model
        nu = m.ladder_deformation
        diag = np.diag(ops.h).real
        n = np.arange(ops.dimension)
        expected = m.hbar * m.omega * n * (1.0 + nu + nu * n)
        np.testing.assert_allclose(diag, expected, rtol=1e-13)
        assert np.count_nonzero(ops.h - np.diag(np.diag(ops.h))) == 0

    def test_commutator_matches_deformed_bracket(self):
        # interior block of [x,p] against i hbar (1 + beta p^2)
        model = model_units(beta=1e-4)
        ops = build_truncated_operators(model, 60)
        comm = ops.x @ ops.p - ops.p @ ops.x
        target = 1j * model.hbar * (
            np.eye(ops.dimension) + model.beta * (ops.p @ ops.p)
        )
        inner = slice(0, ops.dimension - 6)
        residual = np.max(np.abs((comm - target)[inner, inner]))
        deformation_scale = model.beta * np.max(np.abs(np.diag(ops.p @ ops.p)[inner]))
        assert residual < 0.01 * deformation_scale

    def test_commutator_residual_scales_as_beta_squared(self):
        betas = [1e-6, 1e-5, 1e-4]
        residuals = []
        for beta in betas:
            model = model_units(beta=beta)
            ops = build_truncated_operators(model, 60)
            comm = ops.x @ ops.p - ops.p @ ops.x
            target = 1j * model.hbar * (
                np.eye(ops.dimension) + model.beta * (ops.p @ ops.p)
            )
            inner = slice(0, ops.dimension - 6)
            residuals.append(np.max(np.abs((comm - target)[inner, inner])))
        slope = np.polyfit(np.log(betas), np.log(residuals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("hbar", [1.0, 1e-6])
    @pytest.mark.parametrize("beta", [0.0, 1e-6, 2e-4, 5e-3])
    @pytest.mark.parametrize("dimension", [8, 48, 60, 435, 1024])
    def test_matches_dense_products(self, dimension, beta, hbar):
        model = model_units(beta=beta, hbar=hbar)
        ops = build_truncated_operators(model, dimension)
        for name, dense in zip("axph", dense_truncated_operators(model, dimension)):
            worst = np.max(np.abs(getattr(ops, name) - dense))
            assert worst <= 1e-15 * np.max(np.abs(dense)), name

    def test_matrices_frozen(self, ops):
        with pytest.raises(ValueError):
            ops.x[0, 0] = 1.0


class TestCommutatorResidual:
    # dense products resolve the residual to 1e-6 only where their own
    # rounding bound allows; elsewhere the banded one must lie within it
    @pytest.mark.parametrize("beta", [1e-6, 1e-5, 2e-4, 5e-3])
    @pytest.mark.parametrize("dimension", [8, 48, 60, 435, 1024])
    def test_matches_dense_products(self, dimension, beta):
        model = model_units(beta=beta)
        dense, roundoff = dense_commutator_residual(model, dimension)
        banded = oscillator._commutator_residuals(model, dimension)[0][0]
        assert abs(banded - dense) <= max(1e-6 * dense, roundoff)

    def test_scaled_betas_and_units(self):
        model = OscillatorModel(mass=2.0, omega=3.0, hbar=0.5, beta=2e-3)
        residuals, _ = oscillator._commutator_residuals(model, 60)
        for scale, banded in zip((1.0, 0.1, 0.01), residuals):
            scaled = replace(model, beta=scale * model.beta)
            dense, roundoff = dense_commutator_residual(scaled, 60)
            assert abs(banded - dense) <= max(1e-6 * dense, roundoff)

    # the two points where the dense residual gave slopes 0.844 and 1.892
    @pytest.mark.parametrize("J,z", [(16.0, 1e-6), (400.0, 1.2e-4)])
    def test_slope_matches_decimal_oracle(self, J, z):
        model = model_units(beta=z / (2.0 * J))
        dim = choose_dimension(replace(model, beta=0.5 * model.beta), J)
        residuals, roundoff = oscillator._commutator_residuals(model, dim)
        exact = [
            decimal_commutator_residual(1.0, 1.0, 1.0, model.beta * s, dim)
            for s in (1.0, 0.1, 0.01)
        ]
        for value, bound, reference in zip(residuals, roundoff, exact):
            assert abs(value - float(reference)) <= bound
            assert value == pytest.approx(float(reference), rel=1e-6)
        # least-squares slope through three points a decade apart
        expected = float((exact[0].log10() - exact[2].log10()) / 2)
        check = next(c for c in invariant_checks(model, J) if c.name == "commutator residual")
        assert check.value == pytest.approx(expected, abs=1e-6)
        assert check.passed


class TestGKStates:
    def test_norm_close_to_one(self, gk_model):
        state = gazeau_klauder_state(gk_model, J=4.0, gamma=0.3)
        assert abs(state.norm - 1.0) < 1e-10

    def test_ground_state_at_zero_action(self, gk_model):
        state = gazeau_klauder_state(gk_model, J=0.0, gamma=1.0)
        assert state.amplitudes[0] == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(np.abs(state.amplitudes[1:]), 0.0, atol=1e-300)

    def test_energy_expectation_is_action(self, gk_model):
        J = 4.0
        state = gazeau_klauder_state(gk_model, J, gamma=0.7)
        ops = build_truncated_operators(gk_model, state.dimension)
        energy = matrix_expectation(state, ops.h).real
        assert energy == pytest.approx(gk_model.hbar * gk_model.omega * J, rel=1e-10)

    def test_temporal_stability(self, gk_model):
        J, gamma, t = 4.0, 0.3, 1.7
        evolved = evolve_gk(gazeau_klauder_state(gk_model, J, gamma), t)
        rebuilt = gazeau_klauder_state(gk_model, J, gamma + gk_model.omega * t)
        np.testing.assert_allclose(evolved.amplitudes, rebuilt.amplitudes, rtol=0, atol=1e-15)
        assert evolved.gamma == pytest.approx(rebuilt.gamma, rel=1e-15)

    def test_not_two_pi_periodic_when_deformed(self, gk_model):
        a = gazeau_klauder_state(gk_model, 4.0, 0.0)
        b = gazeau_klauder_state(gk_model, 4.0, 2.0 * math.pi)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
        assert overlap < 1.0 - 1e-6

    def test_two_pi_periodic_undeformed(self):
        gk_model = model_units(beta=0.0)
        a = gazeau_klauder_state(gk_model, 4.0, 0.0)
        b = gazeau_klauder_state(gk_model, 4.0, 2.0 * math.pi)
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_poisson_weights_undeformed(self):
        gk_model = model_units(beta=0.0)
        J = 3.0
        state = gazeau_klauder_state(gk_model, J, 0.0)
        n = np.arange(state.dimension)
        log_poisson = n * math.log(J) - J - gammaln(n + 1.0)
        np.testing.assert_allclose(
            np.abs(state.amplitudes) ** 2, np.exp(log_poisson), rtol=1e-10, atol=1e-250
        )

    def test_continuity_in_label(self, gk_model):
        base = gazeau_klauder_state(gk_model, 4.0, 0.5, dimension=40)
        for eps in (1e-4, 1e-6):
            near = gazeau_klauder_state(gk_model, 4.0 + eps, 0.5 + eps, dimension=40)
            assert np.linalg.norm(near.amplitudes - base.amplitudes) < 10.0 * eps

    def test_choose_dimension_grows_with_action(self, gk_model):
        assert choose_dimension(gk_model, 1.0) < choose_dimension(gk_model, 40.0)
        assert choose_dimension(gk_model, 0.0) >= 8

    def test_choose_dimension_is_smallest_accepted(self):
        # the default size and the truncation check read one weight table
        rng = np.random.default_rng(20261019)
        above_floor = 0
        for _ in range(40):
            model = model_units(beta=10.0 ** rng.uniform(-9.0, -1.0))
            J = 10.0 ** rng.uniform(-1.0, 2.5)
            dim = choose_dimension(model, J)
            assert type(dim) is int
            assert gazeau_klauder_state(model, J, 0.0).dimension == dim
            assert gazeau_klauder_state(model, J, 0.0, dim).dimension == dim
            if dim > 8:
                above_floor += 1
                with pytest.raises(TruncationError):
                    gazeau_klauder_state(model, J, 0.0, dim - 1)
        assert above_floor > 30

    def test_truncation_error_when_too_small(self, gk_model):
        with pytest.raises(TruncationError):
            gazeau_klauder_state(gk_model, J=30.0, gamma=0.0, dimension=10)

    def test_rejects_negative_action(self, gk_model):
        with pytest.raises(ValueError):
            gazeau_klauder_state(gk_model, J=-1.0, gamma=0.0)

    @pytest.mark.parametrize("J", [math.nan, math.inf])
    def test_rejects_non_finite_action(self, gk_model, J):
        with pytest.raises(ValueError, match="finite"):
            choose_dimension(gk_model, J)
        with pytest.raises(ValueError, match="finite"):
            gazeau_klauder_state(gk_model, J, 0.0, dimension=40)
        with pytest.raises(ValueError, match="finite"):
            trajectory_x_closed_form(gk_model, gk_amplitude(gk_model, J), 0.0)

    def test_expectation_dimension_mismatch(self, gk_model):
        state = gazeau_klauder_state(gk_model, 2.0, 0.0)
        with pytest.raises(ValueError):
            matrix_expectation(state, np.eye(state.dimension + 1))


class TestClosedForms:
    def test_expectation_form_survives_tiny_hbar(self):
        # hbar^3 m omega = 1e-500 underflows to 0; in units of sqrt(hbar / (m omega))
        # <x> depends on J and nu = beta m hbar omega / 2 alone: it is the unit model's
        model = OscillatorModel(mass=1e-50, omega=1.0, hbar=1e-150, beta=2e194)
        J = 4.0
        unit = model_units(beta=model.beta * model.mass * model.hbar * model.omega)
        amp, unit_amp = gk_amplitude(model, J), gk_amplitude(unit, J)
        length = math.sqrt(model.hbar / (model.mass * model.omega))
        for t in (0.4, 2.0, 7.3):
            x = trajectory_x_closed_form(model, amp, t)
            assert abs(x - amp * math.cos(t)) > 1e-7 * amp
            assert x / length == pytest.approx(
                trajectory_x_closed_form(unit, unit_amp, t), rel=1e-12, abs=0.0
            )

    def test_undeformed_is_pure_cosine(self):
        model = model_units(beta=0.0)
        ts = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(
            trajectory_x_closed_form(model, 2.0, ts), 2.0 * np.cos(ts), rtol=1e-14
        )

    def test_matrix_expectation_tracks_closed_form(self):
        model = model_units(beta=1e-5)
        J = 4.0
        state = gazeau_klauder_state(model, J, 0.0, dimension=48)
        ops = build_truncated_operators(model, 48)
        for t in (0.3, 1.1):
            evolved = evolve_gk(state, t)
            x_matrix = matrix_expectation(evolved, ops.x).real
            x_closed = trajectory_x_closed_form(model, gk_amplitude(model, J), t)
            assert x_matrix == pytest.approx(x_closed, abs=5e-8 * math.sqrt(2.0 * J))

    def test_matrix_residual_scales_as_beta_squared(self):
        J, t = 4.0, 1.1
        betas = [1e-6, 1e-5, 1e-4]
        residuals = []
        for beta in betas:
            model = model_units(beta=beta)
            state = gazeau_klauder_state(model, J, 0.0, dimension=48)
            ops = build_truncated_operators(model, 48)
            evolved = evolve_gk(state, t)
            x_matrix = matrix_expectation(evolved, ops.x).real
            x_closed = trajectory_x_closed_form(model, gk_amplitude(model, J), t)
            residuals.append(abs(x_matrix - x_closed))
        slope = np.polyfit(np.log(betas), np.log(residuals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_secular_term_recovers_frequency_shift(self):
        from scipy.optimize import curve_fit

        mass, omega, amp = 1.0, 1.0, 1.0
        beta = 1e-4
        model = OscillatorModel(mass=mass, omega=omega, hbar=1e-8, beta=beta)
        ts = np.linspace(0.0, 2.0 * math.pi / omega, 400)
        x = trajectory_x_closed_form(model, amp, ts)

        def shifted(t, delta):
            return amp * np.cos((omega + delta) * t)

        delta, _ = curve_fit(shifted, ts, x, p0=[0.0])
        expected = 0.5 * beta * mass**2 * omega**3 * amp**2
        assert delta[0] == pytest.approx(expected, rel=0.05)

    def test_rejects_non_positive_amplitude(self):
        with pytest.raises(ValueError):
            trajectory_x_closed_form(model_units(beta=1e-4), 0.0, 1.0)


class TestExactClassicalTrajectory:
    MASS, OMEGA, AMPLITUDE = 1.3, 0.9, 1.1

    def model(self, z, hbar=1e-12):
        beta = z / (self.MASS * self.OMEGA * self.AMPLITUDE) ** 2
        return OscillatorModel(mass=self.MASS, omega=self.OMEGA, hbar=hbar, beta=beta)

    # ten of the trajectory's own periods 2 pi / (omega sqrt(1 + z)); the
    # gap is the ODE's error, which grows with z: 6.4e-11 A at z = 0.99,
    # where the closed form is within 2e-14 A of a 40-digit evaluation
    @pytest.mark.parametrize("z", [1e-6, 2e-5, 1e-2, 0.09, 0.5, 0.99])
    def test_matches_ode(self, z):
        model = self.model(z)
        times = np.linspace(0.0, 20.0 * math.pi / (self.OMEGA * math.sqrt(1.0 + z)), 331)
        exact = integrate_oscillator_trajectory(
            model.mass, model.omega, model.beta, self.AMPLITUDE, times
        )
        ode = ode_oscillator_trajectory(
            model.mass, model.omega, model.beta, self.AMPLITUDE, times, rel_tol=1e-12
        )
        assert np.max(np.abs(exact - ode)) <= 1e-10 * self.AMPLITUDE

    @pytest.mark.parametrize("z", [1e-2, 1e-4])
    @pytest.mark.parametrize("periods", [1, 10])
    def test_first_order_form_is_off_by_z_squared(self, z, periods):
        times = np.linspace(0.0, 2.0 * math.pi * periods / self.OMEGA, 33 * periods)

        def gap(z):
            model = self.model(z)
            return np.max(np.abs(
                integrate_oscillator_trajectory(
                    model.mass, model.omega, model.beta, self.AMPLITUDE, times
                )
                - trajectory_x_closed_form(model, self.AMPLITUDE, times)
            ))

        assert 3.5 <= gap(z) / gap(0.5 * z) <= 4.5

    def test_undeformed_is_pure_cosine(self):
        times = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(
            integrate_oscillator_trajectory(self.MASS, self.OMEGA, 0.0, 2.0, times),
            2.0 * np.cos(self.OMEGA * times), rtol=1e-14,
        )


class TestBandExpectations:
    @staticmethod
    def assert_match_dense_products(model, v):
        _, x, _, h = dense_truncated_operators(model, v.size)
        times = np.linspace(0.0, 2.0 * math.pi / model.omega, 33)
        n = np.arange(v.size, dtype=float)
        nu = 0.5 * model.beta * model.mass * model.hbar * model.omega
        evolved = v * np.exp(-1j * np.outer(model.omega * times, n * (1.0 + nu + nu * n)))
        x_dense = np.array([np.vdot(u, x @ u).real for u in evolved])
        h_banded, x_banded = oscillator._band_expectations(model, v, times[1], len(times))
        assert np.max(np.abs(x_banded - x_dense)) <= 1e-12 * np.max(np.abs(x))
        assert abs(h_banded - np.vdot(v, h @ v).real) <= 1e-12 * np.max(np.abs(h))

    # a random state weights the top levels, where the bands are largest
    @pytest.mark.parametrize("mass,omega,hbar,beta,dimension", [
        *((1.0, 1.0, 1.0, beta, d) for beta in (0.0, 1e-6, 2e-4, 5e-3)
          for d in (8, 48, 435, 1024)),
        (2.0, 3.0, 0.5, 2e-3, 435),
    ])
    def test_match_dense_products(self, mass, omega, hbar, beta, dimension, rng):
        model = OscillatorModel(mass=mass, omega=omega, hbar=hbar, beta=beta)
        v = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
        self.assert_match_dense_products(model, v / np.linalg.norm(v))

    # the beta and beta/2 states invariant_checks evolves at the deck's largest J and z
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_gk_states_match_dense_products(self, scale):
        J, z = 300.0, 1.4e-4
        model = model_units(beta=scale * z / (2.0 * J))
        dimension = choose_dimension(model_units(beta=0.5 * z / (2.0 * J)), J)
        assert dimension == 435
        state = gazeau_klauder_state(model, J, 0.0, dimension)
        self.assert_match_dense_products(model, state.amplitudes)


def _ode_tolerance(model, J):
    amplitude = math.sqrt(2.0 * model.hbar * J / (model.mass * model.omega))
    z = model.beta * model.mass**2 * model.omega**2 * amplitude**2
    return max(1e-3 * amplitude * z, 1e-13 * amplitude)


class TestInvariantChecks:
    # name -> (value passes its stated tolerance, format of value in detail)
    TOLERANCES = {
        "norm": (lambda v, model, J: v < 1e-10, ".3e"),
        "temporal stability": (lambda v, model, J: v < 1e-12, ".3e"),
        "<h> = hbar omega J": (lambda v, model, J: v < 1e-10, ".3e"),
        "commutator residual": (lambda v, model, J: abs(v - 2.0) < 0.1, ".3f"),
        "closed form vs matrix <x>": (lambda v, model, J: 3.5 <= v <= 4.5, ".3f"),
        "hbar->0 vs exact classical": (
            lambda v, model, J: v < _ode_tolerance(model, J), ".3e"),
    }

    def test_defaults_pass_in_order(self):
        checks = list(invariant_checks(model_units(beta=5e-6), 4.0))
        assert [c.name for c in checks] == list(self.TOLERANCES)
        assert all(c.passed is True for c in checks)
        assert all(type(c.value) is float for c in checks)

    # the quantum-check defaults, and a point where the dense products
    # failed the commutator-scaling check (z = 1e-6 at J = 16)
    @pytest.mark.parametrize("beta,J", [(5e-6, 4.0), (1e-6 / 32.0, 16.0)])
    def test_passed_agrees_with_value(self, beta, J):
        model = model_units(beta=beta)
        checks = list(invariant_checks(model, J))
        assert len(checks) == 6
        for check in checks:
            assert type(check.passed) is bool and type(check.value) is float
            within, fmt = self.TOLERANCES[check.name]
            assert check.passed == within(check.value, model, J), check.name
            assert f"={check.value:{fmt}} " in check.detail + " ", check.name
        assert checks[3].passed

    def test_zero_beta_refused_before_any_record(self):
        checks = invariant_checks(model_units(beta=0.0), 4.0)
        with pytest.raises(ValueError) as info:
            next(checks)
        assert str(info.value) == (
            "the commutator-scaling check needs beta > 0; "
            "there is no deformation to scale"
        )

    def test_zero_action_refused_before_any_record(self):
        checks = invariant_checks(model_units(beta=5e-6), 0.0)
        with pytest.raises(ValueError, match="J > 0"):
            next(checks)

    def test_resolution_floor(self):
        # either side of the float64 floor of the commutator-scaling check
        # at J = 4, where the smallest residual's rounding bound reaches
        # 1 - 10^-0.1 of it
        above = list(invariant_checks(model_units(beta=2e-11), 4.0))
        assert above[3].name == "commutator residual" and above[3].passed
        below = invariant_checks(model_units(beta=2e-12), 4.0)
        with pytest.raises(ValueError, match="below the float64 resolution"):
            next(below)

    def test_oversized_dimension_refused_before_any_record(self):
        # J = 1e4 at the defaults needs 10,586 levels
        checks = invariant_checks(model_units(beta=5e-6), 1e4)
        with pytest.raises(TruncationError, match="10586 Fock levels"):
            next(checks)

    # at 10**12 levels a state's amplitudes alone would need 16 TB
    @pytest.mark.parametrize("dimension", [1025, 10**12])
    def test_requested_dimension_past_the_cap_refused_before_any_record(self, dimension):
        checks = invariant_checks(model_units(beta=5e-6), 4.0, dimension=dimension)
        with pytest.raises(TruncationError) as info:
            next(checks)
        assert str(info.value) == (
            f"{dimension} Fock levels requested; the banded operators are checked "
            "against dense products only up to 1024 levels"
        )

    def test_undersized_dimension_raises(self):
        checks = invariant_checks(model_units(beta=5e-6), 30.0, dimension=12)
        with pytest.raises(TruncationError):
            next(checks)

    def test_dimension_too_small_for_half_beta_refused_before_any_record(self):
        # 193 levels hold the beta state but not the beta/2 state of the
        # closed-form check
        model, J = model_units(beta=5.565862708719852e-07), 107.8
        half = replace(model, beta=0.5 * model.beta)
        assert choose_dimension(model, J) <= 193 < choose_dimension(half, J)
        checks = invariant_checks(model, J, dimension=193)
        with pytest.raises(TruncationError, match="dimension 193 leaves"):
            next(checks)
