"""Acceptance gate: every shipped claim re-checked at its stated tolerance.

Each criterion prints exactly one PASS/FAIL line on the real stdout so the
verdicts survive pytest's capture in any run mode.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from gup.bounds import (
    alpha_bound,
    derived_length,
    exclusion_boundary,
    levitation_frequency,
    levitation_ratio_bound,
    load_scenarios,
    ratio_bound_from_fit,
    resolve_scenario,
    slope_coefficients,
    sphere_mass,
)
from gup.cli import bundled_dataset_path, load_dataset
from gup.dynamics import (
    DeformationParams,
    PendulumConfig,
    period_exact_quadrature,
    period_first_order,
)
from gup.evfit import confidence_interval, odr_fit
from gup.oscillator import (
    OscillatorModel,
    build_truncated_operators,
    evolve_gk,
    gazeau_klauder_state,
    matrix_expectation,
    trajectory_x_closed_form,
)

import conftest
from conftest import (
    agm_pendulum_period,
    ode_oscillator_trajectory,
    pendulum_period_beta_derivative,
)


def report(num: str, name: str, ok: bool, detail: str) -> bool:
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return ok


@pytest.fixture(scope="module")
def fit_and_runtime():
    start = time.perf_counter()
    dataset = load_dataset(bundled_dataset_path(), 5e-3, 1e-4)
    fit = odr_fit(dataset.series)
    ci = confidence_interval(fit, "slope", 0.95)
    elapsed = time.perf_counter() - start
    return fit, ci, elapsed


@pytest.fixture(scope="module")
def experiment_pendulum(fit_and_runtime):
    fit, _, _ = fit_and_runtime
    length, _ = derived_length(fit.intercept, 9.80393)
    return PendulumConfig(mass=1.22, length=length, gravity=9.80393)


def test_criterion_1_fit_reproduction(fit_and_runtime):
    fit, ci, elapsed = fit_and_runtime
    half = 0.5 * (ci[1] - ci[0])
    ok = (
        0.0227 <= fit.slope <= 0.0237
        and 0.0008 <= half <= 0.0016
        and abs(fit.intercept - 3.4730) <= 0.0002
        and 0.03 <= fit.reduced_chi2 <= 0.15
        and elapsed < 1.0
    )
    detail = (
        f"slope={fit.slope:.6f} half_width={half:.6f} "
        f"intercept={fit.intercept:.6f} red_chi2={fit.reduced_chi2:.4f} "
        f"runtime={elapsed * 1e3:.0f}ms"
    )
    assert report("1", "fit reproduction", ok, detail), detail


def test_criterion_2_derived_length(fit_and_runtime):
    fit, _, _ = fit_and_runtime
    length, _ = derived_length(fit.intercept, 9.80393)
    ok = abs(length - 2.9954) <= 0.0004
    assert report("2", "derived length", ok, f"length={length:.6f} m"), length


# The quoted c1 = 0.197 belongs to a lighter bob than the 1.22 kg used here.
# With L taken from the intercept, c1 = 2 pi^2 m^2 / (T0 (M_p c)^2) depends
# only on m, T0 and M_p c, so no rounding of L, g or M_p reaches 0.197; the
# band 0.197 +- 0.0005 needs m in [1.2132, 1.2163] kg.  The quoted
# N = 7.32e26 (+- 0.005e26) gives m = N u in [1.2147, 1.2163] kg, and
# m = 1.2155 kg gives c1 = 0.1972.  c0 = T0 / (16 L^2) does not depend on m,
# which is why the quoted 0.0242 still matches.  Nothing in the repository
# gives the bob's mass to more than three figures, so 1.22 kg stays the input
# and c1 is checked against an independent derivation instead of the quote.
_QUOTED_C1 = 0.197
_QUOTED_N = 7.32e26
_ATOMIC_MASS_UNIT = 1.66054e-27
_PLANCK_MOMENTUM_SQ = (2.176434e-8 * 299_792_458.0) ** 2  # CODATA 2018 M_p


def test_criterion_3_slope_coefficients():
    pend = PendulumConfig(mass=1.22, length=2.9954, gravity=9.80393)
    c0, c1 = slope_coefficients(pend)
    t0 = 2.0 * math.pi * math.sqrt(pend.length / pend.gravity)

    # T = T0 + (c0 - ratio c1) A^2 + O(A^4) with beta = ratio / (M_p c)^2;
    # the O(phi^2) corrections are removed by Richardson from phi and phi/2
    def c0_at(phi: float) -> float:
        amp_sq = (pend.length * math.sin(phi)) ** 2
        return (agm_pendulum_period(pend, phi) - t0) / amp_sq

    def c1_at(phi: float) -> float:
        amp_sq = (pend.length * math.sin(phi)) ** 2
        slope = pendulum_period_beta_derivative(
            pend.mass, pend.length, pend.gravity, phi
        )
        return -slope / (_PLANCK_MOMENTUM_SQ * amp_sq)

    c0_oracle = (4.0 * c0_at(0.01) - c0_at(0.02)) / 3.0
    c1_oracle = (4.0 * c1_at(0.01) - c1_at(0.02)) / 3.0
    dev_c0 = abs(c0 - c0_oracle) / c0_oracle
    dev_c1 = abs(c1 - c1_oracle) / c1_oracle
    ok = (
        dev_c0 <= 1e-6
        and dev_c1 <= 1e-5
        # three significant figures: within half a unit in the third figure
        and abs(c0 - 0.0242) <= 0.00005
    )

    mass_from_c1 = pend.mass * math.sqrt(_QUOTED_C1 / c1)
    mass_from_n = _QUOTED_N * _ATOMIC_MASS_UNIT
    detail = (
        f"c0={c0:.6f} (want 0.0242, oracle rel_dev={dev_c0:.1e}) "
        f"c1={c1:.6f} (oracle rel_dev={dev_c1:.1e}; quoted {_QUOTED_C1} "
        f"fits m={mass_from_c1:.4f} kg, quoted N fits m={mass_from_n:.4f} kg)"
    )
    assert report("3", "slope coefficients", ok, detail), detail


def test_criterion_4_pendulum_bound_chain(fit_and_runtime, experiment_pendulum):
    fit, _, _ = fit_and_runtime
    bound = ratio_bound_from_fit(fit, experiment_pendulum, 0.95)
    alpha = alpha_bound(bound.upper, 7.32e26, 1.0)
    ok = 0.009 <= bound.upper <= 0.013 and abs(alpha - 0.07) <= 0.01
    detail = f"ratio_upper={bound.upper:.5f} alpha_min={alpha:.4f}"
    assert report("4", "pendulum bound chain", ok, detail), detail


def test_criterion_5_levitation_scenario():
    mass = sphere_mass(19300.0, 0.05)
    omega = levitation_frequency(19300.0, 3.287e-5, 1000.0)
    optimistic = levitation_ratio_bound(
        mass, omega, 0.1, damping=1.2e-7, n_measurements=1
    )
    conservative = levitation_ratio_bound(
        mass, omega, 0.1, delta_omega_override=1e-4
    )
    n = mass / 1.66054e-27
    alpha_opt = alpha_bound(optimistic.upper, n, 1.0)
    alpha_con = alpha_bound(conservative.upper, n, 1.0)
    ok = (
        abs(omega - 36.71) <= 0.3
        and abs(alpha_opt - 0.35) <= 0.01
        and abs(alpha_con - 0.24) <= 0.01
    )
    detail = (
        f"frequency={omega:.3f} alpha_optimistic={alpha_opt:.4f} "
        f"alpha_conservative={alpha_con:.4f}"
    )
    assert report("5", "levitation scenario", ok, detail), detail


def test_criterion_6_literature_boundary_points():
    scenarios = {
        s.label: s
        for s in load_scenarios()
        if s.kind == "oscillator-frequency"
    }
    values = {}
    for label, scenario in scenarios.items():
        upper, n = resolve_scenario(scenario)
        at_unit = dict(exclusion_boundary(upper, n).points)[1.0]
        values[label] = at_unit
    membranes = values["micromechanical membranes"]
    sapphire = values["sapphire acoustic resonator"]
    ok = abs(membranes - (-0.33)) <= 1e-9 and abs(sapphire - (-0.25)) <= 1e-9
    detail = f"membranes alpha={membranes:.9f} sapphire alpha={sapphire:.9f}"
    assert report("6", "literature boundary points", ok, detail), detail


def test_criterion_7_quadrature_correctness():
    pend = PendulumConfig(mass=1.22, length=2.9954, gravity=9.80393)
    undeformed = DeformationParams(beta0=0.0)
    worst = 0.0
    for phi in (0.05, 0.2, 0.5, 1.0):
        oracle = agm_pendulum_period(pend, phi)
        value = period_exact_quadrature(pend, undeformed, phi, rel_tol=1e-12)
        worst = max(worst, abs(value - oracle) / oracle)
    phis = [0.2, 0.1, 0.05]
    residuals = [
        abs(
            period_exact_quadrature(pend, undeformed, phi, rel_tol=1e-12)
            - period_first_order(pend, undeformed, pend.length * math.sin(phi))
        )
        for phi in phis
    ]
    exponent = float(np.polyfit(np.log(phis), np.log(residuals), 1)[0])
    ok = worst <= 1e-8 and abs(exponent - 4.0) <= 0.3
    detail = f"agm_rel_dev={worst:.2e} phi4_exponent={exponent:.3f}"
    assert report("7", "quadrature correctness", ok, detail), detail


def test_criterion_8_quantum_classical_equivalence():
    mass = omega = amp = 1.0
    beta = 5e-5
    z = beta * mass**2 * omega**2 * amp**2
    times = np.linspace(0.0, 2.0 * math.pi / omega, 400)

    def closed_vs_ode(b: float) -> float:
        model = OscillatorModel(mass=mass, omega=omega, hbar=1e-6, beta=b)
        closed = trajectory_x_closed_form(model, amp, times)
        ode = ode_oscillator_trajectory(mass, omega, b, amp, times, rel_tol=1e-12)
        return float(np.max(np.abs(closed - ode)))

    dev = closed_vs_ode(beta)
    drop = dev / closed_vs_ode(0.5 * beta)

    J, t_probe, dim = 4.0, 1.1, 48
    betas = [1e-6, 1e-5, 1e-4]
    residuals = []
    for b in betas:
        model = OscillatorModel(mass=1.0, omega=1.0, hbar=1.0, beta=b)
        state = gazeau_klauder_state(model, J, 0.0, dim)
        ops = build_truncated_operators(model, dim)
        evolved = evolve_gk(state, t_probe)
        x_matrix = matrix_expectation(evolved, ops.x).real
        # |J, 0> moves as a release from rest at sqrt(2 hbar J / (m omega))
        release = math.sqrt(2.0 * model.hbar * J / (model.mass * model.omega))
        x_closed = trajectory_x_closed_form(model, release, t_probe)
        residuals.append(abs(x_matrix - x_closed))
    slope = float(np.polyfit(np.log(betas), np.log(residuals), 1)[0])

    ok = dev <= 1e-3 * amp * z and drop >= 3.5 and abs(slope - 2.0) <= 0.2
    detail = (
        f"ode_dev={dev:.2e} (tol {1e-3 * amp * z:.2e}) halving_drop={drop:.2f} "
        f"matrix_beta_slope={slope:.3f}"
    )
    assert report("8", "quantum-classical equivalence", ok, detail), detail


def test_criterion_9_algebra_invariants():
    model = OscillatorModel(mass=1.0, omega=1.0, hbar=1.0, beta=2e-4)
    J = 4.0
    state = gazeau_klauder_state(model, J, 0.3)
    norm_deficit = abs(1.0 - state.norm**2)

    t_probe = 1.7
    evolved = evolve_gk(state, t_probe)
    rebuilt = gazeau_klauder_state(
        model, J, 0.3 + model.omega * t_probe, state.dimension
    )
    drift = float(np.max(np.abs(evolved.amplitudes - rebuilt.amplitudes)))

    ops = build_truncated_operators(model, state.dimension)
    h_err = abs(
        matrix_expectation(state, ops.h).real - model.hbar * model.omega * J
    ) / (model.hbar * model.omega * J)

    betas = [1e-6, 1e-5, 1e-4]
    residuals = []
    for b in betas:
        scaled = OscillatorModel(mass=1.0, omega=1.0, hbar=1.0, beta=b)
        sops = build_truncated_operators(scaled, 48)
        comm = sops.x @ sops.p - sops.p @ sops.x
        target = 1j * scaled.hbar * (np.eye(48) + scaled.beta * (sops.p @ sops.p))
        residuals.append(float(np.max(np.abs((comm - target)[:42, :42]))))
    slope = float(np.polyfit(np.log(betas), np.log(residuals), 1)[0])

    ok = (
        norm_deficit < 1e-10
        and drift < 1e-14
        and h_err < 1e-10
        and abs(slope - 2.0) <= 0.1
    )
    detail = (
        f"norm_deficit={norm_deficit:.1e} stability_drift={drift:.1e} "
        f"h_rel_err={h_err:.1e} commutator_beta_slope={slope:.3f}"
    )
    assert report("9", "algebra invariants", ok, detail), detail


def test_criterion_10_round_trips():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(-2.0, 2.0))
        n = 10.0 ** float(rng.uniform(3.0, 27.0))
        beta0 = 10.0 ** float(rng.uniform(-4.0, 8.0))
        upper = beta0 * n ** (-alpha)
        recovered = alpha_bound(upper, n, beta0)
        worst = max(worst, abs(recovered - alpha) / max(abs(alpha), 1e-300))
        b0, a = exclusion_boundary(upper, n, beta0_grid=[beta0]).points[0]
        worst = max(worst, abs(b0 * n ** (-a) - upper) / upper)
    ok = worst <= 1e-12
    assert report("10", "round trips", ok, f"worst_rel_dev={worst:.2e}"), worst
