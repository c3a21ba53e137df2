"""Shared fixtures and independent numerical oracles."""

from __future__ import annotations

import csv
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gup.dynamics import PendulumConfig
from gup.evfit import MeasurementSeries

DATA = Path(__file__).resolve().parent.parent / "src" / "gup" / "data"

_SESSION_START = time.perf_counter()

# filled by the acceptance tests, replayed after the short summary where
# capture can no longer swallow it
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    elapsed = time.perf_counter() - _SESSION_START
    verdict = "PASS" if elapsed < 60.0 else "FAIL"
    lines = ACCEPTANCE_LINES + [
        f"acceptance 10b (suite runtime): {verdict} - {elapsed:.1f}s of 60s budget"
    ]
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


def agm_elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m) by the arithmetic-geometric mean.

    Uses only +, *, sqrt; entirely independent of scipy.special and of
    the quadrature code under test.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError("parameter m must lie in [0, 1)")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(40):
        if abs(a - b) <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def agm_pendulum_period(pend: PendulumConfig, phi: float) -> float:
    """Undeformed pendulum period from the AGM elliptic oracle."""
    k2 = math.sin(0.5 * phi) ** 2
    return 4.0 * math.sqrt(pend.length / pend.gravity) * agm_elliptic_k(k2)


def pendulum_period_beta_derivative(
    mass: float, length: float, gravity: float, phi: float
) -> float:
    """dT/dbeta at beta = 0 for a pendulum of swing amplitude ``phi`` rad.

    With the deformed bracket {x, p} = 1 + beta p^2, x = L sin(theta) and
    H = p^2 cos^2(theta) / (2 m) - m g L cos(theta), energy conservation
    gives p^2 = 2 m^2 g L (cos(theta) - cos(phi)) / cos^2(theta), and
    dx/dt = (1 + beta p^2) dH/dp turns into

        dtheta/dt = p cos(theta) (1 + beta p^2) / (m L).

    The period is four times the integral of dt over [0, phi]; its beta
    derivative at beta = 0 is

        -4 m^2 L sqrt(2 g L) * integral_0^phi sqrt(cos(theta) - cos(phi)) / cos^2(theta) dtheta.

    The substitution theta = phi sin(u) makes the integrand smooth on
    [0, pi/2], so plain Gauss-Legendre converges geometrically.  Numpy
    only: independent of scipy.integrate and of the package under test.
    """
    if not 0.0 < phi < 0.5 * math.pi:
        raise ValueError("phi must lie in (0, pi/2)")
    x, w = np.polynomial.legendre.leggauss(32)
    u = 0.25 * math.pi * (x + 1.0)
    theta = phi * np.sin(u)
    # cos(theta) - cos(phi) written without cancellation near the turning point
    gap = 2.0 * np.sin(0.5 * (phi - theta)) * np.sin(0.5 * (phi + theta))
    integrand = np.sqrt(gap) / np.cos(theta) ** 2 * phi * np.cos(u)
    integral = 0.25 * math.pi * float(w @ integrand)
    return -4.0 * mass**2 * length * math.sqrt(2.0 * gravity * length) * integral


def york_line_fit(x, y, sigma_x, sigma_y):
    """Straight-line fit with errors on both axes, York et al. 2004.

    The iteration of D. York, N. M. Evensen, M. L. Martinez and
    J. De Basabe Delgado, Am. J. Phys. 72, 367 (2004), section III, for
    uncorrelated errors: with weights W_i = 1 / (sy_i^2 + b^2 sx_i^2),
    centred data U, V and beta_i = W_i (U_i sy_i^2 + b V_i sx_i^2) the
    slope is refined as b = sum W beta V / sum W beta U from the OLS
    start until it stops moving.  Independent of scipy and of the
    profile-Newton code in gup.evfit.

    Returns (intercept, slope, chi2) with chi2 = sum W (y - a - b x)^2,
    the minimized orthogonal-distance objective.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sx2 = np.broadcast_to(np.asarray(sigma_x, dtype=float) ** 2, x.shape)
    sy2 = np.broadcast_to(np.asarray(sigma_y, dtype=float) ** 2, x.shape)
    xc, yc = x - x.mean(), y - y.mean()
    b = float(np.sum(xc * yc) / np.sum(xc * xc))
    for _ in range(500):
        w = 1.0 / (sy2 + b * b * sx2)
        x_bar, y_bar = np.sum(w * x) / np.sum(w), np.sum(w * y) / np.sum(w)
        u, v = x - x_bar, y - y_bar
        beta = w * (u * sy2 + b * v * sx2)
        b_next = float(np.sum(w * beta * v) / np.sum(w * beta * u))
        converged = abs(b_next - b) <= 1e-14 * abs(b_next)
        b = b_next
        if converged:
            break
    else:
        raise RuntimeError("York iteration did not converge")
    w = 1.0 / (sy2 + b * b * sx2)
    a = float(np.sum(w * y) / np.sum(w) - b * np.sum(w * x) / np.sum(w))
    chi2 = float(np.sum(w * (y - a - b * x) ** 2))
    return a, b, chi2


@pytest.fixture(scope="session")
def experiment() -> PendulumConfig:
    return PendulumConfig(mass=1.22, length=2.9954, gravity=9.80393)


@pytest.fixture(scope="session")
def timing_rows() -> list[tuple[float, float]]:
    with open(DATA / "pendulum_timing.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["amplitude_sq_cm2", "period_s"]
        return [(float(a), float(t)) for a, t in reader]


@pytest.fixture(scope="session")
def timing_series(timing_rows) -> MeasurementSeries:
    amp_sq_m2 = np.array([a for a, _ in timing_rows]) * 1e-4
    period = np.array([t for _, t in timing_rows])
    return MeasurementSeries(x=amp_sq_m2, y=period, sigma_x=5e-3, sigma_y=1e-4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)
