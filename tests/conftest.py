"""Shared fixtures and independent numerical oracles."""

from __future__ import annotations

import csv
import decimal
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


def composite_pendulum_period(
    mass: float, length: float, gravity: float, beta: float, phi: float,
    linearized: bool = False,
) -> float:
    """Deformed pendulum period by composite Gauss-Legendre quadrature.

    From dtheta/dt = p cos(theta) (1 + beta p^2) / (m L) (see
    pendulum_period_beta_derivative), with f = (cos(theta) - cos(phi)) /
    cos^2(theta) and S = 2 m^2 g L beta,

        T = 4 int_0^phi dtheta / [cos(theta) sqrt(2 (g/L) f) (1 + S f)],

    or with 1 - S f in the numerator in place of 1 / (1 + S f) when
    linearized.  theta = phi cos(d) removes the endpoint divergence at the
    turning point d = 0.  48-point panels halve toward it, [2^-(j+1), 2^-j]
    pi/2 for j < 63 and then [0, 2^-63 pi/2], reaching far below the layer
    of width about cos(phi) / sqrt(S phi sin(phi) / 2) that large S leaves
    there.  Numpy only: independent of the package under test and of scipy.
    """
    nodes, weights = np.polynomial.legendre.leggauss(48)
    hi = 0.5 * math.pi * 2.0 ** -np.arange(64.0)
    half = 0.5 * (hi - np.append(hi[1:], 0.0))
    d = (hi - half)[:, None] + half[:, None] * nodes
    theta = phi * np.cos(d)
    # cos(theta) - cos(phi), with phi - theta = 2 phi sin^2(d/2)
    gap = 2.0 * np.sin(phi * np.sin(0.5 * d) ** 2) * np.sin(0.5 * (phi + theta))
    sf = 2.0 * mass**2 * gravity * length * beta * gap / np.cos(theta) ** 2
    factor = 1.0 - sf if linearized else 1.0 / (1.0 + sf)
    integrand = phi * np.sin(d) * factor / np.sqrt(2.0 * gravity / length * gap)
    return 4.0 * float(half @ (integrand @ weights))


def pendulum_zero_crossings(
    mass: float, length: float, gravity: float, beta: float, phi: float, t_end: float
) -> np.ndarray:
    """Times of every zero crossing in [0, t_end] of a swing released from rest.

    Integrates the angle theta and the physical momentum p of
    H = p^2 cos^2(theta) / (2 m) - m g L cos(theta) under
    {x, p} = 1 + beta p^2, x = L sin(theta):

        dtheta/dt = (1 + beta p^2) p cos(theta) / (m L),
        dp/dt = (1 + beta p^2) (p^2 sin(theta) / (m L) - m g tan(theta)),

    with scipy's DOP853 at rtol 1e-12, over whole periods and with no
    symmetry used.  The package under test runs the same pair, but as its
    own implementation, in other coordinates, (theta, arctan(sqrt(beta) p)
    / sqrt(beta)), and over a quarter swing; composite_pendulum_period is
    the oracle that shares no method with it.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, state):
        theta, p = state
        stretch = 1.0 + beta * p * p
        return (stretch * p * math.cos(theta) / (mass * length),
                stretch * (p * p * math.sin(theta) / (mass * length)
                           - mass * gravity * math.tan(theta)))

    def crossing(t, state):
        return state[0]

    p_scale = mass * math.sqrt(gravity * length) * phi
    sol = solve_ivp(rhs, (0.0, t_end), (phi, 0.0), method="DOP853", rtol=1e-12,
                    atol=(1e-14 * phi, 1e-14 * p_scale), events=crossing)
    assert sol.status == 0, sol.message
    return sol.t_events[0]


def ode_oscillator_trajectory(
    mass: float, omega: float, beta: float, amplitude: float, times, rel_tol: float = 1e-12
) -> np.ndarray:
    """Displacement of the deformed harmonic oscillator at non-decreasing times.

    Evolves H = tan^2(sqrt(beta) ptilde) / (2 m beta) + m omega^2 x^2 / 2
    in the canonical pair (x, ptilde), released from rest at x = amplitude,
    with scipy's DOP853.  This phase-space form is smooth through the
    turning points, so a single high-order integration suffices.
    Independent of the package under test, which evaluates the closed form.
    """
    from scipy.integrate import solve_ivp

    root = math.sqrt(beta)

    def rhs(t, state):
        x, pt = state
        if root == 0.0:
            p, slope = pt, 1.0
        else:
            p, slope = math.tan(root * pt) / root, 1.0 / math.cos(root * pt) ** 2
        return (p * slope / mass, -mass * omega**2 * x)

    grid = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (min(0.0, grid[0]), grid[-1]), (amplitude, 0.0), method="DOP853",
                    rtol=rel_tol, atol=rel_tol * amplitude * 1e-2, t_eval=grid)
    assert sol.status == 0, sol.message
    return sol.y[0].copy()


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


def dense_truncated_operators(model, dimension: int):
    """a, x, p and h of the deformed oscillator from dense matrix products.

    The ladder form of Kempf, Mangano & Mann, Phys. Rev. D 52, 1108
    (1995), multiplied out on the lowest ``dimension`` levels: a holds
    sqrt(e_n) at (n-1, n) with e_n = n (1 + nu + nu n), nu = beta m hbar
    omega / 2, and x and p add the normal-ordered cubic terms

        x = c1 (a + a^dag) + c2 (a^dag a a + a^dag a^dag a - a a a - a^dag a^dag a^dag)
        p = i c3 (a^dag - a) + i c4 (a^dag a a - a^dag a^dag a + a a a
                                     - a^dag a^dag a^dag + 2 a - 2 a^dag)

    with each product formed as D x D matrices.  a is real, so the
    products run in real arithmetic; every entry of them has one nonzero
    term, so they match complex products bit for bit.  Numpy only and
    independent of gup.oscillator.  Returns (a, x, p, h).
    """
    m, w, hbar, beta = model.mass, model.omega, model.hbar, model.beta
    nu = 0.5 * beta * m * hbar * w
    levels = np.arange(1, dimension)
    e = levels * (1.0 + nu + nu * levels)
    a = np.zeros((dimension, dimension))
    a[levels - 1, levels] = np.sqrt(e)
    ad = a.T
    aa = a @ a
    ad_ad = ad @ ad
    ad_aa, ad_ad_a, a_aa, ad_ad_ad = ad @ aa, ad_ad @ a, a @ aa, ad_ad @ ad
    c1 = math.sqrt(hbar / (2.0 * m * w))
    c2 = 0.25 * beta * math.sqrt(hbar**3 * m * w / 2.0)
    x = c1 * (a + ad) + c2 * (ad_aa + ad_ad_a - a_aa - ad_ad_ad)
    c3 = math.sqrt(hbar * m * w / 2.0)
    c4 = beta * (hbar * m * w) ** 1.5 / (4.0 * math.sqrt(2.0))
    p = 1j * c3 * (ad - a) + 1j * c4 * (
        ad_aa - ad_ad_a + a_aa - ad_ad_ad + 2.0 * a - 2.0 * ad
    )
    h = np.diag(hbar * w * np.concatenate([[0.0], e]))
    return a, x, p, h


def dense_commutator_residual(model, dimension: int) -> tuple[float, float]:
    """Largest |x p - p x - i hbar (1 + beta p^2)| below the top 5 levels.

    Formed from the dense matrices of dense_truncated_operators.  Returns
    the residual and a bound on its rounding error: 64 units of roundoff
    (about 20 roundings in an operator entry, 41 in a product of two and
    a few more in the sums) times the same expression on absolute values.
    The O(1) parts of x p and p x cancel here, so float64 resolves the
    residual only where that bound is small beside it.
    """
    _, x, p, _ = dense_truncated_operators(model, dimension)
    eye = np.eye(dimension)
    residual = x @ p - p @ x - 1j * model.hbar * (eye + model.beta * (p @ p))
    ax, ap = np.abs(x), np.abs(p)
    scale = ax @ ap + ap @ ax + model.hbar * (eye + model.beta * (ap @ ap))
    inner = slice(0, dimension - 5)
    roundoff = 64 * 2.0**-53
    return (
        float(np.max(np.abs(residual[inner, inner]))),
        roundoff * float(np.max(scale[inner, inner])),
    )


def decimal_commutator_residual(
    mass: float, omega: float, hbar: float, beta: float, dimension: int
) -> decimal.Decimal:
    """The residual of dense_commutator_residual in 50-digit decimals.

    x and p hold the ladder bands of dense_truncated_operators, with
    p = i P for a real antisymmetric P, so the residual is
    |[x, P] - hbar (1 - beta P^2)|.  Only the entries of the 13 bands
    the product can reach are summed, one scalar at a time: stdlib
    decimal only, no numpy and nothing from gup.
    """
    with decimal.localcontext(decimal.Context(prec=50)):
        D = decimal.Decimal
        m, w, h, b = D(mass), D(omega), D(hbar), D(beta)
        nu = b * m * h * w / 2
        e = [n * (1 + nu + nu * n) for n in range(dimension)]
        s = [v.sqrt() for v in e]
        c1 = (h / (2 * m * w)).sqrt()
        c2 = b / 4 * (h**3 * m * w / 2).sqrt()
        c3 = (h * m * w / 2).sqrt()
        c4 = b * (h * m * w) ** D("1.5") / (4 * D(2).sqrt())
        x = [dict() for _ in range(dimension)]
        P = [dict() for _ in range(dimension)]
        for n in range(1, dimension):
            # a^dag a a at (n-1, n); a a a at (n-3, n)
            cubic1 = s[n] * e[n - 1]
            x[n - 1][n] = x[n][n - 1] = c1 * s[n] + c2 * cubic1
            P[n - 1][n] = c4 * (cubic1 + 2 * s[n]) - c3 * s[n]
            P[n][n - 1] = -P[n - 1][n]
            if n >= 3:
                cubic3 = s[n] * s[n - 1] * s[n - 2]
                x[n - 3][n] = x[n][n - 3] = -c2 * cubic3
                P[n - 3][n] = c4 * cubic3
                P[n][n - 3] = -P[n - 3][n]

        def product(left, right, i):
            row = {}
            for k, u in left[i].items():
                for j, v in right[k].items():
                    row[j] = row.get(j, 0) + u * v
            return row

        interior = dimension - 5
        worst = D(0)
        for i in range(interior):
            xp, px, pp = product(x, P, i), product(P, x, i), product(P, P, i)
            for j in set(xp) | set(px) | set(pp):
                if j < interior:
                    value = xp.get(j, 0) - px.get(j, 0) + h * b * pp.get(j, 0)
                    if j == i:
                        value -= h
                    worst = max(worst, abs(value))
        return worst


def gk_log_terms_loop(model, J: float, count: int) -> np.ndarray:
    """log(J^n / rho_n), rho_n = prod_{1<=k<=n} e_k, one level at a time.

    The sequential scalar loop, with e_n = n (1 + nu + nu n) written out
    and each log taken by math.log; independent of gup.oscillator.
    """
    nu = 0.5 * model.beta * model.mass * model.hbar * model.omega
    log_j = math.log(J) if J > 0.0 else -math.inf
    log_terms = np.zeros(count)
    acc = 0.0
    for n in range(1, count):
        acc += log_j - math.log(n * (1.0 + nu + nu * n))
        log_terms[n] = acc
    return log_terms


def reference_exclusion_csv(curves) -> str:
    """The exclusion CSV written one row at a time, an f-string per point.

    curves holds (label, style, points) with points a list of
    (beta0, alpha_min) pairs.  The per-point writer the CLI used before it
    formatted whole columns; nothing from gup.
    """
    lines = ["label,beta0,alpha_min,style"]
    for label, style, points in curves:
        for beta0, alpha in points:
            lines.append(f"{label},{beta0:.12g},{alpha:.12g},{style}")
    return "\n".join(lines) + "\n"


_CHART_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def reference_curve_elements(curves, x_range) -> list[str]:
    """The SVG curve elements of an exclusion chart, one point at a time.

    Scalar px/py on the 760 x 520 layout with margins 64 (left), 18
    (right), 40 (top) and 48 (bottom), alpha in [-1, 1] on the y axis and
    beta0 in x_range, log-scaled, on the x axis, each coordinate formatted with
    :.2f where it is written: per curve a shading polygon and a polyline,
    or a circle for a single point.  curves is as for
    reference_exclusion_csv.  Nothing from gup.
    """
    plot_w, plot_h = 760.0 - 64.0 - 18.0, 520.0 - 40.0 - 48.0
    tx_lo, tx_hi = math.log10(x_range[0]), math.log10(x_range[1])
    if tx_hi <= tx_lo:
        tx_hi = tx_lo + 1.0
    y_lo, y_hi = -1.0, 1.0

    def px(value):
        return 64.0 + (math.log10(value) - tx_lo) / (tx_hi - tx_lo) * plot_w

    def py(value):
        return 40.0 + (y_hi - value) / (y_hi - y_lo) * plot_h

    out = []
    for index, (_, style, points) in enumerate(curves):
        color = _CHART_PALETTE[index % len(_CHART_PALETTE)]
        coords = [(px(x), py(y)) for x, y in points]
        if len(coords) == 1:
            x, y = coords[0]
            out.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                'clip-path="url(#plot)"/>'
            )
            continue
        bottom = 40.0 + plot_h
        shade = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        shade += f" {coords[-1][0]:.2f},{bottom:.2f} {coords[0][0]:.2f},{bottom:.2f}"
        out.append(
            f'<polygon points="{shade}" fill="{color}" fill-opacity="0.07" '
            'stroke="none" clip-path="url(#plot)"/>'
        )
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        dash = ' stroke-dasharray="7 5"' if style == "dashed" else ""
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash} clip-path="url(#plot)"/>'
        )
    return out


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


def profile_by_slope(series: MeasurementSeries, slopes) -> tuple[np.ndarray, np.ndarray]:
    """The slope profile h(b) and its derivative h'(b) at each of ``slopes``.

    Plain sums over the rows with the intercept profiled out,

        w = 1 / (sy^2 + b^2 sx^2),  a = sum w (y - b x) / sum w,
        h = sum w r^2,  h' = sum (-2 b sx^2 w^2 r^2 - 2 w r x),  r = y - a - b x,

    one slope per row of a block of at most 2^20 elements.  Numpy only:
    independent of _scan_derivative and the Chebyshev proxy in gup.evfit.
    """
    x, y = series.x, series.y
    sx2, sy2 = series.sigma_x**2, series.sigma_y**2
    slopes = np.asarray(slopes, dtype=float)
    h, hp = np.empty_like(slopes), np.empty_like(slopes)
    step = max(1, (1 << 20) // x.size)
    for i in range(0, slopes.size, step):
        b = slopes[i : i + step, None]
        w = 1.0 / (sy2 + b * b * sx2)
        a = np.sum(w * (y - b * x), axis=1, keepdims=True) / np.sum(w, axis=1, keepdims=True)
        r = y - a - b * x
        h[i : i + step] = np.sum(w * r * r, axis=1)
        hp[i : i + step] = np.sum(-2.0 * b * sx2 * w * w * r * r - 2.0 * w * r * x, axis=1)
    return h, hp


def dense_profile_scan(series: MeasurementSeries, points: int = 4001, scales: int = 12):
    """Slopes b, h(b) and h'(b) on a dense grid, sorted by b.

    For each row's own ratio r = sigma_y / sigma_x (at most ``scales`` of
    them, taken by quantile over their range when there are more), the
    slopes b = r tan(theta) at ``points`` evenly spaced theta strictly
    inside (-pi/2, pi/2); the profile from profile_by_slope.  The lowest h
    bounds the global minimum of the fit from above, and each sign change
    of h' brackets a stationary point.
    """
    ratios = np.unique(series.sigma_y / series.sigma_x)
    if ratios.size > scales:
        ratios = np.quantile(ratios, np.linspace(0.0, 1.0, scales))
    theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, points + 2)[1:-1]
    slopes = np.unique(np.multiply.outer(ratios, np.tan(theta)))
    return (slopes, *profile_by_slope(series, slopes))


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
