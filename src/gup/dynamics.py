"""Classical dynamics under a minimal-length deformed bracket.

The Poisson bracket {x, p} = 1 + beta p^2 modifies Hamiltonian flow for
any system whose Hamiltonian is written in the physical momentum p.  The
canonical variable ptilde = arctan(sqrt(beta) p) / sqrt(beta) restores
{x, ptilde} = 1 and is what the integrators here evolve.

Two systems are covered:

* a plane pendulum parametrised by the horizontal displacement of the
  bob, valid for swing angles below pi/2, with
  H = p^2 cos^2(theta) / (2 m) - m g L cos(theta) after the remap, and
* the harmonic oscillator that the pendulum turns into in the
  small-amplitude limit, used for classical-limit comparisons.

Both are integrated in their canonical pair.  For the pendulum that is
x = L sin(theta) and ptilde, with

    H(x, ptilde) = tan^2(sqrt(beta) ptilde) c^2 / (2 m beta) - m g L c,
    c = sqrt(1 - x^2 / L^2),

that is, p^2 c^2 / (2 m) - m g L c, with p = ptilde at beta = 0.
Hamilton's equations in (x, ptilde) are smooth through the turning
points, where ptilde passes through zero, so a whole swing is one
high-order solve; zero crossings are events on x and turning points
events on ptilde.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import PLANCK_MOMENTUM_SQ

__all__ = [
    "DeformationParams",
    "PendulumConfig",
    "QuadratureError",
    "TrajectoryError",
    "momentum_remap",
    "period_first_order",
    "period_exact_quadrature",
    "period_beta_linearized",
    "integrate_trajectory",
    "trajectory_period",
    "integrate_oscillator_trajectory",
]


def __getattr__(name: str):
    # the integrators import scipy.integrate when they run; this keeps
    # gup.dynamics.integrate naming it for callers that wrap its functions
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class TrajectoryError(RuntimeError):
    """The ODE integrator failed to cover the requested time span."""


@dataclass(frozen=True)
class DeformationParams:
    """Dimensionless deformation strength and its composite-body scaling.

    The bracket deformation felt by the centre of mass of a body made of
    n_particles constituents is

        beta = beta0 / (n_particles**alpha * (M_p c)**2)

    in SI units (1/momentum^2).  alpha interpolates between no
    suppression (alpha = 0) and the quadratic suppression expected for
    perfectly rigid composites (alpha = 2).
    """

    beta0: float
    alpha: float = 0.0
    n_particles: float = 1.0

    def __post_init__(self) -> None:
        if not (self.beta0 >= 0.0 and math.isfinite(self.beta0)):
            raise ValueError("beta0 must be finite and non-negative")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (self.n_particles >= 1.0 and math.isfinite(self.n_particles)):
            raise ValueError("n_particles must be finite and at least 1")

    @property
    def effective_beta(self) -> float:
        """Deformation in SI units, beta0 / (N^alpha (M_p c)^2)."""
        scale = self.n_particles ** self.alpha
        beta = self.beta0 / (scale * PLANCK_MOMENTUM_SQ)
        if not math.isfinite(beta):
            raise ValueError(
                f"effective beta overflows for n_particles={self.n_particles!r}, "
                f"alpha={self.alpha!r}"
            )
        return beta


def _as_beta(deformation: "float | DeformationParams") -> float:
    """Accept a raw SI beta or a DeformationParams and return SI beta."""
    if isinstance(deformation, DeformationParams):
        return deformation.effective_beta
    beta = float(deformation)
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be finite and non-negative")
    return beta


@dataclass(frozen=True)
class PendulumConfig:
    """Point pendulum: bob mass in kg, length in m, local g in m/s^2."""

    mass: float
    length: float
    gravity: float

    def __post_init__(self) -> None:
        for name in ("mass", "length", "gravity"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def small_period(self) -> float:
        """Undeformed small-amplitude period 2 pi sqrt(L/g)."""
        return 2.0 * math.pi * math.sqrt(self.length / self.gravity)


def momentum_remap(momentum, beta: float):
    """Canonical momentum arctan(sqrt(beta) p) / sqrt(beta).

    Bounded by pi / (2 sqrt(beta)) for beta > 0 and reduces to the
    identity at beta = 0.  Accepts scalars or arrays.
    """
    beta = _as_beta(beta)
    p = np.asarray(momentum, dtype=float)
    if beta == 0.0:
        out = p.copy()
    else:
        root = math.sqrt(beta)
        out = np.arctan(root * p) / root
    return out if out.ndim else float(out)


# --- periods ---------------------------------------------------------------


def _check_swing(
    deformation: "float | DeformationParams", phi: float, rel_tol: float
) -> tuple[float, float, float]:
    """SI beta, angular amplitude and rel_tol of a swing, each checked."""
    beta = _as_beta(deformation)
    phi = float(phi)
    if not (0.0 < phi < 0.5 * math.pi):
        raise ValueError("angular amplitude must lie in (0, pi/2)")
    rel_tol = float(rel_tol)
    if not (1e-14 < rel_tol < 1e-3):
        raise ValueError("rel_tol must lie in (1e-14, 1e-3)")
    return beta, phi, rel_tol


def period_first_order(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    amplitude: float,
) -> float:
    """Period to first order in amplitude^2 and in the deformation.

        T = 2 pi sqrt(L/g) (1 + A^2/(16 L^2) - beta m^2 g A^2 / (2 L))

    with A the displacement amplitude in metres, A < L.  The deformation
    shortens the period, opposing the usual anharmonic lengthening.
    """
    beta = _as_beta(deformation)
    amplitude = float(amplitude)
    if not (0.0 <= amplitude < pend.length):
        raise ValueError("amplitude must be non-negative and below the pendulum length")
    base = pend.small_period
    anharmonic = amplitude**2 / (16.0 * pend.length**2)
    deformed = beta * pend.mass**2 * pend.gravity * amplitude**2 / (2.0 * pend.length)
    return base * (1.0 + anharmonic - deformed)


def _quad_smooth(func, lo: float, hi: float, rel_tol: float) -> float:
    """Adaptive quadrature of a smooth integrand with failure detection."""
    from scipy import integrate
    result = integrate.quad(
        func, lo, hi, epsabs=1e-300, epsrel=rel_tol, full_output=True, limit=200
    )
    if len(result) > 3:
        # quad appends an explanation string only when it gave up
        raise QuadratureError(f"adaptive quadrature did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if value != 0.0 and abserr > 10.0 * rel_tol * abs(value):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.2e} exceeds requested "
            f"relative tolerance {rel_tol:.2e}"
        )
    return value


def _split_period(
    pend: PendulumConfig,
    beta: float,
    phi: float,
    rel_tol: float,
    linearized: bool,
) -> float:
    """Shared quadrature core for the exact and linearized periods.

    Substituting sin(theta/2) = sin(phi/2) sin(u) maps the half-swing to
    u in [0, pi/2] and turns the (cos theta - cos phi)^(-1/2) endpoint
    divergence into the smooth elliptic integrand.  The deformation term
    is kept either exactly, via 1/(1+z) = 1 - z/(1+z), or to first order
    in beta (z alone), matching the expansion used for the closed form.
    """
    k = math.sin(0.5 * phi)
    k2 = k * k
    strength = 2.0 * pend.mass**2 * pend.gravity * pend.length * beta

    def elliptic(u: float) -> float:
        s = k * math.sin(u)
        return 1.0 / math.sqrt(1.0 - s * s)

    singular = _quad_smooth(elliptic, 0.0, 0.5 * math.pi, rel_tol)

    remainder = 0.0
    if strength != 0.0:

        def deformation_term(u: float) -> float:
            sin_u = math.sin(u)
            s = k * sin_u
            theta = 2.0 * math.asin(s)
            height = 2.0 * k2 * (math.cos(u) ** 2)  # cos(theta) - cos(phi)
            z = strength * height / math.cos(theta) ** 2
            weight = z if linearized else z / (1.0 + z)
            return weight / math.sqrt(1.0 - s * s)

        remainder = _quad_smooth(deformation_term, 0.0, 0.5 * math.pi, rel_tol)

    prefactor = 2.0 * math.sqrt(2.0) * math.sqrt(2.0 * pend.length / pend.gravity)
    return prefactor * (singular - remainder)


def period_exact_quadrature(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    rel_tol: float = 1e-10,
) -> float:
    """Full nonlinear period by quadrature of the energy integral.

    Evaluates

        T = 2 int_{-phi}^{phi} dtheta
            [cos(theta) sqrt(2 (g/L) f) (1 + 2 m^2 g L f beta)]^(-1)

    with no expansion in beta.  The endpoint singularity is removed
    analytically, so the two remaining integrands are smooth and the
    requested relative tolerance is met directly.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    return _split_period(pend, beta, phi, rel_tol, linearized=False)


def period_beta_linearized(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    rel_tol: float = 1e-10,
) -> float:
    """Period with the deformation kept to first order under the integral.

    Companion to period_exact_quadrature for quantifying how much the
    first-order treatment misses; the difference between the two scales
    with the square of the deformation strength.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    return _split_period(pend, beta, phi, rel_tol, linearized=True)


# --- trajectories ----------------------------------------------------------


def _physical_momentum(ptilde: float, root: float) -> tuple[float, float]:
    """p(ptilde) = tan(root ptilde) / root and dp/dptilde, with root = sqrt(beta).

    Both reduce to (ptilde, 1) in the undeformed case root = 0.
    """
    if root == 0.0:
        return ptilde, 1.0
    u = root * ptilde
    return math.tan(u) / root, 1.0 / math.cos(u) ** 2


def _solve_swing(
    pend: PendulumConfig,
    beta: float,
    phi: float,
    t_end: float,
    rel_tol: float,
    dense_output: bool = False,
):
    """One DOP853 solve of the swing in the canonical pair (x, ptilde).

    Evolves Hamilton's equations for

        H = p(ptilde)^2 c^2 / (2 m) - m g L c,   c = sqrt(1 - x^2 / L^2),

    released from rest at x = L sin(phi).  Event 0 is x = 0 (zero
    crossings in either direction), event 1 is ptilde = 0 (turning
    points, including the release at t = 0).
    """
    mass, length = pend.mass, pend.length
    weight = mass * pend.gravity
    root = math.sqrt(beta)

    def rhs(t, state):
        x, ptilde = state
        p, slope = _physical_momentum(ptilde, root)
        c2 = 1.0 - (x / length) ** 2
        velocity = p * c2 * slope / mass
        force = (x / length) * (p * p / (mass * length) - weight / math.sqrt(c2))
        return (velocity, force)

    def crossing(t, state):
        return state[0]

    def turning(t, state):
        return state[1]

    x0 = length * math.sin(phi)
    # momentum at the bottom of the swing, m sqrt(2 g L (1 - cos(phi)))
    p_max = 2.0 * mass * math.sin(0.5 * phi) * math.sqrt(pend.gravity * length)
    ptilde_max = momentum_remap(p_max, beta)
    from scipy import integrate
    sol = integrate.solve_ivp(
        rhs,
        (0.0, t_end),
        (x0, 0.0),
        method="DOP853",
        rtol=rel_tol,
        atol=(rel_tol * 1e-2 * x0, rel_tol * 1e-2 * ptilde_max),
        dense_output=dense_output,
        events=[crossing, turning],
    )
    if sol.status < 0:
        raise TrajectoryError(f"swing integration failed: {sol.message}")
    return sol


def integrate_trajectory(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    t_end: float,
    rel_tol: float = 1e-10,
    times: "Sequence[float] | None" = None,
) -> np.ndarray:
    """Integrate a swing released from rest at theta = +phi.

    Returns a read-only (n, 3) float64 array of (time, angle, displacement)
    rows, displacement being the bob's horizontal coordinate L sin(angle).
    Hamilton's equations are integrated in the canonical pair (x, ptilde),
    smooth through the turning points, in one high-order solve whose dense
    output gives theta = asin(x / L).  Unless explicit times are given, rows
    lie on a uniform grid of 256 per period_exact_quadrature period (at
    least 64); they are monotone in time either way.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    t_end = float(t_end)
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")

    if times is None:
        period = period_exact_quadrature(pend, beta, phi)
        count = max(64, round(256 * t_end / period))
        grid = np.linspace(0.0, t_end, count)
    else:
        grid = np.asarray(times, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("times must be a non-empty 1-D sequence")
        if np.any(np.diff(grid) < 0.0) or grid[0] < 0.0 or grid[-1] > t_end:
            raise ValueError("times must be non-decreasing within [0, t_end]")
    sol = _solve_swing(pend, beta, phi, t_end, rel_tol, dense_output=True)
    displacements = sol.sol(grid)[0]
    angles = np.arcsin(displacements / pend.length)
    samples = np.column_stack((grid, angles, displacements))
    samples.flags.writeable = False
    return samples


def trajectory_period(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    rel_tol: float = 1e-10,
) -> float:
    """Empirical period from the zero crossings of an integrated swing.

    Integrates a little under three periods, sized from
    period_exact_quadrature, and averages the spacing of same-direction
    zero crossings, which the solver locates by root finding on its
    dense output.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    period = period_exact_quadrature(pend, beta, phi)
    crossings = _solve_swing(pend, beta, phi, 2.8 * period, rel_tol).t_events[0]
    if len(crossings) < 3:
        raise TrajectoryError("not enough zero crossings to estimate a period")
    return float(np.mean(crossings[2:] - crossings[:-2]))


def integrate_oscillator_trajectory(
    mass: float,
    omega: float,
    deformation: "float | DeformationParams",
    amplitude: float,
    times: Sequence[float],
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """Displacement of the deformed harmonic oscillator at given times.

    Evolves H = tan^2(sqrt(beta) ptilde) / (2 m beta) + m omega^2 x^2 / 2
    in the canonical pair (x, ptilde), released from rest at x =
    amplitude.  This phase-space form is smooth through the turning
    points, so a single high-order integration suffices.
    """
    beta = _as_beta(deformation)
    if not (mass > 0.0 and omega > 0.0):
        raise ValueError("mass and omega must be positive")
    amplitude = float(amplitude)
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) < 0.0):
        raise ValueError("times must be a non-decreasing 1-D sequence")
    root = math.sqrt(beta)

    def rhs(t, state):
        x, pt = state
        p, slope = _physical_momentum(pt, root)
        return (p * slope / mass, -mass * omega**2 * x)

    from scipy import integrate
    sol = integrate.solve_ivp(
        rhs,
        (min(0.0, grid[0]), grid[-1]),
        (amplitude, 0.0),
        method="DOP853",
        rtol=rel_tol,
        atol=rel_tol * amplitude * 1e-2,
        t_eval=grid,
        dense_output=False,
    )
    if sol.status != 0:
        raise TrajectoryError(f"oscillator integration failed: {sol.message}")
    return sol.y[0].copy()
