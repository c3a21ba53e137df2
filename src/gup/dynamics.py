"""Classical dynamics under a minimal-length deformed bracket.

The Poisson bracket {x, p} = 1 + beta p^2 modifies Hamiltonian flow for
any system whose Hamiltonian is written in the physical momentum p.  The
canonical variable ptilde = arctan(sqrt(beta) p) / sqrt(beta) restores
{x, ptilde} = 1 and is what the integrators here evolve.

Two systems are covered:

* a plane pendulum parametrised by its swing angle theta, valid below
  pi/2, with H = p^2 cos^2(theta) / (2 m) - m g L cos(theta) after the
  remap, p conjugate to the bob's horizontal coordinate L sin(theta), and
* the harmonic oscillator that the pendulum turns into in the
  small-amplitude limit, used for classical-limit comparisons.

The oscillator's motion has a closed form.  The pendulum is integrated in
theta and ptilde, canonical to L sin(theta), with p = tan(sqrt(beta)
ptilde) / sqrt(beta) in H (p = ptilde at beta = 0).  Hamilton's equations,
dtheta/dt = dH/dptilde / (L cos(theta)) and dptilde/dt = -dH/dtheta /
(L cos(theta)), are smooth through the turning points, where ptilde
passes through zero.  The swing is even in time and in theta, so one
solve from rest to the first zero crossing, a quarter period, fixes the
whole motion: a Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6 (1980)
19) with Shampine's continuous extension (Math. Comp. 46 (1986) 135).
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
    # names scipy.integrate for callers that wrap solve_ivp; no solve here uses it
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class TrajectoryError(RuntimeError):
    """A trajectory was not integrated over its span, or misses its tolerance."""


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
        """Deformation in SI units, beta0 / (N^alpha (M_p c)^2), 0 where beta0 = 0.

        An N^alpha past float range gives 0; ValueError where beta overflows.
        """
        if self.beta0 == 0.0:
            return 0.0
        try:
            scale = self.n_particles ** self.alpha * PLANCK_MOMENTUM_SQ
        except OverflowError:  # beta0 / inf rounds to 0
            return 0.0
        beta = self.beta0 / scale if scale > 0.0 else math.inf  # N^alpha rounded to 0
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
        # the deformation strength scales with it, and mass**2 would raise OverflowError
        if not math.isfinite(self.mass * self.mass * self.gravity * self.length):
            raise ValueError(f"m^2 g L overflows float64 at mass {self.mass:g} kg")

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
    shortens the period, opposing the usual anharmonic lengthening; past
    1 + A^2/(16 L^2) it makes T non-positive, which is not refused.
    """
    beta = _as_beta(deformation)
    amplitude = float(amplitude)
    if not (0.0 <= amplitude < pend.length):
        raise ValueError("amplitude must be non-negative and below the pendulum length")
    base = pend.small_period
    anharmonic = amplitude**2 / (16.0 * pend.length**2)
    deformed = beta * pend.mass**2 * pend.gravity * amplitude**2 / (2.0 * pend.length)
    return base * (1.0 + anharmonic - deformed)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Nodes: eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23
    (1969) 221); weights: 1 / sum_{m<n} (m + 1/2) P_m(x)^2 by recurrence.
    """
    j = np.arange(1.0, n)
    nodes = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    below, legendre, norm = 0.0, np.ones(n), np.zeros(n)
    for m in range(n):
        norm += (m + 0.5) * legendre**2
        below, legendre = legendre, ((2 * m + 1) * nodes * legendre - m * below) / (m + 1)
    return nodes, 1.0 / norm


_RULE_20, _RULE_40 = _gauss_legendre(20), _gauss_legendre(40)
_NODES = np.concatenate((_RULE_20[0], _RULE_40[0]))
_MAX_PANELS = 400


def _swing_integral(
    pend: PendulumConfig, beta: float, phi: float, rel_tol: float, linearized: bool
) -> float:
    """Shared quadrature core for the exact and linearized periods.

    sin(theta/2) = k cos(w), k = sin(phi/2), maps the half-swing to w in
    [0, pi/2], turning point at w = 0, with the smooth integrand
    weight(z) / sqrt(1 - k^2 cos^2 w), S = 2 m^2 g L beta and
    z = S (cos theta - cos phi) / cos^2 theta: weight 1/(1+z) exactly,
    1 - z to first order.  Large S confines 1/(1+z) to a layer of width
    cos(phi) / (k sqrt(2S)) at w = 0.  Panels start there and grow
    fourfold; each is halved until its 20- and 40-point Gauss-Legendre
    sums agree to rel_tol of the total.
    """
    k, cos_phi = math.sin(0.5 * phi), math.cos(phi)
    strength = 2.0 * pend.mass**2 * pend.gravity * pend.length * beta
    layer = cos_phi / (k * math.sqrt(2.0 * strength)) if strength else math.pi
    if not layer > 0.0:
        raise QuadratureError("the deformation strength 2 m^2 g L beta overflows")
    count = max(0, math.ceil(math.log(0.5 * math.pi / layer, 4.0)))
    edges = np.append(np.append(0.0, layer * 4.0 ** np.arange(count)), 0.5 * math.pi)
    lo, hi, total, panels = edges[:-1], edges[1:], 0.0, count + 1
    while lo.size:
        if panels > _MAX_PANELS:
            raise QuadratureError(f"quadrature needs more than {_MAX_PANELS} panels "
                                  f"for rel_tol {rel_tol:.2e}")
        half = 0.5 * (hi - lo)[:, None]
        lift = 2.0 * (k * np.sin(lo[:, None] + half * (_NODES + 1.0))) ** 2
        z = strength * lift / (cos_phi + lift) ** 2  # lift = cos(theta) - cos(phi)
        weight = 1.0 - z if linearized else 1.0 / (1.0 + z)
        values = half * weight / np.sqrt(math.cos(0.5 * phi) ** 2 + 0.5 * lift)
        coarse, fine = values[:, :20] @ _RULE_20[1], values[:, 20:] @ _RULE_40[1]
        split = np.abs(fine - coarse) > rel_tol * abs(total + fine.sum())
        total += fine[~split].sum()
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.append(lo[split], mid), np.append(mid, hi[split])
        panels += mid.size
    return 4.0 * math.sqrt(pend.length / pend.gravity) * total


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

    with f = (cos(theta) - cos(phi)) / cos^2(theta) and no expansion in
    beta.  The endpoint singularity is removed analytically; the one smooth
    integrand left is summed on adaptive Gauss-Legendre panels to rel_tol.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    return _swing_integral(pend, beta, phi, rel_tol, linearized=False)


def period_beta_linearized(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    rel_tol: float = 1e-10,
) -> float:
    """Period with the deformation kept to first order under the integral.

    Companion to period_exact_quadrature for quantifying how much the
    first-order treatment misses; the difference between the two scales
    with the square of the deformation strength.  Once z passes 1 the
    weight 1 - z goes negative, and so can T; this is not refused.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    return _swing_integral(pend, beta, phi, rel_tol, linearized=True)


# --- trajectories ----------------------------------------------------------

# integrate_trajectory's longest span; one solve covers any span, so this bounds
# the rows of its default grid (256 per period), not its solve time
_MAX_PERIODS = 1_000


def _physical_momentum(ptilde: float, root: float) -> tuple[float, float]:
    """p(ptilde) = tan(root ptilde) / root and dp/dptilde, with root = sqrt(beta).

    Both reduce to (ptilde, 1) in the undeformed case root = 0.
    """
    if root == 0.0:
        return ptilde, 1.0
    u = root * ptilde
    return math.tan(u) / root, 1.0 / math.cos(u) ** 2


# Shampine's continuous extension (Math. Comp. 46 (1986) 135): y(t + u h) = y + h K P (u .. u^4)
_DP54_DENSE = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _dp54_step(f, y, k1, h):
    """Dormand-Prince step from y, k1 = f(y): end, error, slopes K less k2, which weighs 0."""
    k2 = f(y + h * (0.2 * k1))
    k3 = f(y + h * (3 / 40 * k1 + 9 / 40 * k2))
    k4 = f(y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
    k5 = f(y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4))
    k6 = f(y + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                    - 5103 / 18656 * k5))
    end = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5
                   + 11 / 84 * k6)
    k7 = f(end)
    error = h * (-71 / 57600 * k1 + 71 / 16695 * k3 - 71 / 1920 * k4 + 17253 / 339200 * k5
                 - 22 / 525 * k6 + 0.025 * k7)
    return end, error, (k1, k3, k4, k5, k6, k7)


def _quarter_swing(pend: PendulumConfig, beta: float, phi: float, rel_tol: float):
    """One Dormand-Prince 5(4) solve of the swing from rest to its first zero crossing t_1.

    Evolves dtheta/dt = p cos(theta) p'(ptilde) / (m L) and dptilde/dt =
    sin(theta) (p^2 / (m L) - m g / cos(theta)) from rest at theta = phi, as
    one complex state theta + i ptilde (Dormand & Prince, J. Comput. Appl. Math.
    6 (1980) 19).  Steps are controlled as scipy's RK45 does (RMS error norm,
    safety 0.9, growth in [0.2, 10]) within a span a fifth past t_1 <= (pi/2)
    sqrt(L/g) / cos(phi/2): K(k) <= (pi/2) / sqrt(1 - k^2), and the deformation
    only shortens the swing.  Newton on the length of the step that crosses
    theta = 0 gives t_1.  Returns t_1 and the accepted steps, for _swing_states.
    """
    mass, length = pend.mass, pend.length
    weight = mass * pend.gravity
    root = math.sqrt(beta)

    def rhs(state):
        theta, ptilde = state.real, state.imag
        cos = math.cos(theta)
        # NaN makes the step controller reject a stage past |theta| = pi/2 or p's pole
        if cos <= 0.0 or root * abs(ptilde) >= 0.5 * math.pi:
            return complex(math.nan, math.nan)
        p, slope = _physical_momentum(ptilde, root)
        velocity = p * cos * slope / (mass * length)
        force = math.sin(theta) * (p * p / (mass * length) - weight / cos)
        return complex(velocity, force)

    # momentum at the bottom of the swing, m sqrt(2 g L (1 - cos(phi)))
    p_max = 2.0 * mass * math.sin(0.5 * phi) * math.sqrt(pend.gravity * length)
    atol_theta, atol_p = rel_tol * 1e-2 * phi, rel_tol * 1e-2 * momentum_remap(p_max, beta)
    span = 0.6 * math.pi * math.sqrt(length / pend.gravity) / math.cos(0.5 * phi)
    t, y, h, rejected, steps = 0.0, complex(phi, 0.0), 1e-3 * span, False, []
    k = rhs(y)
    while y.real > 0.0:
        if t >= span:
            raise TrajectoryError("the swing did not reach a zero crossing")
        h = min(h, span - t)
        if h < 10.0 * math.ulp(t):
            raise TrajectoryError(f"swing integration failed: step {h:.3g} s at t = {t:.6g} s")
        end, error, slopes = _dp54_step(rhs, y, k, h)
        # ptilde barely moves near p's pole: weigh its error as p's
        w = math.cos(root * y.imag)
        norm = 0.5 ** 0.5 * math.hypot(  # RMS over the two
            error.real / (atol_theta + rel_tol * max(abs(y.real), abs(end.real))),
            error.imag / (atol_p + w * rel_tol * max(abs(y.imag), abs(end.imag))))
        if not norm < 1.0:  # NaN too
            h, rejected = h * max(0.2, 0.9 * norm ** -0.2), True
            continue
        steps.append((t, h, y, slopes))
        grow = min(0.9 * norm ** -0.2 if norm else 10.0, 1.0 if rejected else 10.0)
        t, y, k, h, rejected = t + h, end, slopes[-1], h * grow, False
    t, h, y, slopes = steps[-1]
    for _ in range(8):  # Newton on theta(t + h) = 0, dtheta/dt being the last stage slope
        h -= (dh := end.real / slopes[-1].real)
        if abs(dh) <= 1e-3 * rel_tol * (t + h):
            break
        end, _, slopes = _dp54_step(rhs, y, slopes[0], h)
    if not 0.0 < h <= steps[-1][1]:
        raise TrajectoryError("swing integration failed: no zero crossing in its last step")
    return t + h, steps


def _swing_states(steps, times: np.ndarray) -> np.ndarray:
    """theta + i ptilde at times in [0, t_1] from the steps of _quarter_swing."""
    starts, sizes, states, slopes = (np.array(column) for column in zip(*steps))
    i = np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)
    u = (times - starts[i]) / sizes[i]
    dense = (slopes @ _DP54_DENSE)[i] * u[:, None] ** np.arange(1, 5)
    return states[i] + sizes[i] * dense.sum(axis=1)


def _time_grid(times: Sequence[float], t_end: "float | None" = None) -> np.ndarray:
    """times as a float64 array, non-empty, 1-D and finite; sorted in [0, t_end] if given."""
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("times must be a non-empty 1-D sequence of finite values")
    if t_end is not None and (np.any(np.diff(grid) < 0.0) or grid[0] < 0.0 or grid[-1] > t_end):
        raise ValueError("times must be non-decreasing within [0, t_end]")
    return grid


def integrate_trajectory(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    t_end: float,
    rel_tol: float = 1e-10,
    times: "Sequence[float] | None" = None,
) -> np.ndarray:
    """Sample a swing released from rest at theta = +phi.

    Returns a read-only (n, 3) float64 array of (time, angle, displacement)
    rows, displacement being the bob's horizontal coordinate L sin(angle).
    One quarter swing is solved, to its first zero crossing t_1, and the
    motion, even in time and in theta with period 4 t_1, is unfolded from the
    continuous extension of its steps: t maps to s = |((t + 2 t_1) mod 4 t_1)
    - 2 t_1| in [0, 2 t_1], and theta(t) = theta(s) for s <= t_1,
    -theta(2 t_1 - s) beyond.  Unless explicit times are given, rows lie on
    a uniform grid of 256 per period (at least 64); they are monotone in
    time either way.  A t_end past _MAX_PERIODS periods raises ValueError.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    t_end = float(t_end)
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    grid = None if times is None else _time_grid(times, t_end)
    t_1, steps = _quarter_swing(pend, beta, phi, rel_tol)
    if t_end > 4.0 * _MAX_PERIODS * t_1:
        raise ValueError(
            f"t_end = {t_end:g} s spans {t_end / (4.0 * t_1):.3g} periods of {4.0 * t_1:.6g} s; "
            f"at most {_MAX_PERIODS} periods (256 rows each) are sampled"
        )
    if grid is None:
        grid = np.linspace(0.0, t_end, max(64, round(64 * t_end / t_1)))
    s = np.abs(np.mod(grid + 2.0 * t_1, 4.0 * t_1) - 2.0 * t_1)
    beyond = s > t_1  # past the crossing, theta = -theta(2 t_1 - s)
    theta = _swing_states(steps, np.where(beyond, 2.0 * t_1 - s, s)).real
    angles = np.where(beyond, -theta, theta)
    samples = np.column_stack((grid, angles, pend.length * np.sin(angles)))
    samples.flags.writeable = False
    return samples


def trajectory_period(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    angular_amplitude: float,
    rel_tol: float = 1e-10,
) -> float:
    """Period 4 t_1 of a swing integrated to its first zero crossing t_1.

    H is even in theta and in ptilde and the bob starts from rest, so the
    motion is symmetric in time and in theta.  t_1 ends one Dormand-Prince
    5(4) solve (J. Comput. Appl. Math. 6 (1980) 19); see _quarter_swing.
    """
    beta, phi, rel_tol = _check_swing(deformation, angular_amplitude, rel_tol)
    return 4.0 * _quarter_swing(pend, beta, phi, rel_tol)[0]


def integrate_oscillator_trajectory(
    mass: float,
    omega: float,
    deformation: "float | DeformationParams",
    amplitude: float,
    times: Sequence[float],
) -> np.ndarray:
    """Displacement of the deformed harmonic oscillator at given times, in closed form.

    H = p^2 / (2 m) + m omega^2 x^2 / 2 under {x, p} = 1 + beta p^2, released
    from rest at x = A.  x = A cos(psi) and p = -m omega A sin(psi) keep the
    energy, and the bracket gives dpsi/dt = omega (1 + z sin^2 psi), z = beta
    m^2 omega^2 A^2, so x(t) = A sqrt(1 + z) cos(W t) / sqrt(1 + z cos^2(W t))
    with W = omega sqrt(1 + z) (Kempf, Mangano & Mann, PRD 52 (1995) 1108).
    Times may come in any order; a z that is not finite raises ValueError.
    """
    beta = _as_beta(deformation)
    if not (mass > 0.0 and omega > 0.0):
        raise ValueError("mass and omega must be positive")
    amplitude = float(amplitude)
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    grid = _time_grid(times)
    try:
        z = beta * mass**2 * omega**2 * amplitude**2
    except OverflowError:  # a float's ** raises where * would give inf
        z = math.inf
    if not math.isfinite(z):
        raise ValueError(f"z = beta m^2 omega^2 A^2 = {z} is not finite")
    c = np.cos(omega * math.sqrt(1.0 + z) * grid)
    return amplitude * math.sqrt(1.0 + z) * c / np.sqrt(1.0 + z * c**2)
