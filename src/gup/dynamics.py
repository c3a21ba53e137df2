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
whole motion: Dormand and Prince's 8(5,3) pair DOP853 with its 7th-order
continuous extension (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, 2nd ed. (1993), II.10 and II.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
    tan = math.tan(root * ptilde)
    return tan / root, 1.0 + tan * tan


# DOP853's continuous extension, y(t + u h) = y + sum_j F_j u^((j+2)//2) (1-u)^((j+1)//2):
# F_0..F_2 from the step's rise and end slopes, h times these rows of k1, k6..k16 for F_3..F_6
_DOP853_DENSE = np.array([
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]).T


def _dop853_step(f, k1, h):
    """DOP853 step of length h: rise, 5th- and 3rd-order errors, slopes k1, k6..k12, f(rise).

    f(d) is the slope at the step's start plus d, k1 = f(0).  k2..k5 have no
    weight in the rise, the errors or the continuous extension.
    """
    k2 = f(h * (0.05260015195876773 * k1))
    k3 = f(h * (0.0197250569845379 * k1 + 0.0591751709536137 * k2))
    k4 = f(h * (0.02958758547680685 * k1 + 0.08876275643042054 * k3))
    k5 = f(h * (0.2413651341592667 * k1 - 0.8845494793282861 * k3 + 0.924834003261792 * k4))
    k6 = f(h * (0.037037037037037035 * k1 + 0.17082860872947386 * k4 + 0.12546768756682242 * k5))
    k7 = f(h * (0.037109375 * k1 + 0.17025221101954405 * k4 + 0.06021653898045596 * k5
                - 0.017578125 * k6))
    k8 = f(h * (0.03709200011850479 * k1 + 0.17038392571223998 * k4 + 0.10726203044637328 * k5
                - 0.015319437748624402 * k6 + 0.008273789163814023 * k7))
    k9 = f(h * (0.6241109587160757 * k1 - 3.3608926294469414 * k4 - 0.868219346841726 * k5
                + 27.59209969944671 * k6 + 20.154067550477894 * k7 - 43.48988418106996 * k8))
    k10 = f(h * (0.47766253643826434 * k1 - 2.4881146199716677 * k4 - 0.590290826836843 * k5
                 + 21.230051448181193 * k6 + 15.279233632882423 * k7 - 33.28821096898486 * k8
                 - 0.020331201708508627 * k9))
    k11 = f(h * (-0.9371424300859873 * k1 + 5.186372428844064 * k4 + 1.0914373489967295 * k5
                 - 8.149787010746927 * k6 - 18.52006565999696 * k7 + 22.739487099350505 * k8
                 + 2.4936055526796523 * k9 - 3.0467644718982196 * k10))
    k12 = f(h * (2.273310147516538 * k1 - 10.53449546673725 * k4 - 2.0008720582248625 * k5
                 - 17.9589318631188 * k6 + 27.94888452941996 * k7 - 2.8589982771350235 * k8
                 - 8.87285693353063 * k9 + 12.360567175794303 * k10 + 0.6433927460157636 * k11))
    rise = h * (0.054293734116568765 * k1 + 4.450312892752409 * k6 + 1.8915178993145003 * k7
                - 5.801203960010585 * k8 + 0.3111643669578199 * k9 - 0.1521609496625161 * k10
                + 0.20136540080403034 * k11 + 0.04471061572777259 * k12)
    err5 = h * (0.01312004499419488 * k1 - 1.2251564463762044 * k6 - 0.4957589496572502 * k7
                + 1.6643771824549864 * k8 - 0.35032884874997366 * k9
                + 0.3341791187130175 * k10 + 0.08192320648511571 * k11
                - 0.022355307863886294 * k12)
    err3 = rise - h * (0.2440944881889764 * k1 + 0.7338466882816118 * k9
                       + 0.022058823529411766 * k12)
    return rise, err5, err3, (k1, k6, k7, k8, k9, k10, k11, k12, f(rise))


def _dop853_dense_stages(f, h, slopes):
    """The three stages k14..k16 that DOP853's continuous extension adds to a step."""
    k1, k6, k7, k8, k9, k10, k11, k12, k13 = slopes
    k14 = f(h * (0.056167502283047954 * k1 + 0.25350021021662483 * k7 - 0.2462390374708025 * k8
                 - 0.12419142326381637 * k9 + 0.15329179827876568 * k10
                 + 0.00820105229563469 * k11 + 0.007567897660545699 * k12 - 0.008298 * k13))
    k15 = f(h * (0.03183464816350214 * k1 + 0.028300909672366776 * k6
                 + 0.053541988307438566 * k7 - 0.05492374857139099 * k8
                 - 0.00010834732869724932 * k11 + 0.0003825710908356584 * k12
                 - 0.00034046500868740456 * k13 + 0.1413124436746325 * k14))
    k16 = f(h * (-0.42889630158379194 * k1 - 4.697621415361164 * k6 + 7.683421196062599 * k7
                 + 4.06898981839711 * k8 + 0.3567271874552811 * k9
                 - 0.0013990241651590145 * k13 + 2.9475147891527724 * k14
                 - 9.15095847217987 * k15))
    return k14, k15, k16


def _quarter_swing(pend: PendulumConfig, beta: float, phi: float, rel_tol: float):
    """One DOP853 solve of the swing from rest to its first zero crossing t_1.

    Evolves dtheta/dt = p cos(theta) p'(ptilde) / (m L) and dptilde/dt =
    sin(theta) (p^2 / (m L) - m g / cos(theta)) from rest at theta = phi, as
    one complex state theta + i ptilde, with the 12-stage 8th-order pair DOP853
    (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed. (1993), II.10).  Beside
    the state it carries the low part its floats round off, as compensated
    summation does, and the right-hand side adds it to first order: near
    theta = pi/2 and near p's pole the last bits of theta and ptilde set
    cos(theta) and p, and without it the period's rounding error reached
    1e-12.  Steps are controlled as scipy's DOP853 does (RMS norm of the
    5th-order error estimate, damped where the 3rd-order one is larger; safety
    0.9, growth in [0.2, 10], exponent 1/8) within a span a fifth past t_1 <=
    (pi/2) sqrt(L/g) / cos(phi/2): K(k) <= (pi/2) / sqrt(1 - k^2), and the
    deformation only shortens the swing.  Newton on the length of the step
    that crosses theta = 0 gives t_1, started from the step end nearer the
    crossing and bisecting where it would leave the step.  Returns t_1, the
    accepted steps and the right-hand side, for _swing_states.
    """
    mass, length = pend.mass, pend.length
    weight, mass_length = mass * pend.gravity, mass * length
    root = math.sqrt(beta)

    def rhs(y, low, d):
        state = y + d
        theta, ptilde = state.real, state.imag
        cos = math.cos(theta)
        # NaN makes the step controller reject a stage past |theta| = pi/2 or p's pole
        if cos <= 0.0 or root * abs(ptilde) >= 0.5 * math.pi:
            return complex(math.nan, math.nan)
        sin = math.sin(theta)
        p, slope = _physical_momentum(ptilde, root)
        # cos(theta) near pi/2 and p near its pole need what the floats drop: the low
        # part carried beside y and the rounding of y + d, added here to first order
        shift = (y - state) + d + low
        cos, sin = cos - sin * shift.real, sin + cos * shift.real
        p, slope = p + slope * shift.imag, slope * (1.0 + 2.0 * beta * p * shift.imag)
        velocity = p * cos * slope / mass_length
        force = sin * (p * p / mass_length - weight / cos)
        return complex(velocity, force)

    # momentum at the bottom of the swing, m sqrt(2 g L (1 - cos(phi)))
    p_max = 2.0 * mass * math.sin(0.5 * phi) * math.sqrt(pend.gravity * length)
    atol_theta, atol_p = rel_tol * 1e-2 * phi, rel_tol * 1e-2 * momentum_remap(p_max, beta)
    span = 0.6 * math.pi * math.sqrt(length / pend.gravity) / math.cos(0.5 * phi)
    t, y, low, h, rejected, steps = 0.0, complex(phi, 0.0), 0j, 1e-3 * span, False, []
    k = rhs(y, low, 0j)
    while y.real > 0.0:
        if t >= span:
            raise TrajectoryError("the swing did not reach a zero crossing")
        h = min(h, span - t)
        if h < 10.0 * math.ulp(t):
            raise TrajectoryError(f"swing integration failed: step {h:.3g} s at t = {t:.6g} s")
        rise, err5, err3, slopes = _dop853_step(partial(rhs, y, low), k, h)
        end = y + (rise + low)
        # ptilde barely moves near p's pole: weigh its error as p's
        w = math.cos(root * y.imag)
        scale_theta = atol_theta + rel_tol * max(abs(y.real), abs(end.real))
        scale_p = atol_p + w * rel_tol * max(abs(y.imag), abs(end.imag))
        sq5 = (err5.real / scale_theta) ** 2 + (err5.imag / scale_p) ** 2
        sq3 = (err3.real / scale_theta) ** 2 + (err3.imag / scale_p) ** 2
        norm = sq5 / math.sqrt(2.0 * (sq5 + 0.01 * sq3)) if sq5 else 0.0  # RMS over the two
        if not norm < 1.0:  # NaN too
            h, rejected = h * max(0.2, 0.9 * norm ** -0.125), True
            continue
        steps.append((t, h, y, low, rise, slopes))
        grow = min(0.9 * norm ** -0.125 if norm else 10.0, 1.0 if rejected else 10.0)
        low = (y - end) + (rise + low)  # what end rounds off
        t, y, k, h, rejected = t + h, end, slopes[-1], h * grow, False
    t, h, y, low, rise, slopes = steps[-1]
    # theta > 0 at t + lo, <= 0 at t + hi
    f, lo, hi, k1 = partial(rhs, y, low), 0.0, h, slopes[0]
    theta, rate = y.real + rise.real, slopes[-1].real
    if y.real < -theta:  # start from the end nearer the crossing
        h, theta, rate = 0.0, y.real, k1.real
    for _ in range(8):  # Newton on theta(t + h) = 0, bisecting where it leaves (lo, hi)
        dh = theta / rate
        if not lo <= h - dh <= hi:
            dh = h - 0.5 * (lo + hi)
        h -= dh
        if abs(dh) <= 1e-3 * rel_tol * (t + h):
            break
        rise, _, _, slopes = _dop853_step(f, k1, h)
        theta, rate = y.real + rise.real, slopes[-1].real
        lo, hi = (h, hi) if theta > 0.0 else (lo, h)
    if not 0.0 < h <= steps[-1][1]:
        raise TrajectoryError("swing integration failed: no zero crossing in its last step")
    return t + h, steps, rhs


def _swing_states(rhs, steps, times: np.ndarray) -> np.ndarray:
    """theta + i ptilde at times in [0, t_1] from the steps and rhs of _quarter_swing.

    DOP853's 7th-order continuous extension (Hairer, Norsett & Wanner, II.6),
    in one numpy pass over the steps.  Its three extra stages per step are
    evaluated here, so trajectory_period, which needs none, never pays for them.
    """
    extra = [_dop853_dense_stages(partial(rhs, y, low), h, slopes)
             for _, h, y, low, _, slopes in steps]
    starts, sizes, states, _, rises, slopes = (np.array(column) for column in zip(*steps))
    k1, k13 = slopes[:, 0], slopes[:, -1]
    coeffs = np.column_stack((
        rises, sizes * k1 - rises, 2.0 * rises - sizes * (k1 + k13),
        sizes[:, None] * (np.column_stack((slopes, extra)) @ _DOP853_DENSE)))
    i = np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)
    u = ((times - starts[i]) / sizes[i])[:, None]
    j = np.arange(7)
    basis = u ** ((j + 2) // 2) * (1.0 - u) ** ((j + 1) // 2)
    return states[i] + (coeffs[i] * basis).sum(axis=1)


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
    7th-order continuous extension of its DOP853 steps: t maps to s = |((t + 2 t_1) mod 4 t_1)
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
    t_1, steps, rhs = _quarter_swing(pend, beta, phi, rel_tol)
    if t_end > 4.0 * _MAX_PERIODS * t_1:
        raise ValueError(
            f"t_end = {t_end:g} s spans {t_end / (4.0 * t_1):.3g} periods of {4.0 * t_1:.6g} s; "
            f"at most {_MAX_PERIODS} periods (256 rows each) are sampled"
        )
    if grid is None:
        grid = np.linspace(0.0, t_end, max(64, round(64 * t_end / t_1)))
    s = np.abs(np.mod(grid + 2.0 * t_1, 4.0 * t_1) - 2.0 * t_1)
    beyond = s > t_1  # past the crossing, theta = -theta(2 t_1 - s)
    theta = _swing_states(rhs, steps, np.where(beyond, 2.0 * t_1 - s, s)).real
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
    motion is symmetric in time and in theta.  t_1 ends one DOP853 solve
    (Hairer, Norsett & Wanner, Solving ODEs I, II.10); see _quarter_swing.
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
