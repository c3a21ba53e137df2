"""Matrix mechanics of the harmonic oscillator with a deformed bracket.

With [x, p] = i hbar (1 + beta p^2) the oscillator keeps a discrete
spectrum but the ladder algebra picks up a quadratic piece,

    a |n> = sqrt(n (1 + nu + nu n)) |n-1>,    nu = beta m hbar omega / 2,

so a^dag a has eigenvalues e_n = n (1 + nu + nu n) instead of n.  This
module builds truncated Fock-space matrices for a, x, p and the ladder
Hamiltonian, the momentum-space eigenfunctions (Gegenbauer polynomials
under the deformed integration measure dp / (1 + beta p^2)), and the
generalized coherent states |J, gamma> adapted to the nonlinear
spectrum, together with the first-order closed forms for <x> and <p>
used to cross-check the classical treatment.

Everything is first order in beta except where matrices are multiplied
out, so residuals of exact identities scale as beta^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .constants import REDUCED_PLANCK
from .dynamics import DeformationParams, PendulumConfig, _as_beta

__all__ = [
    "OscillatorModel",
    "TruncatedOperators",
    "GKState",
    "TruncationError",
    "number_operator_eigenvalue",
    "energy_eigenvalue",
    "gegenbauer",
    "eigenfunction",
    "build_truncated_operators",
    "choose_dimension",
    "gazeau_klauder_state",
    "evolve_gk",
    "matrix_expectation",
    "expectation_xp_closed_form",
    "trajectory_x_closed_form",
    "oscillator_from_pendulum",
]

_GK_TAIL_TOLERANCE = 1e-12
# x and p couple |n> to |n +- 3>, so the top of a truncated block is
# corrupted; keep this many buffer levels beyond the state's support.
_LEVEL_BUFFER = 4
# dense complex D x D matrices cost 16 D^2 bytes each and O(D^3) to
# multiply; 1024 levels is 16 MiB per matrix
_MAX_DIMENSION = 1024


class TruncationError(RuntimeError):
    """A truncated Fock space is too small for the requested object."""


@dataclass(frozen=True)
class OscillatorModel:
    """Harmonic oscillator with an optional bracket deformation.

    hbar is a model field rather than a global constant so the
    classical limit can be probed by scaling it down.  beta is the
    deformation in SI units (inverse momentum squared).
    """

    mass: float
    omega: float
    hbar: float = REDUCED_PLANCK
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and self.omega > 0.0 and self.hbar > 0.0):
            raise ValueError("mass, omega and hbar must be positive")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be finite and non-negative")

    @property
    def ladder_deformation(self) -> float:
        """nu = beta m hbar omega / 2, the ladder-algebra deformation."""
        return 0.5 * self.beta * self.mass * self.hbar * self.omega

    @property
    def gegenbauer_order(self) -> float:
        """Order of the momentum-space eigenfunction polynomials.

        1/2 + sqrt(1/4 + 1/(m hbar omega beta)^2); exceeds 1 whenever
        beta > 0 and diverges in the undeformed limit.
        """
        if self.beta == 0.0:
            raise ValueError("gegenbauer order is undefined at beta = 0")
        inv = 1.0 / (self.mass * self.hbar * self.omega * self.beta)
        return 0.5 + math.sqrt(0.25 + inv * inv)


def number_operator_eigenvalue(n: int, model: OscillatorModel) -> float:
    """Eigenvalue e_n = n (1 + nu + nu n) of a^dag a."""
    if n < 0:
        raise ValueError("level index must be non-negative")
    nu = model.ladder_deformation
    return n * (1.0 + nu + nu * n)


def energy_eigenvalue(n: int, model: OscillatorModel) -> float:
    """Energy of level n, first order in the deformation.

        E_n = hbar omega [(n + 1/2)(sqrt(1 + nu^2) + nu) + n^2 nu]

    Reduces to hbar omega (n + 1/2) at beta = 0; the n^2 term makes the
    spectrum superlinear for beta > 0.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    nu = model.ladder_deformation
    base = (n + 0.5) * (math.sqrt(1.0 + nu * nu) + nu)
    return model.hbar * model.omega * (base + n * n * nu)


def gegenbauer(n: int, order: float, s):
    """Gegenbauer polynomial C_n^order(s) by the three-term recurrence.

        k C_k = 2 (k + order - 1) s C_{k-1} - (k + 2 order - 2) C_{k-2}

    Accepts scalar or array s; exact for the base cases C_0 = 1 and
    C_1 = 2 order s.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if not order > 0.0:
        raise ValueError("order must be positive")
    s = np.asarray(s, dtype=float)
    prev = np.ones_like(s)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * order * s
    for k in range(2, n + 1):
        cur, prev = (
            (2.0 * (k + order - 1.0) * s * cur - (k + 2.0 * order - 2.0) * prev) / k,
            cur,
        )
    return cur if cur.ndim else float(cur)


def eigenfunction(n: int, model: OscillatorModel, p):
    """Momentum-space energy eigenfunction psi_n(p).

    psi_n(p) = (-i)^n z_n (1 - s^2)^(order/2) C_n^order(s) with
    s = sqrt(beta) p / sqrt(1 + beta p^2) and z_n chosen so the family
    is orthonormal under the deformed measure dp / (1 + beta p^2).  The
    (-i)^n phase makes the beta -> 0 limit match the usual oscillator
    conventions.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    beta = model.beta
    if beta <= 0.0:
        raise ValueError("momentum-space eigenfunctions need beta > 0")
    lam = model.gegenbauer_order
    p = np.asarray(p, dtype=float)
    stretch = 1.0 + beta * p * p
    s = np.sqrt(beta) * p / np.sqrt(stretch)
    log_norm = (
        lam * math.log(2.0)
        + gammaln(lam)
        + 0.5
        * (
            gammaln(n + 1.0)
            + math.log(n + lam)
            + 0.5 * math.log(beta)
            - math.log(2.0 * math.pi)
            - gammaln(n + 2.0 * lam)
        )
    )
    phase = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)[n % 4]
    # (1 - s^2) = 1/(1 + beta p^2), computed directly to avoid cancellation
    envelope = np.exp(log_norm - 0.5 * lam * np.log(stretch))
    value = phase * envelope * gegenbauer(n, lam, s)
    return value if np.ndim(value) else complex(value)


@dataclass(frozen=True)
class TruncatedOperators:
    """Fock-space matrices of the deformed oscillator.

    All matrices are complex, immutable and share one truncation
    dimension; h is the ladder Hamiltonian hbar omega diag(e_n), not
    the full eigenvalue spectrum (they differ at the zero-point level).
    """

    model: OscillatorModel
    dimension: int
    a: np.ndarray
    x: np.ndarray
    p: np.ndarray
    h: np.ndarray


def build_truncated_operators(
    model: OscillatorModel, dimension: int
) -> TruncatedOperators:
    """Assemble a, x, p and h on the lowest `dimension` levels.

    x and p include the cubic ladder corrections at first order in
    beta, kept in the stated normal-ordered form; reordering them would
    change the result at the same order.  The top 3 rows and columns of
    any product involving x or p are truncation-corrupted because both
    couple n to n +- 3.  More than 1024 levels raise TruncationError
    before anything is allocated.
    """
    if dimension < 8:
        raise ValueError("need at least 8 levels for the cubic ladder terms")
    if dimension > _MAX_DIMENSION:
        raise TruncationError(
            f"{dimension} Fock levels requested; dense operators are capped "
            f"at {_MAX_DIMENSION} levels"
        )
    m, w, hbar, beta = model.mass, model.omega, model.hbar, model.beta
    levels = np.arange(1, dimension)
    e = np.array([number_operator_eigenvalue(int(n), model) for n in levels])
    a = np.zeros((dimension, dimension), dtype=complex)
    a[levels - 1, levels] = np.sqrt(e)
    ad = a.conj().T
    aa = a @ a
    c1 = math.sqrt(hbar / (2.0 * m * w))
    c2 = 0.25 * beta * math.sqrt(hbar**3 * m * w / 2.0)
    x = c1 * (a + ad) + c2 * (ad @ aa + ad @ ad @ a - a @ aa - ad @ ad @ ad)
    c3 = math.sqrt(hbar * m * w / 2.0)
    c4 = beta * (hbar * m * w) ** 1.5 / (4.0 * math.sqrt(2.0))
    p = 1j * c3 * (ad - a) + 1j * c4 * (
        ad @ aa - ad @ ad @ a + a @ aa - ad @ ad @ ad + 2.0 * a - 2.0 * ad
    )
    e_all = np.concatenate([[0.0], e])
    h = np.diag((hbar * w * e_all).astype(complex))
    for mat in (a, x, p, h):
        mat.flags.writeable = False
    return TruncatedOperators(model=model, dimension=dimension, a=a, x=x, p=p, h=h)


def _gk_log_terms(model: OscillatorModel, J: float, count: int) -> np.ndarray:
    """log(J^n / rho_n) for n < count, with rho_n = prod_{k<=n} e_k."""
    if count < 1:
        raise ValueError("count must be positive")
    log_terms = np.empty(count)
    log_terms[0] = 0.0
    acc = 0.0
    log_j = math.log(J) if J > 0.0 else -math.inf
    for n in range(1, count):
        acc += log_j - math.log(number_operator_eigenvalue(n, model))
        log_terms[n] = acc
    return log_terms


def _gk_support(model: OscillatorModel, J: float) -> np.ndarray:
    """Converged log-term sequence covering the whole GK weight."""
    if J == 0.0:
        return np.zeros(1)
    count = 64
    while True:
        log_terms = _gk_log_terms(model, J, count)
        peak = np.max(log_terms)
        # converged once the last term is negligible and decreasing
        if log_terms[-1] < peak - 60.0 and log_terms[-1] < log_terms[-2]:
            return log_terms
        if count > 200_000:
            raise TruncationError("generalized coherent state does not converge")
        count *= 2


def choose_dimension(model: OscillatorModel, J: float) -> int:
    """Smallest truncation with tail mass below 1e-12 plus buffer levels."""
    if J < 0.0:
        raise ValueError("J must be non-negative")
    log_terms = _gk_support(model, J)
    weights = np.exp(log_terms - np.max(log_terms))
    total = np.sum(weights)
    tail = np.cumsum(weights[::-1])[::-1]
    small = np.nonzero(tail < _GK_TAIL_TOLERANCE * total)[0]
    support = int(small[0]) if small.size else len(weights)
    return max(support + _LEVEL_BUFFER, 8)


@dataclass(frozen=True)
class GKState:
    """Generalized coherent state |J, gamma> on a truncated Fock space.

    amplitudes[n] = J^(n/2) exp(-i gamma e_n) / (N(J) sqrt(rho_n)) with
    the normalization N(J) of the untruncated series, so the stored
    norm falls short of 1 by exactly the (certified small) tail mass.
    """

    model: OscillatorModel
    J: float
    gamma: float
    amplitudes: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.amplitudes.size)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def gazeau_klauder_state(
    model: OscillatorModel,
    J: float,
    gamma: float,
    dimension: "int | None" = None,
) -> GKState:
    """Construct |J, gamma> for the deformed spectrum.

    J = 0 gives the ground state; at beta = 0 the amplitudes reduce to
    the Poisson weights of an ordinary coherent state with
    xi = sqrt(J) exp(-i gamma).  Raises TruncationError when the
    requested dimension leaves more than 1e-12 of the weight within
    the buffer levels or beyond.
    """
    if J < 0.0:
        raise ValueError("J must be non-negative")
    if dimension is None:
        dimension = choose_dimension(model, J)
    if dimension < 8:
        raise ValueError("dimension must be at least 8")
    log_terms = _gk_support(model, J)
    peak = np.max(log_terms)
    weights = np.exp(log_terms - peak)
    total = np.sum(weights)
    usable = dimension - _LEVEL_BUFFER
    if usable < 1 or np.sum(weights[usable:]) > _GK_TAIL_TOLERANCE * total:
        raise TruncationError(
            f"dimension {dimension} leaves more than {_GK_TAIL_TOLERANCE:g} "
            f"of the state's weight in or beyond the top {_LEVEL_BUFFER} levels"
        )
    count = min(dimension, len(weights))
    e = np.array(
        [number_operator_eigenvalue(n, model) for n in range(count)]
    )
    magnitudes = np.exp(0.5 * (log_terms[:count] - peak)) / math.sqrt(total)
    amplitudes = np.zeros(dimension, dtype=complex)
    amplitudes[:count] = magnitudes * np.exp(-1j * gamma * e)
    amplitudes.flags.writeable = False
    return GKState(model=model, J=float(J), gamma=float(gamma), amplitudes=amplitudes)


def evolve_gk(state: GKState, model: OscillatorModel, t: float) -> GKState:
    """Evolve |J, gamma> for time t under the ladder Hamiltonian.

    Multiplies amplitude_n by exp(-i omega t e_n), which coincides
    exactly with re-constructing the state at gamma + omega t; the
    shifted phase is NOT 2 pi periodic in omega t for beta > 0 because
    the e_n are not integer spaced.
    """
    e = np.array(
        [number_operator_eigenvalue(n, model) for n in range(state.dimension)]
    )
    amplitudes = state.amplitudes * np.exp(-1j * model.omega * t * e)
    amplitudes.flags.writeable = False
    return GKState(
        model=state.model,
        J=state.J,
        gamma=state.gamma + model.omega * t,
        amplitudes=amplitudes,
    )


def matrix_expectation(state: GKState, matrix: np.ndarray) -> complex:
    """<state| matrix |state> on the truncated space."""
    v = state.amplitudes
    if matrix.shape != (v.size, v.size):
        raise ValueError("operator dimension does not match the state")
    return complex(np.vdot(v, matrix @ v))


def expectation_xp_closed_form(
    model: OscillatorModel, J: float, gamma: float
) -> tuple[float, float]:
    """First-order closed forms for <x> and <p> in |J, gamma>.

    Valid while beta * gamma stays small: the secular terms linear in
    gamma come from expanding exp(-i gamma e_n) to first order in the
    deformation, so gamma here plays the role of omega t.
    """
    if J < 0.0:
        raise ValueError("J must be non-negative")
    m, w, hbar, beta = model.mass, model.omega, model.hbar, model.beta
    root_j = math.sqrt(J)
    j32 = J * root_j
    cos_g, sin_g = math.cos(gamma), math.sin(gamma)
    x = math.sqrt(2.0 * hbar * J / (m * w)) * cos_g + beta * math.sqrt(
        2.0 * hbar**3 * m * w
    ) * (
        0.25 * j32 * cos_g
        - 0.25 * j32 * math.cos(3.0 * gamma)
        - root_j * (1.0 + J) * gamma * sin_g
    )
    p = -math.sqrt(2.0 * hbar * m * w * J) * sin_g + beta * (
        (hbar * m * w) ** 1.5 / (2.0 * math.sqrt(2.0))
    ) * (
        j32 * sin_g
        + j32 * math.sin(3.0 * gamma)
        + 2.0 * root_j * sin_g
        - 4.0 * gamma * root_j * (1.0 + J) * cos_g
    )
    return x, p


def trajectory_x_closed_form(model: OscillatorModel, amplitude: float, t):
    """<x(t)> for release from rest at the given amplitude.

        x(t) = A cos(wt) + beta (m^2 w^2 A^3 / 2) sin(wt)
               * [cos(wt) sin(wt) - wt (1 + 2 hbar / (m w A^2))]

    This is expectation_xp_closed_form evaluated at J = m w A^2/(2 hbar)
    and gamma = w t; the term linear in t encodes the deformation's
    frequency pull and dominates once w t >> 1.  Valid while
    beta-induced phases stay small.  Vectorized over t.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    m, w, hbar, beta = model.mass, model.omega, model.hbar, model.beta
    wt = w * np.asarray(t, dtype=float)
    secular = 1.0 + 2.0 * hbar / (m * w * amplitude**2)
    value = amplitude * np.cos(wt) + beta * (
        0.5 * m**2 * w**2 * amplitude**3
    ) * np.sin(wt) * (np.cos(wt) * np.sin(wt) - wt * secular)
    return value if value.ndim else float(value)


def oscillator_from_pendulum(
    pend: PendulumConfig,
    deformation: "float | DeformationParams",
    hbar: float = REDUCED_PLANCK,
) -> OscillatorModel:
    """Small-amplitude oscillator equivalent of a pendulum.

    Maps (L, g) to omega = sqrt(g/L) with the same mass; displacement
    amplitude A corresponds to swing angle A/L.
    """
    return OscillatorModel(
        mass=pend.mass,
        omega=math.sqrt(pend.gravity / pend.length),
        hbar=hbar,
        beta=_as_beta(deformation),
    )
