"""Matrix mechanics of the harmonic oscillator with a deformed bracket.

With [x, p] = i hbar (1 + beta p^2) the oscillator keeps a discrete
spectrum but the ladder algebra picks up a quadratic piece,

    a |n> = sqrt(n (1 + nu + nu n)) |n-1>,    nu = beta m hbar omega / 2,

so a^dag a has eigenvalues e_n = n (1 + nu + nu n) instead of n.  This
module builds truncated Fock-space matrices for a, x, p and the ladder
Hamiltonian and the generalized coherent states |J, gamma> adapted to
the nonlinear spectrum, together with the first-order closed form for
<x(t)> in |J, 0>, which must reach dynamics.integrate_oscillator_trajectory,
the exact classical trajectory, as hbar -> 0.  The invariant checks read
the operators' bands directly and form no operator matrix.

x and p are first order in beta, so products of them, and hence the
residuals of exact identities, carry beta^2 terms.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .constants import REDUCED_PLANCK

__all__ = [
    "OscillatorModel",
    "TruncatedOperators",
    "GKState",
    "TruncationError",
    "InvariantCheck",
    "build_truncated_operators",
    "choose_dimension",
    "gazeau_klauder_state",
    "evolve_gk",
    "matrix_expectation",
    "trajectory_x_closed_form",
    "invariant_checks",
]

_GK_TAIL_TOLERANCE = 1e-12
# x and p couple |n> to |n +- 3>, so the top of a truncated block is
# corrupted; keep this many buffer levels beyond the state's support.
_LEVEL_BUFFER = 4
# the banded paths are checked against dense products up to 1024 levels,
# where a dense complex matrix takes 16 MiB
_MAX_DIMENSION = 1024
# x and p carry (hbar / (m omega))^(3/2) and (hbar m omega)^(3/2)
_SCALE_RANGE = (sys.float_info.min ** (2.0 / 3.0), sys.float_info.max ** (2.0 / 3.0))
# roundings on the longest path to an entry of the banded residual: 12 in
# a band entry, 25 in a product of two, then 7 summing the products' terms
# and 3 adding the transpose, nu Q^2 and the diagonal
_RESIDUAL_ROUNDINGS = 35


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
        low, high = _SCALE_RANGE
        scales = (self.hbar * self.mass * self.omega, self.hbar / (self.mass * self.omega))
        if not all(low < v < high for v in scales):
            raise ValueError(
                f"hbar m omega and hbar / (m omega) must lie in ({low:.0e}, {high:.0e})"
            )
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be finite and non-negative")

    @property
    def ladder_deformation(self) -> float:
        """nu = beta m hbar omega / 2, the ladder-algebra deformation."""
        return 0.5 * self.beta * self.mass * self.hbar * self.omega


def _level_eigenvalues(nu, count: int) -> np.ndarray:
    """Eigenvalues e_n = n (1 + nu + nu n) of a^dag a for n < count, per row of nu."""
    n = np.arange(count, dtype=float)
    return n * (1.0 + nu + nu * n)


def _ladder_bands(nu, dimension: int) -> tuple:
    """e_n and the bands of x / c1 = A + B_x and p / (i c3) = -A' + B_q.

    c1 = sqrt(hbar / (2 m omega)), c3 = sqrt(hbar m omega / 2), A = a + a^dag,
    A' = a - a^dag, and the O(nu) cubic terms B_x, B_q are symmetric and
    antisymmetric.  Returns e_n (n < dimension), the entries s_n of a at
    (n-1, n), then those of B_x and of B_q at (n-1, n) and (n-3, n).
    """
    e = _level_eigenvalues(nu, dimension)
    s = np.sqrt(e)
    s1 = s[..., 1:]
    # a^dag a a puts s_n e_(n-1) at (n-1, n), a a a s_n s_(n-1) s_(n-2) at (n-3, n)
    cubic1, cubic3 = s1 * e[..., :-1], s[..., 3:] * s[..., 2:-1] * s[..., 1:-2]
    half = 0.5 * nu
    return e, s1, half * cubic1, -half * cubic3, half * (cubic1 + 2.0 * s1), half * cubic3


def _check_dimension(dimension) -> None:
    if dimension is not None and dimension > _MAX_DIMENSION:
        raise TruncationError(
            f"{dimension} Fock levels requested; the banded operators are checked "
            f"against dense products only up to {_MAX_DIMENSION} levels"
        )


def _operator_bands(model: OscillatorModel, dimension: int) -> tuple:
    """e_n, the entries of a, x and p / i at (n-1, n), then of x and p / i at (n-3, n)."""
    _check_dimension(dimension)
    c1 = math.sqrt(model.hbar / (2.0 * model.mass * model.omega))
    c3 = math.sqrt(model.hbar * model.mass * model.omega / 2.0)
    e, s1, bx1, bx3, bq1, bq3 = _ladder_bands(model.ladder_deformation, dimension)
    return e, s1, c1 * (s1 + bx1), c1 * bx3, c3 * (bq1 - s1), c3 * bq3


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


def _dense(bands: dict, dimension: int) -> np.ndarray:
    """Read-only complex matrix with the entries {k: band} at (n, n + k)."""
    mat = np.zeros((dimension, dimension), dtype=complex)
    for k, band in bands.items():
        mat.reshape(-1)[max(k, -k * dimension) :: dimension + 1][: len(band)] = band
    mat.flags.writeable = False
    return mat


def build_truncated_operators(
    model: OscillatorModel, dimension: int
) -> TruncatedOperators:
    """Assemble a, x, p and h on the lowest `dimension` levels.

    x and p include the cubic ladder corrections at first order in
    beta, kept in the stated normal-ordered form; reordering them would
    change the result at the same order.  Each term is filled on its
    band from products of sqrt(e_n); being normal-ordered, it equals the
    truncated matrix product.  The top 3 rows and columns of any product
    involving x or p are truncation-corrupted because both couple n to
    n +- 3.  More than 1024 levels raise TruncationError before anything
    is allocated.
    """
    if dimension < 8:
        raise ValueError("need at least 8 levels for the cubic ladder terms")
    e, s1, x1, x3, p1, p3 = _operator_bands(model, dimension)
    p1, p3 = 1j * p1, 1j * p3
    a = _dense({1: s1}, dimension)
    x = _dense({1: x1, -1: x1, 3: x3, -3: x3}, dimension)
    p = _dense({1: p1, -1: -p1, 3: p3, -3: -p3}, dimension)
    h = _dense({0: model.hbar * model.omega * e}, dimension)
    return TruncatedOperators(model=model, dimension=dimension, a=a, x=x, p=p, h=h)


def _gk_log_terms(model: OscillatorModel, J: float, count: int, steps=None) -> np.ndarray:
    """log(J^n / rho_n) for n < count, with rho_n = prod_{k<=n} e_k; steps holds
    the log(J / e_n) already taken, from n = 1 on, and is extended in place."""
    steps = [] if steps is None else steps
    log_j = math.log(J) if J > 0.0 else -math.inf
    # math.log per level: np.log can differ from it in the last bit
    e = _level_eigenvalues(model.ladder_deformation, count)[len(steps) + 1:]
    steps += [log_j - v for v in map(math.log, e.tolist())]
    return np.concatenate(([0.0], np.cumsum(steps)))


def _check_j(J: float) -> None:
    if not (J >= 0.0 and math.isfinite(J)):
        raise ValueError("J must be finite and non-negative")


def _gk_weights(model: OscillatorModel, J: float) -> tuple:
    """The GK weight table: converged log-terms less their peak, the sum of
    their weights, and the smallest dimension that keeps the tail mass below
    1e-12 of that sum out of the buffer levels (at least 8)."""
    log_terms, count, steps = np.zeros(1), 64, []
    while J != 0.0:
        log_terms = _gk_log_terms(model, J, count, steps)
        # converged once the last term is negligible and not increasing
        # (-inf twice where the eigenvalues overflow)
        if log_terms[-1] < np.max(log_terms) - 60.0 and log_terms[-1] <= log_terms[-2]:
            break
        if count > 200_000:
            raise TruncationError(f"J = {J:g}: the generalized coherent state's series has "
                                  f"not fallen off within {count} levels, the most it is summed "
                                  f"over; the operators stop at {_MAX_DIMENSION} levels")
        count *= 2
    log_terms = log_terms - np.max(log_terms)
    weights = np.exp(log_terms)
    total = np.sum(weights)
    # the tail mass from each level up never increases: count the levels above the tolerance
    support = np.count_nonzero(np.cumsum(weights[::-1])[::-1] >= _GK_TAIL_TOLERANCE * total)
    return log_terms, total, max(int(support) + _LEVEL_BUFFER, 8)


def choose_dimension(model: OscillatorModel, J: float) -> int:
    """Smallest truncation with tail mass below 1e-12 plus buffer levels."""
    _check_j(J)
    return _gk_weights(model, J)[2]


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
    _check_j(J)
    if dimension is not None and dimension < 8:
        raise ValueError("dimension must be at least 8")
    return _gk_state(model, J, gamma, dimension, _gk_weights(model, J))


def _gk_state(model: OscillatorModel, J: float, gamma: float, dimension, table) -> GKState:
    """|J, gamma> from table, the _gk_weights of model at J."""
    log_terms, total, smallest = table
    dimension = smallest if dimension is None else dimension
    if dimension < smallest:
        raise TruncationError(
            f"dimension {dimension} leaves more than {_GK_TAIL_TOLERANCE:g} "
            f"of the state's weight in or beyond the top {_LEVEL_BUFFER} levels"
        )
    count = min(dimension, len(log_terms))
    e = _level_eigenvalues(model.ladder_deformation, count)
    magnitudes = np.exp(0.5 * log_terms[:count]) / math.sqrt(total)
    amplitudes = np.zeros(dimension, dtype=complex)
    amplitudes[:count] = magnitudes * np.exp(-1j * gamma * e)
    amplitudes.flags.writeable = False
    return GKState(model=model, J=float(J), gamma=float(gamma), amplitudes=amplitudes)


def evolve_gk(state: GKState, t: float) -> GKState:
    """Evolve |J, gamma> for time t under the ladder Hamiltonian of its model.

    Multiplies amplitude_n by exp(-i omega t e_n), which coincides
    exactly with re-constructing the state at gamma + omega t; the
    shifted phase is NOT 2 pi periodic in omega t for beta > 0 because
    the e_n are not integer spaced.
    """
    model = state.model
    e = _level_eigenvalues(model.ladder_deformation, state.dimension)
    amplitudes = state.amplitudes * np.exp(-1j * model.omega * t * e)
    amplitudes.flags.writeable = False
    return replace(state, gamma=state.gamma + model.omega * t, amplitudes=amplitudes)


def matrix_expectation(state: GKState, matrix: np.ndarray) -> complex:
    """<state| matrix |state> on the truncated space."""
    v = state.amplitudes
    if matrix.shape != (v.size, v.size):
        raise ValueError("operator dimension does not match the state")
    return complex(np.vdot(v, matrix @ v))


def trajectory_x_closed_form(model: OscillatorModel, amplitude: float, t):
    """<x(t)> for release from rest at the given amplitude.

        x(t) = A cos(wt) + beta (m^2 w^2 A^3 / 2) sin(wt)
               * [cos(wt) sin(wt) - wt (1 + 2 hbar / (m w A^2))]

    This is <x> in the generalized coherent state |J, 0> at
    J = m w A^2 / (2 hbar), to first order in beta, after time t: expanding
    exp(-i w t e_n) to that order gives the term linear in t, which encodes
    the deformation's frequency pull and dominates once w t >> 1.  Valid
    while beta-induced phases stay small.  Vectorized over t.
    """
    if not 0.0 < amplitude < math.inf:
        raise ValueError("amplitude must be positive and finite")
    m, w, hbar, beta = model.mass, model.omega, model.hbar, model.beta
    wt = w * np.asarray(t, dtype=float)
    secular = 1.0 + 2.0 * hbar / (m * w * amplitude**2)
    value = amplitude * np.cos(wt) + beta * (
        0.5 * m**2 * w**2 * amplitude**3
    ) * np.sin(wt) * (np.cos(wt) * np.sin(wt) - wt * secular)
    return value if value.ndim else float(value)


@dataclass(frozen=True)
class InvariantCheck:
    """One check: value is compared with its tolerance, as detail states."""

    name: str
    passed: bool
    value: float
    detail: str


def _band_products(*pairs: tuple, lowest: int = -6) -> dict:
    """Sum of products of band matrices {k: v}, v[:, i] the entry (i, i + k), |k| <= 3,
    on the bands from lowest up; a product landing below lowest is skipped."""
    out = {}
    for left, right in pairs:
        for l, v in right.items():
            pad = np.zeros((len(v), 3))
            padded = np.concatenate((pad, v, pad), axis=1)
            for k, u in left.items():
                if k + l >= lowest:
                    out[k + l] = out.get(k + l, 0.0) + u * padded[:, 3 + k : 3 + k + v.shape[1]]
    return out


def _commutator_residuals(model: OscillatorModel, dimension: int) -> tuple:
    """Largest |x p - p x - i hbar (1 + beta p^2)| below the corrupted top.

    At beta, beta / 10 and beta / 100, with bounds on their rounding
    errors.  In the units of _ladder_bands, c1 c3 = hbar / 2,
    beta p^2 = -nu Q^2 for Q = p / (i c3), and [A, -A'] / 2 = [a, a^dag] =
    1 + 2 nu (N + 1) exactly, so the residual is hbar |r| with

        r = 2 nu (N + 1) + (P + P^T) / 2 + nu Q^2,   P = A B_q + B_x Q,

    as [S, T] = S T + (S T)^T for symmetric S and antisymmetric T.  The
    O(1) part cancels on paper, not in float64.  r is symmetric and lives
    on bands 0, +-2, +-4, +-6, so only the upper bands of Q^2 are formed;
    the rounding bound is _RESIDUAL_ROUNDINGS roundoffs times the same sum
    over the magnitudes of its O(nu) terms.  Both come from one pass over
    six rows: the three residuals, then the three magnitudes.
    """
    nu = model.ladder_deformation * np.array([[1.0], [0.1], [0.01]] * 2)
    # bx1, bq1 and bq3 are positive and bx3 negative: flipping the sign of
    # bx3, of s1 in Q and of the lower bands of B_q and Q gives the magnitudes
    sign = np.array([[1.0]] * 3 + [[-1.0]] * 3)
    _, s1, bx1, bx3, bq1, bq3 = _ladder_bands(nu, dimension)
    interior = dimension - _LEVEL_BUFFER - 1

    def banded(bands, lower):  # entries {k: at (n-k, n)}, M[n, n-k] = lower M[n-k, n]
        out = {}
        for k, b in bands.items():
            pad = np.zeros((len(b), k))
            out[k], out[-k] = np.concatenate((b, pad), 1), lower * np.concatenate((pad, b), 1)
        return out

    a, b_x = banded({1: s1}, 1.0), banded({1: bx1, 3: sign * bx3}, 1.0)
    b_q, q = banded({1: bq1, 3: bq3}, -sign), banded({1: bq1 - sign * s1, 3: bq3}, -sign)
    p, qq = _band_products((a, b_q), (b_x, q)), _band_products((q, q), lowest=0)
    worst = 0.0
    for k in (0, 2, 4, 6):
        rows = max(0, interior - k)
        r = 0.5 * (p[k][:, :rows] + p[-k][:, k : k + rows]) + nu * qq[k][:, :rows]
        if k == 0:
            r += 2.0 * nu * np.arange(1.0, rows + 1.0)
        worst = np.maximum(worst, np.abs(r).max(axis=1, initial=0.0))
    residuals, scale = np.split(model.hbar * worst, 2)
    roundoff = _RESIDUAL_ROUNDINGS * 2.0**-53
    return residuals, roundoff / (1.0 - roundoff) * scale


def _band_expectations(model: OscillatorModel, v: np.ndarray, step: float, count: int) -> tuple:
    """<h> of the state with amplitudes v, and <x> at the times j step, j < count.

    x is real symmetric on bands +-1 and +-3, so <x>(t) = 2 Re sum_k Phi_k(t) . c_k
    over k = 1, 3, with c_k[n] = conj(v_n) x_(n,n+k) v_(n+k) and the level-gap
    phases Phi_k(t)[n] = exp(-i omega t (e_(n+k) - e_n)).  The phases at j steps
    are the j-th powers of those of one step, carried forward along the time
    axis by products of rows already formed, so one row of exponentials and
    one complex matrix-vector product give <x> at every time.  count >= 2.
    """
    e, _, x1, x3, _, _ = _operator_bands(model, v.size)
    h = np.vdot(v, model.hbar * model.omega * e * v).real
    c = np.concatenate([v[:-k].conj() * b * v[k:] for k, b in ((1, x1), (3, x3))])
    gaps = np.concatenate([e[k:] - e[:-k] for k in (1, 3)])
    # phases[j] = phases[1]^j: with f rows filled, rows f .. 2f-2 are rows
    # 1 .. f-1 times row f-1, so five products fill the 33 check times; np.cumprod
    # takes several times longer on complex rows
    phases = np.empty((count, gaps.size), dtype=complex)
    phases[0], phases[1] = 1.0, np.exp(-1j * model.omega * step * gaps)
    filled = 2
    while filled < count:
        new = min(filled - 1, count - filled)
        np.multiply(phases[1 : new + 1], phases[filled - 1], out=phases[filled : filled + new])
        filled += new
    return float(h), 2.0 * (phases @ c).real


def invariant_checks(
    model: OscillatorModel, J: float, dimension: "int | None" = None
) -> Iterator[InvariantCheck]:
    """Check the matrix mechanics of |J, 0> against exact and closed forms.

    Yields six records in printing order; the default dimension is sized
    for the beta/2 state.  beta = 0, a bad J, J = 0, a beta that overflows
    the operator bands, one below the float64 resolution of the
    commutator-scaling check and a z = beta m^2 omega^2 A^2 that overflows
    raise ValueError before any record.  A dimension of more than 1024 levels
    raises TruncationError before any state is built and one too small for
    either state raises it before any record, as a sixth record that would
    fail raises dynamics.TrajectoryError.  Nothing raises after the first
    record.  No operator matrix is formed and no ODE is solved: <x(t)> is
    read from the bands with level-gap phases stepped in time, and the
    hbar->0 check compares with the exact classical trajectory,
    dynamics.integrate_oscillator_trajectory.
    """
    if model.beta == 0.0:
        raise ValueError(
            "the commutator-scaling check needs beta > 0; there is no deformation to scale"
        )
    if J == 0.0:
        raise ValueError("the invariant checks need J > 0; J = 0 has no trajectory")
    half = replace(model, beta=0.5 * model.beta)
    # built here so that its scale check refuses before any record
    classical = replace(model, hbar=model.hbar * 1e-6)
    nu = model.ladder_deformation
    times = np.linspace(0.0, 2.0 * math.pi / model.omega, 33)
    _check_j(J)
    _check_dimension(dimension)  # before a state of that size is allocated
    # overflowed levels are refused below, by name, instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        # the beta/2 state needs at least as many levels as the beta state
        v_half = gazeau_klauder_state(half, J, 0.0, dimension).amplitudes
        dim = v_half.size
        table = _gk_weights(model, J)  # temporal stability rebuilds the state from it too
        state = _gk_state(model, J, 0.0, dim, table)
        h_exp, x_full = _band_expectations(model, state.amplitudes, times[1], len(times))
        x_half = _band_expectations(half, v_half, times[1], len(times))[1]
        residuals, roundoff = _commutator_residuals(model, dim)
    if not all(np.isfinite(v).all() for v in (h_exp, x_full, x_half, residuals, roundoff)):
        raise ValueError(
            f"beta = {model.beta:g} (nu = {nu:.3g}) overflows float64 in the operator "
            f"bands or their products at {dim} Fock levels"
        )
    # past 1 - 10^-0.1 of a residual, rounding could move the slope by 0.1
    if np.any(roundoff >= (1.0 - 10.0**-0.1) * residuals):
        raise ValueError(
            f"beta = {model.beta:g} (nu = {nu:.3g}) is below the "
            f"float64 resolution of the commutator-scaling check at J = {J:g}"
        )
    # the closed forms of <x> at this J (release from rest at this amplitude)
    # are first order in z = beta p^2 at the peak momentum p = m omega A; past
    # about z = 1.9e-4 their O(z^2) gap to the exact motion exceeds the sixth
    # record's tolerance whatever the matrices hold, so that record decides here
    amplitude = math.sqrt(2.0 * model.hbar * J / (model.mass * model.omega))
    x_exact = dynamics.integrate_oscillator_trajectory(
        model.mass, model.omega, model.beta, amplitude, times
    )
    z = model.beta * model.mass**2 * model.omega**2 * amplitude**2  # finite, as checked there
    x_closed = trajectory_x_closed_form(classical, amplitude, times)
    dev = float(np.max(np.abs(x_exact - x_closed)))
    tol = max(1e-3 * amplitude * z, 1e-13 * amplitude)
    if not dev < tol:
        raise dynamics.TrajectoryError(
            f"z = beta m^2 omega^2 A^2 = {z:.3g} at J = {J:g}: the first-order closed form "
            f"is {dev:.3e} from the exact classical trajectory, past its tolerance {tol:.3e}"
        )

    deficit = abs(1.0 - state.norm**2)
    yield InvariantCheck(
        "norm", deficit < 1e-10, deficit, f"deficit={deficit:.3e} tol=1e-10"
    )

    t_probe = 2.345 / model.omega
    evolved = evolve_gk(state, t_probe)
    rebuilt = _gk_state(model, J, model.omega * t_probe, dim, table)
    drift = float(np.max(np.abs(evolved.amplitudes - rebuilt.amplitudes)))
    yield InvariantCheck(
        "temporal stability", drift < 1e-12, drift, f"drift={drift:.3e} tol=1e-12"
    )

    h_ref = model.hbar * model.omega * J
    h_err = abs(h_exp - h_ref) / h_ref if h_ref else abs(h_exp)
    yield InvariantCheck(
        "<h> = hbar omega J", h_err < 1e-10, h_err, f"rel_err={h_err:.3e} tol=1e-10"
    )

    # the least-squares slope through three points a decade apart
    logs = np.log10(residuals)
    slope = float(logs[0] - logs[2]) / 2.0
    yield InvariantCheck(
        "commutator residual",
        abs(slope - 2.0) < 0.1,
        slope,
        f"beta-scaling slope={slope:.3f} expected 2+-0.1",
    )

    dev_full = float(np.max(np.abs(x_full - trajectory_x_closed_form(model, amplitude, times))))
    dev_half = float(np.max(np.abs(x_half - trajectory_x_closed_form(half, amplitude, times))))
    ratio = dev_full / dev_half if dev_half else math.inf
    yield InvariantCheck(
        "closed form vs matrix <x>",
        3.5 <= ratio <= 4.5,
        ratio,
        f"halving-beta ratio={ratio:.3f} expected ~4",
    )

    yield InvariantCheck(
        "hbar->0 vs exact classical", dev < tol, dev, f"max_dev={dev:.3e} tol={tol:.3e}"
    )
