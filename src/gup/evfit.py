"""Errors-in-variables straight-line fitting.

For data with uncertainties on both coordinates the orthogonal-distance
objective is

    chi^2(a, b, {xi_i}) = sum_i [(x_i - xi_i)^2 / sx_i^2
                                 + (y_i - a - b xi_i)^2 / sy_i^2].

For a straight line the nuisance coordinates xi_i and the intercept can
both be eliminated analytically, leaving a one-dimensional profile

    h(b) = sum_i w_i(b) (y_i - a*(b) - b x_i)^2,
    w_i(b) = 1 / (sy_i^2 + b^2 sx_i^2),
    a*(b) = sum_i w_i (y_i - b x_i) / sum_i w_i,

whose stationary points are found by safeguarded Newton iteration with
analytic first and second derivatives.  The parameter covariance comes
from the Hessian of the profiled-in-xi objective in (a, b), with the
supplied sigmas taken at face value (no rescaling by the reduced
chi-square), so the reported errors track the stated measurement
uncertainties rather than the observed scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "MeasurementSeries",
    "LinearFit",
    "FitError",
    "DegenerateDataError",
    "FitConvergenceError",
    "wls_fit",
    "odr_fit",
    "confidence_interval",
]


class FitError(RuntimeError):
    """Base class for fitting failures."""


class DegenerateDataError(FitError):
    """Data cannot constrain a line: too few points or no x spread."""


class FitConvergenceError(FitError):
    """The profile minimization did not locate a minimum."""


@dataclass(frozen=True)
class MeasurementSeries:
    """Paired measurements with per-point one-sigma uncertainties.

    Scalars given for the sigmas are broadcast across all points.
    """

    x: np.ndarray
    y: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        n = x.size
        sx = np.broadcast_to(np.asarray(self.sigma_x, dtype=float), (n,)).copy()
        sy = np.broadcast_to(np.asarray(self.sigma_y, dtype=float), (n,)).copy()
        stacked = np.concatenate([x, y, sx, sy])
        if not np.all(np.isfinite(stacked)):
            raise ValueError("measurements and sigmas must be finite")
        if np.any(sx <= 0.0) or np.any(sy <= 0.0):
            raise ValueError("sigmas must be strictly positive")
        for name, arr in (("x", x), ("y", y), ("sigma_x", sx), ("sigma_y", sy)):
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class LinearFit:
    """Result of a straight-line fit y = intercept + slope * x.

    covariance is ordered (intercept, slope); chi2 is the minimized
    objective and reduced_chi2 its per-degree-of-freedom value.
    """

    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    covariance: np.ndarray
    chi2: float
    dof: int
    n_points: int
    method: str = field(default="odr")

    @property
    def reduced_chi2(self) -> float:
        return self.chi2 / self.dof


def _require_fittable(series: MeasurementSeries) -> None:
    if len(series) < 3:
        raise DegenerateDataError(
            "need at least 3 points for a line fit with diagnostics"
        )
    if np.ptp(series.x) == 0.0:
        raise DegenerateDataError("all x values coincide; slope is unconstrained")


def _covariance_from_hessian(haa: float, hab: float, hbb: float) -> np.ndarray:
    # chi^2 curvature -> covariance of (intercept, slope) is 2 H^{-1}
    det = haa * hbb - hab * hab
    if det <= 0.0 or haa <= 0.0:
        raise FitConvergenceError("objective Hessian is not positive definite")
    return (2.0 / det) * np.array([[hbb, -hab], [-hab, haa]])


def _finish(slope, intercept, cov, chi2, n, method) -> LinearFit:
    cov = np.asarray(cov, dtype=float)
    cov.flags.writeable = False
    return LinearFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_se=math.sqrt(cov[1, 1]),
        intercept_se=math.sqrt(cov[0, 0]),
        covariance=cov,
        chi2=float(chi2),
        dof=n - 2,
        n_points=n,
        method=method,
    )


def wls_fit(series: MeasurementSeries) -> LinearFit:
    """Weighted least squares ignoring the x uncertainties.

    Closed form; serves as the starting point and degeneracy oracle for
    odr_fit.
    """
    _require_fittable(series)
    x, y = series.x, series.y
    w = 1.0 / series.sigma_y**2
    sw = np.sum(w)
    sx, sy = np.sum(w * x), np.sum(w * y)
    sxx, sxy = np.sum(w * x * x), np.sum(w * x * y)
    det = sw * sxx - sx * sx
    if det <= 0.0:
        raise DegenerateDataError("weighted design matrix is singular")
    slope = (sw * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    chi2 = np.sum(w * (y - intercept - slope * x) ** 2)
    cov = np.array([[sxx, -sx], [-sx, sw]]) / det
    return _finish(slope, intercept, cov, chi2, len(series), "wls")


def _profile_derivatives(series: MeasurementSeries, b: float):
    """h(b), h'(b), the (a, b) Hessian haa, hab, hbb and the profiled a.

    By the envelope theorem the intercept's b-dependence drops out of
    h', but it does contribute to h''(b) = hbb - hab^2 / haa, the Schur
    complement of the (a, b) Hessian of the xi-profiled objective.
    """
    x, sx2 = series.x, series.sigma_x**2
    w = 1.0 / (series.sigma_y**2 + b * b * sx2)
    sw = np.sum(w)
    a = np.sum(w * (series.y - b * x)) / sw
    r = series.y - a - b * x
    wp = -2.0 * b * sx2 * w * w
    wpp = -2.0 * sx2 * w * w + 8.0 * b * b * sx2 * sx2 * w**3
    h = float(np.sum(w * r * r))
    hp = float(np.sum(wp * r * r - 2.0 * w * r * x))
    haa = 2.0 * sw
    hab = float(np.sum(-2.0 * wp * r + 2.0 * w * x))
    hbb = float(np.sum(wpp * r * r - 4.0 * wp * r * x + 2.0 * w * x * x))
    return h, hp, haa, hab, hbb, a


# grid slopes x rows held at once by the bracket scan
_SCAN_BLOCK = 1 << 16


def _scan_derivative(series: MeasurementSeries, grid: np.ndarray, a0: float, b0: float):
    """h'(b) at every slope of ``grid`` from weighted moments.

    The data are centred on the line a0 + b0 x (x~ = x - mean(x),
    y~ = y - a0 - b0 x), so with d = b - b0 the residual is
    r = y~ - d x~ - a~ and the profiled a~ = (S_y - d S_x) / S_1, where
    S = W @ [1, x~, y~, x~y~, x~^2] and W_ij = 1 / (sy_j^2 + b_i^2 sx_j^2).
    Since sum w r = 0 at a~, sum w r x = sum w r x~ and

        h' = -2 b sum w^2 sx^2 r^2 - 2 (S_xy - a~ S_x - d S_xx),

    with sum w^2 sx^2 r^2 expanded over the moments Q = (W o W) @
    (sx^2 o [1, x~, y~, x~y~, x~^2, y~^2]).  W is the only grid x rows
    array, built one block of slopes at a time.  The scan reads only the
    signs; Newton and the covariance use the pointwise _profile_derivatives.
    """
    x, sx2, sy2 = series.x, series.sigma_x**2, series.sigma_y**2
    xt = x - np.mean(x)
    yt = series.y - a0 - b0 * x
    moments = np.column_stack([np.ones_like(xt), xt, yt, xt * yt, xt * xt])
    sq_moments = sx2[:, None] * np.column_stack([moments, yt * yt])
    step = max(1, _SCAN_BLOCK // len(series))
    values = np.empty(grid.size)
    for start in range(0, grid.size, step):
        b = grid[start : start + step]
        w = np.multiply.outer(b * b, sx2)
        w += sy2
        np.reciprocal(w, out=w)
        s1, sx, sy, sxy, sxx = (w @ moments).T
        w *= w
        q1, qx, qy, qxy, qxx, qyy = (w @ sq_moments).T
        d = b - b0
        at = (sy - d * sx) / s1
        wr2 = qyy + d * d * qxx + at * at * q1 - 2.0 * (d * qxy + at * qy - d * at * qx)
        values[start : start + step] = -2.0 * b * wr2 - 2.0 * (sxy - at * sx - d * sxx)
    return values


def _stationary_brackets(series: MeasurementSeries, a0: float, b0: float):
    """Slope intervals on which h' changes sign, scanned around a0 + b0 x.

    A sign scan over a generous grid around the initial guess.  With a
    constant sigma_x / sigma_y ratio the profile has at most two
    stationary points and the scan finds them all; with per-row sigmas it
    can have more, and a close pair between two grid slopes is missed.
    """
    spread = np.ptp(series.y) / np.ptp(series.x)
    scale = max(abs(b0), spread, 1e-30)
    grid = np.concatenate(
        [
            b0 + scale * np.linspace(-40.0, 40.0, 481),
            # far wings in case the second stationary point sits far out
            b0 + scale * np.array([-4e3, -4e2, 4e2, 4e3]),
        ]
    )
    grid = np.unique(grid)
    signs = np.sign(_scan_derivative(series, grid, a0, b0))
    brackets = []
    for i in range(len(grid) - 1):
        if signs[i] == 0.0:
            brackets.append((grid[i], grid[i]))
        elif signs[i] * signs[i + 1] < 0.0:
            brackets.append((grid[i], grid[i + 1]))
    return brackets


def _newton_on_bracket(series: MeasurementSeries, lo: float, hi: float) -> float:
    """Root of h' inside [lo, hi] by Newton with bisection fallback."""
    if lo == hi:
        return lo
    flo = _profile_derivatives(series, lo)[1]
    b = 0.5 * (lo + hi)
    for _ in range(100):
        _, hp, haa, hab, hbb, _ = _profile_derivatives(series, b)
        hpp = hbb - hab * hab / haa
        if hp == 0.0:
            return b
        if flo * hp < 0.0:
            hi = b
        else:
            lo = b
        step_ok = hpp != 0.0
        if step_ok:
            candidate = b - hp / hpp
            step_ok = lo < candidate < hi
        b_next = candidate if step_ok else 0.5 * (lo + hi)
        if abs(b_next - b) <= 1e-15 * max(1.0, abs(b_next)):
            return b_next
        b = b_next
    raise FitConvergenceError("profile Newton iteration did not converge")


def odr_fit(series: MeasurementSeries) -> LinearFit:
    """Straight-line fit treating both coordinates as uncertain.

    Minimizes the orthogonal-distance objective by profiling out the
    per-point true abscissae and the intercept, then taking the lowest
    stationary point of the remaining one-dimensional slope profile that
    the bracket scan finds (the global minimum for a constant sigma ratio;
    see _stationary_brackets).
    """
    _require_fittable(series)
    start = wls_fit(series)
    brackets = _stationary_brackets(series, start.intercept, start.slope)
    if not brackets:
        raise FitConvergenceError("no stationary point of the slope profile found")
    candidates = [_newton_on_bracket(series, lo, hi) for lo, hi in brackets]
    slope = min(candidates, key=lambda b: _profile_derivatives(series, b)[0])
    chi2, _, haa, hab, hbb, intercept = _profile_derivatives(series, slope)
    cov = _covariance_from_hessian(haa, hab, hbb)
    return _finish(slope, intercept, cov, chi2, len(series), "odr")


def confidence_interval(
    fit: LinearFit, parameter: str, level: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for "slope" or "intercept".

    Uses dof = n - 2; the half-width is t_{dof,(1+level)/2} times the
    standard error from the fit covariance.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must lie strictly between 0 and 1")
    if parameter == "slope":
        center, se = fit.slope, fit.slope_se
    elif parameter == "intercept":
        center, se = fit.intercept, fit.intercept_se
    else:
        raise ValueError("parameter must be 'slope' or 'intercept'")
    half = _t_quantile(fit.dof, 0.5 * (1.0 - level)) * se
    return (center - half, center + half)



def _t_upper_tail(dof: int, t: float) -> "tuple[float, float]":
    """P(T > t) and t times the density of T, for integer dof and t > 0.

    A&S 26.7.3-4 sum the first dof // 2 terms of a series in
    x = dof / (dof + t^2) whose total has a closed form (arctan at odd dof,
    1 / sin at even dof); where the difference would cancel, the rest of
    the series is summed instead.
    """
    x, s, odd = dof / (dof + t * t), t / math.sqrt(dof + t * t), dof % 2
    weight = s * math.sqrt(x) / math.pi if odd else 0.5 * s
    whole = math.atan(math.sqrt(dof) / t) / (math.pi * weight) if odd else 1.0 / s
    head, term, k = [], 1.0, 0
    while k < dof // 2:
        head.append(term)
        k += 1
        term *= x * (2 * k - 1 + odd) / (2 * k + odd)
    t_density, rest = weight * term * dof, whole - math.fsum(head)
    if rest < 1e-3 * whole:
        rest = 0.0
        while term > 1e-17 * (1.0 - x) * rest:
            rest += term
            k += 1
            term *= x * (2 * k - 1 + odd) / (2 * k + odd)
    return weight * rest, t_density


def _t_quantile(dof: int, p: float) -> float:
    """The t with P(T > t) = p, for integer dof >= 1 and 0 < p < 0.5.

    The A&S 26.7.5 expansion about the normal quantile, used as it stands
    above 1000 dof; up to 1000 dof, Newton's method on log P(T > t) against
    log t polishes it until the step falls below 1e-10 or stops shrinking.
    """
    z = -NormalDist().inv_cdf(p)
    z2 = z * z
    g = (
        (z2 + 1.0) / 4.0,
        ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0,
        (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0,
        ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0,
    )
    t = z * (1.0 + sum(gk / dof ** (k + 1) for k, gk in enumerate(g)))
    step = math.inf
    while dof <= 1000 and abs(step) > 1e-10:
        tail, t_density = _t_upper_tail(dof, t)
        new = math.log(tail / p) * tail / t_density
        if not abs(new) < abs(step):  # at the rounding floor
            break
        t *= math.exp(new)
        step = new
    return t
