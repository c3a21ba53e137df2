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

import numpy as np
from scipy.special import stdtrit

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


def _profile_pieces(series: MeasurementSeries, b: float):
    """Weights, profiled intercept and residuals at fixed slope b."""
    w = 1.0 / (series.sigma_y**2 + b * b * series.sigma_x**2)
    sw = np.sum(w)
    a = np.sum(w * (series.y - b * series.x)) / sw
    r = series.y - a - b * series.x
    return w, sw, a, r


def _profile_derivatives(series: MeasurementSeries, b: float):
    """h(b), h'(b) and the joint (intercept, slope) Hessian haa, hab, hbb.

    By the envelope theorem the intercept's b-dependence drops out of
    h', but it does contribute to h''(b) = hbb - hab^2 / haa, the Schur
    complement of the (a, b) Hessian of the xi-profiled objective.
    """
    x, sx2 = series.x, series.sigma_x**2
    w, sw, _, r = _profile_pieces(series, b)
    wp = -2.0 * b * sx2 * w * w
    wpp = -2.0 * sx2 * w * w + 8.0 * b * b * sx2 * sx2 * w**3
    h = float(np.sum(w * r * r))
    hp = float(np.sum(wp * r * r - 2.0 * w * r * x))
    haa = 2.0 * sw
    hab = float(np.sum(-2.0 * wp * r + 2.0 * w * x))
    hbb = float(np.sum(wpp * r * r - 4.0 * wp * r * x + 2.0 * w * x * x))
    return h, hp, haa, hab, hbb


def _stationary_brackets(series: MeasurementSeries, b0: float):
    """Slope intervals on which h' changes sign.

    The profile of a line has at most two stationary points, so a sign
    scan over a generous grid around the initial guess finds them all.
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
    values = np.array([_profile_derivatives(series, b)[1] for b in grid])
    signs = np.sign(values)
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
        _, hp, haa, hab, hbb = _profile_derivatives(series, b)
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
    per-point true abscissae and the intercept, then locating the global
    minimum of the remaining one-dimensional slope profile.
    """
    _require_fittable(series)
    b0 = wls_fit(series).slope
    brackets = _stationary_brackets(series, b0)
    if not brackets:
        raise FitConvergenceError("no stationary point of the slope profile found")
    candidates = [_newton_on_bracket(series, lo, hi) for lo, hi in brackets]
    slope = min(candidates, key=lambda b: _profile_derivatives(series, b)[0])
    w, _, intercept, r = _profile_pieces(series, slope)
    chi2 = float(np.sum(w * r * r))
    cov = _covariance_from_hessian(*_profile_derivatives(series, slope)[2:])
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
    half = stdtrit(fit.dof, 0.5 * (1.0 + level)) * se
    return (center - half, center + half)
