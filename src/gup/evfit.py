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

whose stationary points are all found as roots of a piecewise Chebyshev proxy
of h' (Boyd 2002, SIAM J. Numer. Anal. 40, 1666), each polished by Newton
iteration on analytic derivatives; the lowest minimum is the fit.  The
parameter covariance comes from the Hessian of the profiled-in-xi objective
in (a, b), with the supplied sigmas taken at face value (no rescaling by the
reduced chi-square), so the reported errors track the stated measurement
uncertainties rather than the observed scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "MeasurementSeries",
    "LinearFit",
    "DegenerateDataError",
    "FitConvergenceError",
    "wls_fit",
    "odr_fit",
    "confidence_interval",
]


class DegenerateDataError(RuntimeError):
    """Data cannot constrain a line: too few points or no x spread."""


class FitConvergenceError(RuntimeError):
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
        # the fit weighs rows by sigma^2 and 1 / sigma^2: both must be normal floats
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            powers = np.concatenate([sx, sy]) ** 2
            powers = np.concatenate([powers, 1.0 / powers])
        if not np.all((powers >= np.finfo(float).tiny) & (powers <= np.finfo(float).max)):
            raise ValueError("sigmas must lie in about [1.5e-154, 6.7e153], where their "
                             "squares and reciprocal squares are normal floats")
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


def _finish(slope, intercept, cov, chi2, n) -> LinearFit:
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
    # sums about the weighted means: the raw ones cancel where the weights span decades
    xm, ym = np.sum(w * x) / sw, np.sum(w * y) / sw
    dx = x - xm
    sxx = np.sum(w * dx * dx)
    if not sxx > 0.0:
        raise DegenerateDataError("weighted design matrix is singular")
    slope = np.sum(w * dx * (y - ym)) / sxx
    intercept = ym - slope * xm
    chi2 = np.sum(w * (y - intercept - slope * x) ** 2)
    cov = np.array([[1.0 / sw + xm * xm / sxx, -xm / sxx], [-xm / sxx, 1.0 / sxx]])
    return _finish(slope, intercept, cov, chi2, len(series))


def _profile_derivatives(series: MeasurementSeries, b: float):
    """h(b), h'(b), the (a, b) Hessian haa, hab, hbb and the profiled a.

    By the envelope theorem the intercept's b-dependence drops out of
    h', but it does contribute to h''(b) = hbb - hab^2 / haa, the Schur
    complement of the (a, b) Hessian of the xi-profiled objective.
    """
    x, sx2 = series.x, series.sigma_x**2
    w = 1.0 / (series.sigma_y**2 + b * b * sx2)
    sw = np.sum(w)
    xm, ym = np.sum(w * x) / sw, np.sum(w * series.y) / sw
    # about the weighted means, h' is free of the rounding of a
    r = (series.y - ym) - b * (x - xm)
    wp = -2.0 * b * sx2 * w * w
    wpp = -2.0 * sx2 * w * w + 8.0 * b * b * sx2 * sx2 * w**3
    h = float(np.sum(w * r * r))
    hp = float(np.sum(wp * r * r - 2.0 * w * r * (x - xm)))
    haa = 2.0 * sw
    hab = float(np.sum(-2.0 * wp * r + 2.0 * w * x))
    hbb = float(np.sum(wpp * r * r - 4.0 * wp * r * x + 2.0 * w * x * x))
    return h, hp, haa, hab, hbb, ym - b * xm


# grid slopes x rows held at once by _scan_derivative
_SCAN_BLOCK = 1 << 16


def _scan_derivative(series: MeasurementSeries, grid: np.ndarray, a0: float, b0: float):
    """h'(b) at every slope of ``grid``, as _profile_derivatives forms it.

    With x~ = x - mean(x), y~ = y - a0 - b0 x, d = b - b0 and r = y~ - d x~ - a~ taken
    about each slope's weighted means (accurate where a few rows hold nearly all the
    weight), h' = -2 b sum w^2 sx^2 r^2 - 2 sum w r (x~ - mean_w x~), a block at a time.
    """
    x, sx2, sy2 = series.x, series.sigma_x**2, series.sigma_y**2
    xt = x - np.mean(x)
    yt = series.y - a0 - b0 * x
    step = max(1, _SCAN_BLOCK // len(series))
    values = np.empty(grid.size)
    for start in range(0, grid.size, step):
        b = grid[start : start + step]
        w = np.multiply.outer(b * b, sx2)
        w += sy2
        np.reciprocal(w, out=w)
        xm, ym = (w @ np.column_stack([xt, yt])).T / w.sum(axis=1)
        d = b - b0
        r = yt - np.multiply.outer(d, xt) - (ym - d * xm)[:, None]
        r *= w
        wr_x = r @ xt - xm * r.sum(axis=1)
        r *= r
        values[start : start + step] = -2.0 * b * (r @ sx2) - 2.0 * wr_x
    return values


# first-kind Chebyshev points cos(_PROXY_ANGLES); values there @ _TO_COEFFS = coefficients
_PROXY_ANGLES = np.pi * (np.arange(33) + 0.5) / 33
_TO_COEFFS = np.cos(np.outer(_PROXY_ANGLES, np.arange(33))) * (2.0 - (np.arange(33) == 0)) / 33
_MAX_PIECES = 1024


def _stationary_slopes(series: MeasurementSeries, a0: float, b0: float) -> list:
    """Every slope at which h'(b) vanishes, from a piecewise Chebyshev proxy.

    b = s tan(theta), s the geometric median of sigma_y / sigma_x, maps theta in
    (-pi/2, pi/2) onto the slopes: h(theta) is smooth, a trigonometric polynomial
    of degree 2 for one common ratio, and dh/dtheta has poles atanh(min(q, 1/q))
    above 0 and +-pi/2 for each row's q = (sigma_y / sigma_x) / s.  Pieces start
    graded toward them, are sampled together by _scan_derivative and are halved
    until their last 8 coefficients are below 1e-8 of the top, or flat at most 1e-3
    below (theta's rounding near +-pi/2).  Colleague matrices give roots (Boyd 2013).
    """
    ratio = series.sigma_y / series.sigma_x
    s = math.exp(float(np.median(np.log(ratio))))
    q0, q1 = float(np.min(ratio)) / s, s / float(np.max(ratio))
    # one piece if all poles are 2 or more off the line (q > tanh 2), else one per foot side
    edges = set(np.linspace(-0.5 * math.pi, 0.5 * math.pi, 2 if min(q0, q1) > 0.964 else 5))
    for foot, q in ((0.0, q0), (0.5 * math.pi, q1)):
        reach = 3.0 * math.atanh(min(q, 0.5))
        while 0.0 < reach < 0.125 * math.pi:  # edges 3, 12, 48, ... pole heights off each foot
            edges |= {foot - reach, reach - foot}
            reach *= 4.0
    edges = np.array(sorted(edges))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    roots, evaluated = [], 0
    while mid.size:
        if (evaluated := evaluated + mid.size) > _MAX_PIECES:
            raise FitConvergenceError(f"slope profile unresolved in {_MAX_PIECES} pieces")
        t = np.tan(mid[:, None] + half[:, None] * np.cos(_PROXY_ANGLES))
        # dh/dtheta / s; the constant factor moves no root
        f = _scan_derivative(series, s * t.ravel(), a0, b0).reshape(t.shape) * (1.0 + t * t)
        size = np.abs(coeffs := f @ _TO_COEFFS)
        top, tail, before = size.max(1), size[:, -8:].max(1), size[:, -16:-8].max(1)
        done = (tail <= 1e-8 * top) | (tail <= 1e-3 * top) & (tail >= 0.1 * before)
        floors = 4.0 * np.maximum(tail, 1e-14 * top)[done]
        for c, floor, m, h in zip(coeffs[done], floors, mid[done], half[done]):
            d = np.max(np.flatnonzero(np.abs(c) > floor), initial=0)
            if d == 0 or abs(c[0]) > np.sum(np.abs(c[1 : d + 1])):  # no root in [-1, 1]
                continue
            colleague = 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
            colleague[1:2, 0] = 1.0  # basis T_0 / 2, T_1, ..., T_(d-1), so d = 1 is no case
            colleague[-1] -= np.r_[2.0 * c[0], c[1:d]] / (2.0 * c[d])
            x = np.linalg.eigvals(colleague)
            x = x.real[(np.abs(x.imag) <= 1e-8) & (np.abs(x.real) <= 1.0 + 1e-8)]
            roots.extend(s * np.tan(m + h * x))
        mid, half = mid[~done], 0.5 * half[~done]
        mid, half = np.r_[mid - half, mid + half], np.r_[half, half]
    return roots


def odr_fit(series: MeasurementSeries) -> LinearFit:
    """Straight-line fit treating both coordinates as uncertain.

    Profiles out the per-point true abscissae and the intercept, polishes every
    stationary point of the slope profile (_stationary_slopes) by Newton
    iteration and keeps the lowest minimum: the global one.  Each axis is
    fitted in its own power-of-two rescaling, which centres the binary
    exponents of its sigmas on 0: exact, so the fit depends on neither axis's
    units, and the profile's sigma^4 w^3 terms stay in float range at any scale.
    """
    _require_fittable(series)
    ux, uy = (math.ldexp(1.0, -((math.frexp(s.min())[1] + math.frexp(s.max())[1]) // 2))
              for s in (series.sigma_x, series.sigma_y))
    # the scaled arrays are not validated again: a power of two changes no digit
    scaled = object.__new__(MeasurementSeries)
    for name, u in (("x", ux), ("y", uy), ("sigma_x", ux), ("sigma_y", uy)):
        object.__setattr__(scaled, name, getattr(series, name) * u)
    series = scaled
    start = wls_fit(series)
    minima = []
    for b in _stationary_slopes(series, start.intercept, start.slope):
        step = math.inf
        for _ in range(20):
            found = _profile_derivatives(series, b)
            hpp = found[4] - found[3] ** 2 / found[2]
            if not hpp > 0.0:  # a maximum or an inflection
                break
            new = found[1] / hpp
            # below b's last bit, or of the slope's error, or no longer shrinking
            if abs(new) <= 1e-16 * (abs(b) + start.slope_se) or not abs(new) < abs(step):
                minima.append((found[0], b, found))
                break
            b, step = b - new, new
        else:
            raise FitConvergenceError("profile Newton iteration did not converge")
    if not minima:
        raise FitConvergenceError("no minimum of the slope profile found")
    _, slope, (chi2, _, haa, hab, hbb, intercept) = min(minima)
    # chi^2 curvature -> covariance of (intercept, slope) is 2 H^{-1}
    det = haa * hbb - hab * hab
    if det <= 0.0 or haa <= 0.0:
        raise FitConvergenceError("objective Hessian is not positive definite")
    cov = (2.0 / det) * np.array([[hbb, -hab], [-hab, haa]])
    # in the scaled units y = a + b x reads uy y = uy a + (uy / ux) b (ux x)
    back = np.array([1.0 / uy, ux / uy])
    with np.errstate(over="ignore"):
        intercept, slope, cov = intercept * back[0], slope * back[1], cov * back[:, None] * back
    if not (math.isfinite(intercept) and math.isfinite(slope) and np.isfinite(cov).all()):
        raise FitConvergenceError("the fit or its covariance overflows float64 in these units")
    return _finish(slope, intercept, cov, chi2, len(series))


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
