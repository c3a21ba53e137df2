"""Errors-in-variables line fitting against independent oracles."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from scipy import special, stats

from gup import evfit
from gup.evfit import (
    DegenerateDataError,
    FitConvergenceError,
    MeasurementSeries,
    _scan_derivative,
    _stationary_slopes,
    _t_quantile,
    _t_upper_tail,
    confidence_interval,
    odr_fit,
    wls_fit,
)

from conftest import dense_profile_scan, profile_by_slope, york_line_fit


def chi2_objective(series: MeasurementSeries, intercept: float, slope: float) -> float:
    """Reference objective: weighted residuals with slope-dependent weights."""
    w = 1.0 / (series.sigma_y**2 + slope**2 * series.sigma_x**2)
    r = series.y - intercept - slope * series.x
    return float(np.sum(w * r * r))


def make_series(rng, n=25, slope=0.8, intercept=-1.5, sx=0.05, sy=0.12):
    x_true = np.linspace(-3.0, 4.0, n)
    x = x_true + rng.normal(0.0, sx, n)
    y = intercept + slope * x_true + rng.normal(0.0, sy, n)
    return MeasurementSeries(x=x, y=y, sigma_x=sx, sigma_y=sy)


class TestMeasurementSeries:
    def test_scalar_sigmas_broadcast(self):
        s = MeasurementSeries(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0], sigma_x=0.1, sigma_y=0.2)
        np.testing.assert_array_equal(s.sigma_x, [0.1, 0.1, 0.1])
        np.testing.assert_array_equal(s.sigma_y, [0.2, 0.2, 0.2])
        assert len(s) == 3

    def test_arrays_are_frozen(self):
        s = MeasurementSeries(x=[1.0, 2.0], y=[3.0, 4.0], sigma_x=0.1, sigma_y=0.1)
        with pytest.raises(ValueError):
            s.x[0] = 99.0

    @pytest.mark.parametrize("bad", [
        {"x": [[1.0, 2.0]], "y": [1.0, 2.0]},
        {"x": [1.0, 2.0], "y": [1.0]},
        {"x": [1.0, np.nan], "y": [1.0, 2.0]},
    ])
    def test_rejects_malformed_coordinates(self, bad):
        with pytest.raises(ValueError):
            MeasurementSeries(sigma_x=0.1, sigma_y=0.1, **bad)

    @pytest.mark.parametrize("sx,sy", [
        (0.0, 0.1), (0.1, -0.1), (np.inf, 0.1),
        # sigma^2 or 1 / sigma^2 overflows, underflows or is subnormal
        (1e200, 0.1), (0.1, 1e-200), (1e154, 0.1), (0.1, 1e-154), (7e153, 0.1), (0.1, 1.4e-154),
    ])
    def test_rejects_bad_sigmas(self, sx, sy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                MeasurementSeries(x=[1.0, 2.0], y=[1.0, 2.0], sigma_x=sx, sigma_y=sy)

    @pytest.mark.parametrize("sigma", [6.6e153, 1.5e-154, 1e-100, 1e100])
    def test_accepts_sigmas_inside_the_normal_range(self, sigma):
        s = MeasurementSeries(x=[1.0, 2.0], y=[1.0, 2.0], sigma_x=sigma, sigma_y=sigma)
        assert s.sigma_x[0] == s.sigma_y[0] == sigma


class TestWls:
    def test_weights_spanning_decades_are_not_degenerate(self):
        # the raw determinant sw sxx - sx^2 cancels to 0.0 here; about the
        # weighted mean of x it is 5.2e4
        s = MeasurementSeries(x=[1.0625, -1.0651, 1.1948], y=[0.3, -0.2, 0.5],
                              sigma_x=1.0, sigma_y=[1.51e5, 6.42e3, 1.54e-6])
        fit = wls_fit(s)
        # the normal equations in exact rational arithmetic
        w = [1 / Fraction(v) ** 2 for v in s.sigma_y.tolist()]
        x, y = [Fraction(v) for v in s.x.tolist()], [Fraction(v) for v in s.y.tolist()]
        sw, sx, sy = sum(w), sum(map(mul, w, x)), sum(map(mul, w, y))
        sxx, sxy = sum(map(mul, w, map(mul, x, x))), sum(map(mul, w, map(mul, x, y)))
        det = sw * sxx - sx * sx
        assert fit.slope == pytest.approx(float((sw * sxy - sx * sy) / det), rel=1e-12)
        assert fit.intercept == pytest.approx(float((sxx * sy - sx * sxy) / det), rel=1e-12)
        np.testing.assert_allclose(
            fit.covariance, np.array([[sxx, -sx], [-sx, sw]], dtype=float) / float(det),
            rtol=1e-12,
        )
        assert odr_fit(s).chi2 >= 0.0

    def test_exact_line_is_recovered(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        s = MeasurementSeries(x=x, y=2.0 + 0.5 * x, sigma_x=0.1, sigma_y=0.3)
        fit = wls_fit(s)
        assert fit.slope == pytest.approx(0.5, rel=1e-12)
        assert fit.intercept == pytest.approx(2.0, rel=1e-12)
        assert fit.chi2 == pytest.approx(0.0, abs=1e-20)
        assert fit.method == "wls"

    def test_matches_polyfit_oracle(self, rng):
        s = make_series(rng)
        fit = wls_fit(s)
        coeffs = np.polyfit(s.x, s.y, 1, w=1.0 / s.sigma_y)
        assert fit.slope == pytest.approx(coeffs[0], rel=1e-10)
        assert fit.intercept == pytest.approx(coeffs[1], rel=1e-10)

    def test_dof_and_shape(self, rng):
        s = make_series(rng, n=11)
        fit = wls_fit(s)
        assert fit.dof == 9
        assert fit.n_points == 11
        assert fit.covariance.shape == (2, 2)


class TestOdr:
    # named for scipy.odr (deprecated in SciPy 1.17), the oracle that set
    # these tolerances
    def test_matches_scipy_odr(self, timing_series):
        fit = odr_fit(timing_series)
        intercept, slope, chi2 = york_line_fit(
            timing_series.x, timing_series.y,
            timing_series.sigma_x, timing_series.sigma_y,
        )
        assert fit.intercept == pytest.approx(intercept, rel=1e-7)
        assert fit.slope == pytest.approx(slope, rel=1e-6)
        assert fit.reduced_chi2 == pytest.approx(chi2 / (len(timing_series) - 2), rel=1e-6)

    def test_matches_scipy_odr_synthetic(self, rng):
        s = make_series(rng, n=40, sx=0.2, sy=0.1)
        fit = odr_fit(s)
        intercept, slope, _ = york_line_fit(s.x, s.y, s.sigma_x, s.sigma_y)
        assert fit.slope == pytest.approx(slope, rel=1e-6)
        assert fit.intercept == pytest.approx(intercept, rel=1e-6)

    def test_is_a_stationary_minimum(self, timing_series):
        fit = odr_fit(timing_series)
        h0 = chi2_objective(timing_series, fit.intercept, fit.slope)
        for db in (-1e-6, 1e-6):
            for da in (-1e-6, 1e-6):
                assert chi2_objective(timing_series, fit.intercept + da, fit.slope + db) >= h0

    def test_beats_wls_on_its_own_objective(self, rng):
        s = make_series(rng, n=30, sx=0.3, sy=0.05)
        odr = odr_fit(s)
        wls = wls_fit(s)
        assert chi2_objective(s, odr.intercept, odr.slope) <= chi2_objective(
            s, wls.intercept, wls.slope
        ) + 1e-12

    def test_covariance_from_finite_differences(self, timing_series):
        # numerical Hessian of the objective at the minimum, cov = 2 H^{-1}
        fit = odr_fit(timing_series)
        a, b = fit.intercept, fit.slope
        ha, hb = 1e-7, 1e-8

        def f(da, db):
            return chi2_objective(timing_series, a + da, b + db)

        haa = (f(ha, 0) - 2 * f(0, 0) + f(-ha, 0)) / ha**2
        hbb = (f(0, hb) - 2 * f(0, 0) + f(0, -hb)) / hb**2
        hab = (f(ha, hb) - f(ha, -hb) - f(-ha, hb) + f(-ha, -hb)) / (4 * ha * hb)
        cov = 2.0 * np.linalg.inv(np.array([[haa, hab], [hab, hbb]]))
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-4)

    def test_covariance_symmetric_psd(self, timing_series):
        fit = odr_fit(timing_series)
        cov = fit.covariance
        assert cov[0, 1] == cov[1, 0]
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)
        assert fit.slope_se == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-15)
        assert fit.intercept_se == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-15)

    def test_swap_symmetry(self, rng):
        # exchanging the roles of x and y must invert the slope
        s = make_series(rng, n=30, slope=0.7, sx=0.1, sy=0.1)
        forward = odr_fit(s)
        swapped = odr_fit(
            MeasurementSeries(x=s.y, y=s.x, sigma_x=s.sigma_y, sigma_y=s.sigma_x)
        )
        assert swapped.slope == pytest.approx(1.0 / forward.slope, rel=1e-8)

    def test_sigma_rescaling(self, timing_series):
        fit = odr_fit(timing_series)
        k = 3.0
        scaled = odr_fit(MeasurementSeries(
            x=timing_series.x, y=timing_series.y,
            sigma_x=k * timing_series.sigma_x, sigma_y=k * timing_series.sigma_y,
        ))
        assert scaled.slope == pytest.approx(fit.slope, rel=1e-10)
        assert scaled.intercept == pytest.approx(fit.intercept, rel=1e-12)
        assert scaled.reduced_chi2 == pytest.approx(fit.reduced_chi2 / k**2, rel=1e-9)
        assert scaled.slope_se == pytest.approx(k * fit.slope_se, rel=1e-9)

    @pytest.mark.parametrize("factor", [1e-100, 1e-80, 1e-60, 1e60, 1e80, 1e100])
    def test_fit_does_not_depend_on_the_units(self, factor):
        # both axes in other units: the slope stays, the intercept and its error scale
        x, y = np.arange(4.0), np.array([0.1, 1.0, 2.1, 2.9])
        sx, sy = np.array([0.1, 0.15, 0.2, 0.12]), np.array([0.1, 0.2, 0.3, 0.15])
        fit = odr_fit(MeasurementSeries(x, y, sx, sy))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = odr_fit(MeasurementSeries(factor * x, factor * y, factor * sx, factor * sy))
        assert scaled.slope == pytest.approx(fit.slope, rel=1e-14)
        assert scaled.slope_se == pytest.approx(fit.slope_se, rel=1e-14)
        assert scaled.intercept == pytest.approx(factor * fit.intercept, rel=1e-13)
        assert scaled.intercept_se == pytest.approx(factor * fit.intercept_se, rel=1e-13)
        assert scaled.chi2 == pytest.approx(fit.chi2, rel=1e-13)

    def test_vanishing_sigma_x_reduces_to_wls(self, rng):
        s = make_series(rng, n=30, sx=0.1, sy=0.1)
        tiny = MeasurementSeries(x=s.x, y=s.y, sigma_x=1e-12, sigma_y=s.sigma_y)
        odr = odr_fit(tiny)
        wls = wls_fit(tiny)
        assert odr.slope == pytest.approx(wls.slope, rel=1e-8)
        assert odr.intercept == pytest.approx(wls.intercept, rel=1e-8)

    def test_collinear_data_gives_zero_chi2(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        s = MeasurementSeries(x=x, y=1.0 - 2.0 * x, sigma_x=0.2, sigma_y=0.2)
        fit = odr_fit(s)
        assert fit.slope == pytest.approx(-2.0, rel=1e-10)
        assert fit.chi2 == pytest.approx(0.0, abs=1e-16)

    def test_frozen_bundled_dataset_values(self, timing_series):
        fit = odr_fit(timing_series)
        assert fit.slope == pytest.approx(0.023242654517764492, rel=1e-10)
        assert fit.intercept == pytest.approx(3.473041799000506, rel=1e-12)
        assert fit.reduced_chi2 == pytest.approx(0.11201997120967674, rel=1e-8)
        assert fit.slope_se == pytest.approx(4.4679876526640096e-04, rel=1e-8)
        assert fit.intercept_se == pytest.approx(5.130583955380893e-05, rel=1e-8)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_points(self, n):
        s = MeasurementSeries(
            x=np.arange(n, dtype=float), y=np.arange(n, dtype=float),
            sigma_x=0.1, sigma_y=0.1,
        )
        with pytest.raises(DegenerateDataError):
            odr_fit(s)

    def test_coincident_x(self):
        s = MeasurementSeries(x=[1.0, 1.0, 1.0], y=[1.0, 2.0, 3.0], sigma_x=0.1, sigma_y=0.1)
        with pytest.raises(DegenerateDataError):
            odr_fit(s)


def heteroscedastic_series(seed: int) -> MeasurementSeries:
    rng = np.random.default_rng([20261018, seed])
    n = int(rng.integers(3, 12))
    return MeasurementSeries(
        x=rng.normal(size=n), y=rng.normal(size=n),
        sigma_x=10.0 ** rng.uniform(-2.0, 1.0, n),
        sigma_y=10.0 ** rng.uniform(-2.0, 1.0, n),
    )


def timing_shaped_series(rows: int, per_row_sigmas: bool) -> MeasurementSeries:
    """Period (s) against amplitude squared (m^2) like the benchmark's fit data."""
    rng = np.random.default_rng([20261018, rows])
    x_true = rng.uniform(0.01, 0.23, rows)
    spread = rng.uniform(0.5, 2.0, (2, rows)) if per_row_sigmas else np.ones((2, rows))
    sx, sy = 5e-3 * spread[0], 1e-4 * spread[1]
    return MeasurementSeries(
        x=x_true + sx * rng.standard_normal(rows),
        y=3.47305 + 2.10e-2 * x_true + sy * rng.standard_normal(rows),
        sigma_x=sx, sigma_y=sy,
    )


def probe_series(index: int) -> MeasurementSeries:
    """Set ``index`` of a 4,000-set probe drawn from numpy's default_rng(1).

    n from 3 to 11, x and y from N(0, 1), sigma_x and sigma_y log-uniform
    in [1e-2, 10], drawn in that order set after set.
    """
    rng = np.random.default_rng(1)
    for _ in range(index + 1):
        n = int(rng.integers(3, 12))
        x, y = rng.normal(size=n), rng.normal(size=n)
        sx, sy = 10.0 ** rng.uniform(-2.0, 1.0, n), 10.0 ** rng.uniform(-2.0, 1.0, n)
    return MeasurementSeries(x=x, y=y, sigma_x=sx, sigma_y=sy)


def dense_grid(series: MeasurementSeries) -> dict:
    """A coarser oracle grid for thousands of rows, to keep the suite fast."""
    return {"points": 257, "scales": 5} if len(series) > 1000 else {}


# the probe sets on which a sign scan of h' over 485 fixed slopes around the
# weighted-least-squares slope stepped over the global minimum
SCAN_MISSES = [
    133, 227, 568, 829, 1164, 1772, 1893, 1945, 2000, 2179, 2446,
    2672, 2740, 2909, 3050, 3366, 3410, 3670, 3703, 3752, 3773,
]


class TestBracketScan:
    @staticmethod
    def check_against_loop(series: MeasurementSeries) -> None:
        """_scan_derivative matches the pointwise h' on the dense oracle grid,
        and every sign change of that h' holds a root of the proxy."""
        start = wls_fit(series)
        slopes, _, values = dense_profile_scan(series, **dense_grid(series))
        scan = _scan_derivative(series, slopes, start.intercept, start.slope)
        assert np.max(np.abs(scan - values)) <= 1e-8 * np.max(np.abs(values))
        roots = np.array(_stationary_slopes(series, start.intercept, start.slope))
        for k in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
            lo, hi = slopes[k], slopes[k + 1]
            slack = 1e-7 * max(abs(lo), abs(hi))
            assert np.any((roots >= lo - slack) & (roots <= hi + slack)), (lo, hi)

    @pytest.mark.parametrize("seed", range(40))
    def test_heteroscedastic_sets_match_loop(self, seed):
        self.check_against_loop(heteroscedastic_series(seed))

    @pytest.mark.parametrize("rows", [18, 2000, 20000])
    @pytest.mark.parametrize("per_row_sigmas", [False, True])
    def test_timing_shaped_series_match_loop(self, rows, per_row_sigmas):
        self.check_against_loop(timing_shaped_series(rows, per_row_sigmas))

    def test_bundled_dataset_matches_loop(self, timing_series):
        self.check_against_loop(timing_series)

    @pytest.mark.parametrize("seed", range(10))
    def test_scan_matches_loop_near_vertical_slopes(self, seed):
        # dh/dtheta up to the constant s, the values the proxy interpolates,
        # down to 1e-3 from theta = +-pi/2 (|b| about 1e3 s)
        series = heteroscedastic_series(seed)
        start = wls_fit(series)
        s = math.exp(float(np.median(np.log(series.sigma_y / series.sigma_x))))
        theta = 0.5 * np.pi - np.geomspace(1e-3, 1.5, 25)
        t = np.tan(np.concatenate([-theta, theta]))
        loop = profile_by_slope(series, s * t)[1] * (1.0 + t * t)
        scan = _scan_derivative(series, s * t, start.intercept, start.slope) * (1.0 + t * t)
        assert np.max(np.abs(scan - loop)) <= 1e-8 * np.max(np.abs(loop))

    def test_finds_global_minimum_with_per_row_sigmas(self):
        # chi^2 is 0.15735 at slope -0.6147; a sign scan on a fixed slope
        # grid returned the local minimum 0.43017 at 0.4643
        s = MeasurementSeries(
            x=[0.5823905409008899, 2.2503006789362723, 0.4951043650764877],
            y=[1.2368065561840522, -1.1413533414277894, -0.6540483449670293],
            sigma_x=[9.86411102197559, 0.1372019942232869, 0.24371586005768534],
            sigma_y=[0.17116340046946105, 2.517451855849723, 0.06845547487960302],
        )
        assert odr_fit(s).chi2 <= 0.15736


class TestGlobalMinimum:
    @staticmethod
    def check_global(series: MeasurementSeries) -> None:
        fit = odr_fit(series)
        _, h, _ = dense_profile_scan(series, **dense_grid(series))
        assert fit.chi2 <= h.min() * (1.0 + 1e-9)
        assert fit.chi2 == pytest.approx(
            chi2_objective(series, fit.intercept, fit.slope), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(200))
    def test_random_heteroscedastic_fit_is_global(self, seed):
        self.check_global(heteroscedastic_series(seed))

    @pytest.mark.parametrize("index", SCAN_MISSES)
    def test_close_pairs_of_stationary_points(self, index):
        self.check_global(probe_series(index))

    @pytest.mark.parametrize("rows", [18, 2000])
    def test_timing_shaped_fit_is_global(self, rows):
        self.check_global(timing_shaped_series(rows, per_row_sigmas=True))

    def test_sigma_ratio_past_float_range_raises(self):
        # sigma_y / sigma_x would underflow to 0 for one row, leaving no pole
        # height to grade by; the series refuses these sigmas before any fit
        with pytest.raises(ValueError, match="normal floats"):
            MeasurementSeries(x=[0.0, 1.0, 2.0, 3.0], y=[0.0, 1.0, 2.0, 2.5],
                              sigma_x=[1e300, 1.0, 1.0, 1.0], sigma_y=[1e-300, 1.0, 1.0, 1.0])

    def test_unresolved_profile_raises(self, monkeypatch):
        # per-row sigma ratios need more than the one piece allowed here
        monkeypatch.setattr(evfit, "_MAX_PIECES", 1)
        with pytest.raises(FitConvergenceError):
            odr_fit(timing_shaped_series(18, per_row_sigmas=True))


class TestConfidenceInterval:
    def test_half_width_uses_student_t(self, timing_series):
        fit = odr_fit(timing_series)
        lo, hi = confidence_interval(fit, "slope", level=0.95)
        half = stats.t.ppf(0.975, fit.dof) * fit.slope_se
        assert hi - lo == pytest.approx(2.0 * half, rel=1e-12)
        assert 0.5 * (lo + hi) == pytest.approx(fit.slope, rel=1e-12)

    def test_intercept_interval_centred(self, timing_series):
        fit = odr_fit(timing_series)
        lo, hi = confidence_interval(fit, "intercept", level=0.68)
        assert lo < fit.intercept < hi

    def test_large_dof_approaches_normal_quantile(self, rng):
        s = make_series(rng, n=2000)
        fit = odr_fit(s)
        lo, hi = confidence_interval(fit, "slope", level=0.95)
        assert (hi - lo) / (2.0 * fit.slope_se) == pytest.approx(1.96, abs=0.01)

    def test_width_grows_with_level(self, timing_series):
        fit = odr_fit(timing_series)
        w = [confidence_interval(fit, "slope", level=v) for v in (0.5, 0.9, 0.99)]
        widths = [hi - lo for lo, hi in w]
        assert widths[0] < widths[1] < widths[2]

    def test_rejects_bad_arguments(self, timing_series):
        fit = odr_fit(timing_series)
        with pytest.raises(ValueError):
            confidence_interval(fit, "curvature")
        with pytest.raises(ValueError):
            confidence_interval(fit, "slope", level=1.0)
        with pytest.raises(ValueError):
            confidence_interval(fit, "slope", level=0.0)


class TestStudentTQuantile:
    DOFS = [*range(1, 200), 1000, 19998, 100000]

    @pytest.mark.parametrize("level", [0.5, 0.68, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999])
    def test_matches_stdtrit(self, level):
        q = 0.5 * (1.0 + level)
        got = np.array([_t_quantile(dof, 1.0 - q) for dof in self.DOFS])
        np.testing.assert_allclose(got, special.stdtrit(self.DOFS, q), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 51, 200, 999, 1000])
    def test_far_tail_keeps_relative_accuracy(self, dof):
        # down to 1e-210, where 1 - CDF would have cancelled to nothing
        t = np.geomspace(4.0, 40.0, 10)
        got = [_t_upper_tail(dof, float(x))[0] for x in t]
        np.testing.assert_allclose(got, special.stdtr(dof, -t), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 30, 199, 1000, 1001, 19998, 100000])
    def test_extreme_levels_finite_and_increasing(self, dof):
        # at the last level 1 + level rounds to 2: q = (1 + level) / 2 would be 1
        levels = [1e-9, 1e-3, 0.5, 0.95, 1.0 - 1e-6, 1.0 - 1e-9]
        levels.append(math.nextafter(1.0, 0.0))
        t = [_t_quantile(dof, 0.5 * (1.0 - level)) for level in levels]
        assert all(np.isfinite(t))
        assert t[0] > 0.0
        assert all(a < b for a, b in zip(t, t[1:]))
