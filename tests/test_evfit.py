"""Errors-in-variables line fitting against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from gup.evfit import (
    DegenerateDataError,
    MeasurementSeries,
    confidence_interval,
    odr_fit,
    wls_fit,
)

from conftest import york_line_fit


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

    @pytest.mark.parametrize("sx,sy", [(0.0, 0.1), (0.1, -0.1), (np.inf, 0.1)])
    def test_rejects_bad_sigmas(self, sx, sy):
        with pytest.raises(ValueError):
            MeasurementSeries(x=[1.0, 2.0], y=[1.0, 2.0], sigma_x=sx, sigma_y=sy)


class TestWls:
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

    @pytest.mark.parametrize("n", [1, 2])
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
