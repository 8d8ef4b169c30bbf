import numpy as np
import pytest

from oracles import ols_closed_form
from voicehr.errors import (
    DegenerateXError,
    NonPositiveMeasuredError,
    TooFewPointsError,
)
from voicehr.regression import (
    LinearModel,
    fit_ols,
    load_model,
    normal_coverage,
    predict,
    relative_error,
    save_model,
    score_row,
    summary_stats,
)


class TestFitOls:
    def test_exact_line(self):
        model = fit_ols([(0, 1), (1, 3), (2, 5)])
        assert model.beta1_hat == pytest.approx(2.0)
        assert model.beta0_hat == pytest.approx(1.0)
        assert model.residual_std == pytest.approx(0.0, abs=1e-12)

    def test_matches_compensated_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            x = rng.uniform(-50, 50, n)
            if np.ptp(x) == 0:
                continue
            y = rng.uniform(-100, 100, n)
            model = fit_ols(list(zip(x, y)))
            beta0, beta1 = ols_closed_form(x, y)
            assert model.beta1_hat == pytest.approx(beta1, rel=1e-10, abs=1e-12)
            assert model.beta0_hat == pytest.approx(beta0, rel=1e-10, abs=1e-12)

    def test_degenerate_x(self):
        with pytest.raises(DegenerateXError):
            fit_ols([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_ols([(1.0, 2.0)])

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            x = rng.normal(0, 10, n)
            y = rng.normal(50, 30, n)
            model = fit_ols(list(zip(x, y)))
            residuals = y - (model.beta0_hat + model.beta1_hat * x)
            assert abs(residuals.sum()) < n * 1e-10 * np.max(np.abs(y))

    def test_argmin_property(self):
        rng = np.random.default_rng(29)
        x = rng.normal(0, 5, 60)
        y = 2.0 + 0.5 * x + rng.normal(0, 1, 60)
        model = fit_ols(list(zip(x, y)))
        best = np.sum((y - model.beta0_hat - model.beta1_hat * x) ** 2)
        for d0 in (-1e-3, 0.0, 1e-3):
            for d1 in (-1e-3, 0.0, 1e-3):
                perturbed = np.sum(
                    (y - (model.beta0_hat + d0) - (model.beta1_hat + d1) * x) ** 2)
                assert perturbed >= best - 1e-12

    def test_affine_equivariance(self):
        rng = np.random.default_rng(31)
        x = rng.normal(0, 3, 40)
        y = rng.normal(10, 4, 40)
        base = fit_ols(list(zip(x, y)))
        a, b = 2.5, -7.0
        scaled = fit_ols(list(zip(x, a * y + b)))
        assert scaled.beta1_hat == pytest.approx(a * base.beta1_hat, rel=1e-10)
        assert scaled.beta0_hat == pytest.approx(a * base.beta0_hat + b, rel=1e-10)


class TestPredict:
    def test_intercept_at_zero(self):
        model = LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0)
        assert predict(model, 0.0) == 97.031

    def test_benchmark_point(self):
        model = LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0)
        assert predict(model, 100.0) == 106.131

    def test_passes_through_centroid(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            x = rng.normal(0, 4, n)
            y = rng.normal(70, 8, n)
            try:
                model = fit_ols(list(zip(x, y)))
            except DegenerateXError:
                continue
            assert predict(model, x.mean()) == pytest.approx(y.mean(), abs=1e-12 * 100)


class TestSummaryStats:
    def test_small_example(self):
        stats = summary_stats([2, 4, 6])
        assert stats.mean == pytest.approx(4.0)
        assert stats.variance == pytest.approx(4.0)
        assert stats.std_dev == pytest.approx(2.0)

    def test_constant_list(self):
        stats = summary_stats([3.3, 3.3, 3.3])
        assert stats.variance == pytest.approx(0.0, abs=1e-15)

    def test_bessel_denominator(self):
        values = [1.0, 2.0]
        assert summary_stats(values).variance == pytest.approx(0.5)
        assert summary_stats(values, population=True).variance == pytest.approx(0.25)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(41)
        values = rng.normal(5, 2, 1000)
        mean = sum(values) / 1000
        var = sum((v - mean) ** 2 for v in values) / 999
        stats = summary_stats(values)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(var, rel=1e-12)
        assert stats.std_dev == pytest.approx(np.sqrt(stats.variance), abs=1e-12)

    def test_too_few_for_variance(self):
        with pytest.raises(TooFewPointsError):
            summary_stats([1.0])


class TestRelativeError:
    def test_identity(self):
        assert relative_error(100.0, 100.0) == 0.0

    def test_ten_percent(self):
        assert relative_error(90.0, 100.0) == pytest.approx(10.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            e, m, c = rng.uniform(50, 150), rng.uniform(50, 150), rng.uniform(0.1, 10)
            assert relative_error(c * e, c * m) == pytest.approx(
                relative_error(e, m), rel=1e-12)

    def test_non_positive_measured(self):
        with pytest.raises(NonPositiveMeasuredError):
            relative_error(80.0, 0.0)

    def test_score_row_sums_to_100(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            row = score_row(rng.uniform(40, 200), rng.uniform(40, 200))
            assert row.relative_error_pct + row.accuracy_pct == 100.0


class TestNormalCoverage:
    def test_gaussian_coverage(self):
        rng = np.random.default_rng(53)
        values = rng.normal(75.0, 8.0, 100_000)
        f1, f2, f3 = normal_coverage(values)
        assert f1 == pytest.approx(0.6827, abs=0.01)
        assert f2 == pytest.approx(0.9545, abs=0.005)
        assert f3 == pytest.approx(0.9973, abs=0.003)

    def test_constant_list(self):
        assert normal_coverage([5.0] * 50) == (1.0, 1.0, 1.0)

    def test_uniform_coverage(self):
        rng = np.random.default_rng(59)
        values = rng.uniform(0.0, 1.0, 100_000)
        f1, _, _ = normal_coverage(values)
        # uniform has sd 1/sqrt(12); mass within one sd is 2/sqrt(12)
        assert f1 == pytest.approx(2.0 / np.sqrt(12.0), abs=0.01)

    def test_too_few(self):
        with pytest.raises(TooFewPointsError):
            normal_coverage([1.0] * 10)


class TestModelStore:
    def test_json_round_trip(self, tmp_path):
        model = fit_ols([(0, 1), (1, 3), (2, 5.5)], subject_id="s01", emotion="joy")
        path = tmp_path / "s01_joy.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.beta0_hat == model.beta0_hat
        assert loaded.beta1_hat == model.beta1_hat
        assert loaded.subject_id == "s01"
        assert loaded.emotion == "joy"

    def test_save_load_is_lossless(self, tmp_path):
        model = fit_ols([(0, 1), (1, 3), (2, 5.5), (4, 8)], subject_id="s02", emotion="anger")
        path = tmp_path / "s02_anger.json"
        save_model(model, path)
        assert load_model(path) == model
