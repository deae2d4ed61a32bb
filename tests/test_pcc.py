"""Unit tests for PCC representation, fitting, and decisions."""

import numpy as np
import pytest

from repro.arepas import default_token_grid
from repro.exceptions import FittingError
from repro.obs import get_registry, trace
from repro.obs.metrics import reset_registry
from repro.pcc import (
    PowerLawPCC,
    find_elbow,
    fit_from_skyline,
    fit_observations,
    fit_power_law,
    fit_power_laws,
    fit_quality,
    optimal_tokens,
    tokens_for_slowdown,
)
from repro.arepas.augmentation import AugmentedObservation
from repro.skyline import Skyline


class TestPowerLawPCC:
    def test_runtime_evaluation(self):
        pcc = PowerLawPCC(a=-1.0, b=1000.0)
        assert pcc.runtime(10) == pytest.approx(100.0)
        assert pcc.runtime(100) == pytest.approx(10.0)

    def test_amdahl_special_case(self):
        pcc = PowerLawPCC.amdahl(3600)
        assert pcc.a == -1.0
        assert pcc.runtime(60) == pytest.approx(60.0)

    def test_vectorized_runtime(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        values = pcc.runtime(np.array([1.0, 4.0, 16.0]))
        assert np.allclose(values, [100.0, 50.0, 25.0])

    def test_monotonicity_flag(self):
        assert PowerLawPCC(a=-0.5, b=10).is_non_increasing
        assert PowerLawPCC(a=0.0, b=10).is_non_increasing
        assert not PowerLawPCC(a=0.5, b=10).is_non_increasing

    def test_rejects_nonpositive_b(self):
        with pytest.raises(FittingError):
            PowerLawPCC(a=-1.0, b=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(FittingError):
            PowerLawPCC(a=np.nan, b=1.0)

    def test_rejects_nonpositive_tokens(self):
        with pytest.raises(FittingError):
            PowerLawPCC(a=-1, b=10).runtime(0)

    def test_log_parameter_roundtrip(self):
        pcc = PowerLawPCC(a=-0.7, b=250.0)
        a, log_b = pcc.log_parameters()
        restored = PowerLawPCC.from_log_parameters(a, log_b)
        assert restored.a == pytest.approx(pcc.a)
        assert restored.b == pytest.approx(pcc.b)

    def test_relative_improvement(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        assert pcc.relative_improvement(50) == pytest.approx(0.01)

    def test_slope_negative_for_decreasing(self):
        assert PowerLawPCC(a=-1, b=10).slope(5) < 0

    def test_speedup(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        assert pcc.speedup(10, 20) == pytest.approx(2.0)


class TestFitting:
    def test_exact_recovery(self):
        true = PowerLawPCC(a=-0.8, b=500.0)
        tokens = np.array([5.0, 10.0, 20.0, 40.0])
        fitted = fit_power_law(tokens, true.runtime(tokens))
        assert fitted.a == pytest.approx(-0.8)
        assert fitted.b == pytest.approx(500.0, rel=1e-9)

    def test_weighted_fit_prefers_heavy_points(self):
        tokens = np.array([10.0, 20.0, 40.0])
        runtimes = np.array([100.0, 100.0, 10.0])  # kink at the end
        flat_fit = fit_power_law(tokens, runtimes,
                                 weights=np.array([100.0, 100.0, 0.01]))
        assert abs(flat_fit.a) < 0.2  # dominated by the flat points

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_single_point(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([1.0]), np.array([1.0]))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(FittingError):
            fit_power_law(np.array([2.0, 2.0]), np.array([1.0, 2.0]))

    def test_fit_observations_upweights_observed(self):
        observations = [
            AugmentedObservation(tokens=10, runtime=100, source="observed"),
            AugmentedObservation(tokens=20, runtime=80),
            AugmentedObservation(tokens=40, runtime=70),
        ]
        default = fit_observations(observations)
        heavy = fit_observations(observations, observed_weight=50.0)
        # Up-weighting drags the curve closer to the observed point.
        assert abs(heavy.runtime(10) - 100) <= abs(default.runtime(10) - 100)

    def test_fit_from_skyline_monotone(self, peaky_skyline):
        pcc = fit_from_skyline(peaky_skyline, reference_tokens=80)
        assert pcc.is_non_increasing
        assert pcc.b > 0

    def test_fit_quality_perfect(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        tokens = np.array([1.0, 2.0, 4.0])
        quality = fit_quality(pcc, tokens, pcc.runtime(tokens))
        assert quality["r_squared"] == pytest.approx(1.0)
        assert quality["median_ape"] == pytest.approx(0.0)


def _scalar_fit(tokens, runtimes, weights=None):
    """The per-curve least squares that ``fit_power_laws`` batches."""
    x = np.log(tokens)
    y = np.log(runtimes)
    w = np.ones_like(x) if weights is None else weights
    w_sum = w.sum()
    x_mean = (w * x).sum() / w_sum
    y_mean = (w * y).sum() / w_sum
    var_x = (w * (x - x_mean) ** 2).sum()
    cov_xy = (w * (x - x_mean) * (y - y_mean)).sum()
    a = cov_xy / var_x
    return PowerLawPCC.from_log_parameters(a, y_mean - a * x_mean)


class TestFitPowerLaws:
    """One least-squares pass over many curves, bit for bit per curve."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("points", [2, 9, 17])
    def test_rows_match_the_scalar_fit(self, weighted, points):
        rng = np.random.default_rng(points)
        spread = np.linspace(0.5, 2.0, points) * rng.uniform(0.9, 1.1, points)
        tokens = rng.uniform(1.0, 800.0, size=(200, 1)) * spread
        exponent = rng.uniform(-1.5, 0.3, size=(200, 1))
        noise = rng.lognormal(0.0, 0.2, size=(200, points))
        runtimes = rng.uniform(10.0, 1e4, size=(200, 1)) * tokens**exponent * noise
        weights = rng.uniform(0.1, 5.0, size=(200, points)) if weighted else None
        a, b = fit_power_laws(tokens, runtimes, weights)
        for row in range(200):
            row_weights = None if weights is None else weights[row]
            want = _scalar_fit(tokens[row], runtimes[row], row_weights)
            got = fit_power_law(tokens[row], runtimes[row], row_weights)
            assert (a[row], b[row]) == (want.a, want.b) == (got.a, got.b)

    @pytest.fixture()
    def fits_counted(self):
        trace.reset()
        reset_registry()
        trace.enable()
        yield lambda: get_registry().snapshot()["counters"].get(
            "pcc_power_law_fits", 0
        )
        trace.disable()
        trace.reset()
        reset_registry()

    def test_counts_one_fit_per_row(self, fits_counted):
        tokens = np.tile([10.0, 20.0, 40.0], (5, 1))
        fit_power_laws(tokens, 1000.0 / tokens)
        assert fits_counted() == 5

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "bad_row, message, fitted",
        [
            ([[1.0, 2.0], [3.0, -1.0]], "positive", 1),
            ([[2.0, 2.0], [5.0, 7.0]], "distinct", 1),
            ([[np.nan, np.nan], [5.0, 7.0]], "distinct", 1),
            ([[1.0, 2.0], [np.inf, np.inf]], "finite", 2),
        ],
    )
    def test_first_failing_row_decides_the_error(
        self, fits_counted, bad_row, message, fitted
    ):
        # Row 0 is fine; the failing row comes next and is followed by
        # a row that fails an earlier check, as a loop would never see.
        tokens = np.array([[10.0, 20.0], [1.0, 2.0], [0.0, 1.0]])
        runtimes = np.array([[50.0, 30.0], [1.0, 1.0], [1.0, 1.0]])
        tokens[1], runtimes[1] = bad_row
        with pytest.raises(FittingError, match=message):
            fit_power_laws(tokens, runtimes)
        assert fits_counted() == fitted

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_counts_fits_up_to_an_unusable_curve(self, fits_counted):
        # Row 1 fits (its least squares runs) but gives no finite curve.
        tokens = np.tile([10.0, 20.0], (3, 1))
        runtimes = np.array([[50.0, 30.0], [np.inf, np.inf], [50.0, 30.0]])
        with pytest.raises(FittingError, match="finite"):
            fit_power_laws(tokens, runtimes)
        assert fits_counted() == 2

    def test_rejects_bad_weights_per_row(self):
        tokens = np.tile([10.0, 20.0], (2, 1))
        with pytest.raises(FittingError, match="weights"):
            fit_power_laws(tokens, tokens, np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(FittingError, match="weights"):
            fit_power_laws(tokens, tokens, np.ones((2, 3)))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(FittingError):
            fit_power_laws(np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(FittingError):
            fit_power_laws(np.ones((2, 1)), np.ones((2, 1)))


class TestOptimalTokens:
    def test_closed_form(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        # -a / threshold = 0.5 / 0.01 = 50
        assert optimal_tokens(pcc, improvement_threshold=0.01) == 50

    def test_respects_bounds(self):
        pcc = PowerLawPCC(a=-0.5, b=100.0)
        assert optimal_tokens(pcc, 0.01, max_tokens=30) == 30
        assert optimal_tokens(pcc, 10.0, min_tokens=5) == 5

    def test_flat_curve_gets_minimum(self):
        pcc = PowerLawPCC(a=0.0, b=100.0)
        assert optimal_tokens(pcc) == 1

    def test_rejects_increasing_curve(self):
        with pytest.raises(FittingError):
            optimal_tokens(PowerLawPCC(a=0.5, b=10))

    def test_rejects_bad_threshold(self):
        with pytest.raises(FittingError):
            optimal_tokens(PowerLawPCC(a=-1, b=10), improvement_threshold=0)


class TestTokensForSlowdown:
    def test_zero_budget_keeps_reference(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        assert tokens_for_slowdown(pcc, reference_tokens=100, max_slowdown=0.0) == 100

    def test_budget_allows_reduction(self):
        pcc = PowerLawPCC(a=-1.0, b=100.0)
        # runtime scales as 1/A: 10% slowdown allows ~9% fewer tokens.
        tokens = tokens_for_slowdown(pcc, 100, 0.10)
        assert tokens == 91
        assert pcc.runtime(tokens) <= 1.10 * pcc.runtime(100) * 1.001

    def test_flat_curve_allows_one_token(self):
        pcc = PowerLawPCC(a=0.0, b=100.0)
        assert tokens_for_slowdown(pcc, 100, 0.05) == 1

    def test_shallow_curve_allows_bigger_cut(self):
        shallow = PowerLawPCC(a=-0.2, b=100.0)
        steep = PowerLawPCC(a=-1.0, b=100.0)
        assert tokens_for_slowdown(shallow, 100, 0.10) < tokens_for_slowdown(
            steep, 100, 0.10
        )

    def test_rejects_negative_budget(self):
        with pytest.raises(FittingError):
            tokens_for_slowdown(PowerLawPCC(a=-1, b=10), 10, -0.1)


class TestElbow:
    def test_elbow_of_power_law(self):
        tokens = np.linspace(5, 200, 60)
        runtimes = 2000 * tokens**-0.9
        elbow_tokens, elbow_runtime = find_elbow(tokens, runtimes)
        # The knee of a decaying curve sits in the lower-left region.
        assert tokens[0] < elbow_tokens < np.median(tokens)
        assert elbow_runtime == pytest.approx(2000 * elbow_tokens**-0.9)

    def test_input_order_irrelevant(self):
        tokens = np.array([100.0, 10.0, 50.0, 25.0, 200.0])
        runtimes = 1000 * tokens**-1.0
        a = find_elbow(tokens, runtimes)
        b = find_elbow(tokens[::-1], runtimes[::-1])
        assert a == b

    def test_rejects_too_few_points(self):
        with pytest.raises(FittingError):
            find_elbow(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_rejects_degenerate(self):
        with pytest.raises(FittingError):
            find_elbow(np.array([1.0, 1.0, 1.0]), np.array([3.0, 2.0, 1.0]))
