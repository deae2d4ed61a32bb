"""Unit tests for evaluation metrics."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml import fraction_non_increasing, median_absolute_percentage_error


class TestMAE:
    """Input checks of the paper's "Median AE"."""

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            median_absolute_percentage_error(np.ones(2), np.ones(3))

    def test_empty(self):
        with pytest.raises(ModelError):
            median_absolute_percentage_error(np.array([]), np.array([]))


class TestPercentageErrors:
    def test_median_ape(self):
        true = np.array([100.0, 100.0, 100.0])
        pred = np.array([110.0, 150.0, 100.0])
        assert median_absolute_percentage_error(true, pred) == pytest.approx(10.0)

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ModelError):
            median_absolute_percentage_error(
                np.array([0.0, 1.0]), np.array([1.0, 1.0])
            )

    def test_median_robust_to_outlier(self):
        true = np.full(5, 100.0)
        pred = np.array([101.0, 102.0, 103.0, 104.0, 10_000.0])
        assert median_absolute_percentage_error(true, pred) == pytest.approx(3.0)


class TestFractionNonIncreasing:
    def test_all_decreasing(self):
        curves = [np.array([3.0, 2.0, 1.0]), np.array([5.0, 5.0, 4.0])]
        assert fraction_non_increasing(curves) == 1.0

    def test_mixed(self):
        curves = [np.array([3.0, 2.0]), np.array([1.0, 2.0])]
        assert fraction_non_increasing(curves) == 0.5

    def test_tolerance(self):
        curves = [np.array([100.0, 105.0])]  # 5% increase
        assert fraction_non_increasing(curves) == 0.0
        assert fraction_non_increasing(curves, tolerance=0.10) == 1.0

    def test_single_point_curve_counts(self):
        assert fraction_non_increasing([np.array([1.0])]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ModelError):
            fraction_non_increasing([])
