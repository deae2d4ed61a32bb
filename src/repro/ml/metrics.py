"""Evaluation metrics used throughout Section 5."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError

__all__ = ["median_absolute_percentage_error", "fraction_non_increasing"]


def median_absolute_percentage_error(
    y_true: np.ndarray, y_pred: np.ndarray
) -> float:
    """Median of ``|pred - true| / true`` in percent (the "Median AE")."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ModelError("prediction and target shapes differ")
    if y_true.size == 0:
        raise ModelError("cannot compute a metric over zero samples")
    if np.any(y_true <= 0):
        raise ModelError("percentage errors require positive targets")
    return float(np.median(np.abs(y_pred - y_true) / y_true) * 100.0)


def fraction_non_increasing(curves: list[np.ndarray], tolerance: float = 0.0) -> float:
    """Share of predicted PCCs that are monotonically non-increasing.

    Each curve is a run-time vector over an increasing token grid. A curve
    counts as non-increasing when every successive step decreases or
    increases by at most ``tolerance`` (fractional; Section 5.1 uses 10%
    for the flighted ground truth, 0 for model predictions).
    """
    if not curves:
        raise ModelError("no curves given")
    good = 0
    for curve in curves:
        values = np.asarray(curve, dtype=float)
        if values.size < 2:
            good += 1
            continue
        ratios = values[1:] / values[:-1]
        if np.all(ratios <= 1.0 + tolerance):
            good += 1
    return good / len(curves)
