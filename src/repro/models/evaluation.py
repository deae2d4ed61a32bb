"""Model evaluation: the three Section 5 metrics.

For each model the paper reports (Tables 4-6 and 8):

1. **Pattern** — share of predicted PCCs that are monotonically
   non-increasing. For XGBoost SS this is checked point-wise within
   +/-40% of the reference token count; for the parametric models it is
   the sign test on the fitted/predicted curve parameters.
2. **MAE (curve params)** — mean absolute error of the predicted
   ``(a, log b)`` against the targets, in the scaled space where each
   parameter is normalised by its mean absolute target value.
3. **Median AE (run time)** — median absolute percentage error of the
   run-time prediction at each job's reference token count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.ml.metrics import (
    fraction_non_increasing,
    median_absolute_percentage_error,
)
from repro.models.base import PCCPredictor
from repro.models.dataset import PCCDataset
from repro.models.xgboost_models import reference_window

__all__ = ["ModelEvaluation", "evaluate_model", "evaluation_table"]


@dataclass(frozen=True)
class ModelEvaluation:
    """One row of a Table 4-6/8 style comparison."""

    model: str
    pattern_non_increasing: float
    curve_param_mae: float | None
    runtime_median_ape: float

    def as_row(self) -> str:
        mae = "NA" if self.curve_param_mae is None else f"{self.curve_param_mae:.3f}"
        return (
            f"{self.model:<12} {self.pattern_non_increasing * 100:5.0f}% "
            f"{mae:>8} {self.runtime_median_ape:8.0f}%"
        )


def evaluate_model(
    model: PCCPredictor,
    dataset: PCCDataset,
    true_runtimes: np.ndarray | None = None,
) -> ModelEvaluation:
    """Compute the three metrics for one fitted model.

    ``true_runtimes`` overrides the dataset's observed run times as the
    point-prediction ground truth (used for flighted evaluations); by
    default the observed run time at the reference allocation is used.
    """
    if len(dataset) == 0:
        raise ModelError("cannot evaluate on an empty dataset")
    references = dataset.observed_tokens()
    if true_runtimes is None:
        true_runtimes = dataset.observed_runtimes()

    # --- metric 3: point prediction error at the reference tokens -------
    predicted_runtime = model.predict_runtime_at(dataset, references)
    runtime_ape = median_absolute_percentage_error(
        true_runtimes, predicted_runtime
    )
    pattern, curve_mae = trend_metrics(model, dataset)
    return ModelEvaluation(
        model=model.name,
        pattern_non_increasing=pattern,
        curve_param_mae=curve_mae,
        runtime_median_ape=runtime_ape,
    )


def trend_metrics(
    model: PCCPredictor, dataset: PCCDataset
) -> tuple[float, float | None]:
    """Metrics 1-2: the non-increasing share and the curve-parameter MAE.

    The MAE is None for a non-parametric model (XGBoost SS).
    """
    predicted_params = model.predict_parameters(dataset)
    if predicted_params is None:
        # Non-parametric: point-wise check near the reference.
        grids = [reference_window(ref) for ref in dataset.observed_tokens()]
        curves = model.predict_curves(dataset, grids)
        return fraction_non_increasing(curves), None
    # Parametric model: pattern is the sign test, MAE in scaled space.
    targets = dataset.target_matrix()
    scale = np.abs(targets).mean(axis=0)
    scale[scale == 0] = 1.0
    return (
        float(np.mean(predicted_params[:, 0] <= 0)),
        float(np.abs((predicted_params - targets) / scale).mean()),
    )


def evaluation_table(evaluations: list[ModelEvaluation]) -> str:
    """Render evaluations as a Table 4-6 style text table."""
    header = (
        f"{'Model':<12} {'Pattern':>6} {'MAE(prm)':>8} {'MedAE(rt)':>9}"
    )
    lines = [header, "-" * len(header)]
    lines.extend(e.as_row() for e in evaluations)
    return "\n".join(lines)
