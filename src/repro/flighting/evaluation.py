"""Model accuracy on flighted ground truth and workload-level savings.

Implements the Section 5.4 analyses:

* **Table 8** — the three model metrics evaluated against flighted ground
  truth at *multiple* token counts per job (not AREPAS proxies).
* **W1/W2 workloads** — token savings versus run-time slowdown trade-offs
  against always-use-the-largest-allocation baselines, plus the
  model-predicted slowdown for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FlightingError
from repro.flighting.dataset import FlightedDataset
from repro.ml.metrics import median_absolute_percentage_error
from repro.models.base import PCCPredictor
from repro.models.evaluation import ModelEvaluation, trend_metrics

__all__ = ["evaluate_on_flighted", "WorkloadSavings", "workload_savings"]


def evaluate_on_flighted(
    model: PCCPredictor, flighted: FlightedDataset
) -> ModelEvaluation:
    """Table 8 row: model metrics against flighted ground truth."""
    dataset = flighted.to_pcc_dataset()
    example_idx, tokens, true_runtimes = flighted.evaluation_pairs()

    # Point prediction at every flighted token count of every job.
    grids = [
        tokens[example_idx == i] for i in range(len(dataset))
    ]
    curves = model.predict_curves(dataset, grids)
    predicted = np.concatenate(curves)
    runtime_ape = median_absolute_percentage_error(true_runtimes, predicted)

    pattern, curve_mae = trend_metrics(model, dataset)

    return ModelEvaluation(
        model=model.name,
        pattern_non_increasing=pattern,
        curve_param_mae=curve_mae,
        runtime_median_ape=runtime_ape,
    )


@dataclass(frozen=True)
class WorkloadSavings:
    """Token savings vs slowdown of one workload against its baseline."""

    name: str
    workload_tokens: float
    baseline_tokens: float
    workload_runtime: float
    baseline_runtime: float
    predicted_slowdown: float | None = None

    @property
    def token_savings(self) -> float:
        """Fraction of baseline tokens saved."""
        return 1.0 - self.workload_tokens / self.baseline_tokens

    @property
    def slowdown(self) -> float:
        """``new_time / baseline_time - 1`` (the paper's definition)."""
        return self.workload_runtime / self.baseline_runtime - 1.0


def workload_savings(
    flighted: FlightedDataset, model: PCCPredictor | None = None
) -> tuple[WorkloadSavings, WorkloadSavings]:
    """Compute the W1 and W2 trade-offs of Section 5.4.

    * **W1** uses every run of every job at its flighted token count;
      baseline B1 charges each run at the job's largest flighted count.
    * **W2** uses one run per job at the second-largest flighted count;
      baseline B2 charges the largest.

    When ``model`` is given, its PCC predictions produce the predicted
    workload slowdown the paper compares against the actual one.
    """
    if len(flighted) == 0:
        raise FlightingError("flighted dataset is empty")

    predicted_ratio: dict[tuple[int, int], float] = {}
    if model is not None:
        dataset = flighted.to_pcc_dataset()
        example_idx, tokens, _ = flighted.evaluation_pairs()
        grids = [tokens[example_idx == i] for i in range(len(dataset))]
        curves = model.predict_curves(dataset, grids)
        for i, (grid, curve) in enumerate(zip(grids, curves)):
            reference = float(grid.max())
            ref_runtime = float(curve[np.argmax(grid)])
            for level, runtime in zip(grid, curve):
                predicted_ratio[(i, int(level))] = float(runtime) / ref_runtime

    w1_tokens = b1_tokens = w1_time = b1_time = 0.0
    w1_pred_time = b1_pred_time = 0.0
    w2_tokens = b2_tokens = w2_time = b2_time = 0.0
    w2_pred_time = b2_pred_time = 0.0

    for i, job in enumerate(flighted.jobs):
        by_tokens = job.runtime_by_tokens()
        largest = job.reference_tokens
        largest_runtime = by_tokens[largest]

        # --- W1: all flights at their flighted allocations --------------
        for flight in job.flights:
            w1_tokens += flight.tokens
            b1_tokens += largest
            w1_time += flight.runtime
            b1_time += largest_runtime
            if model is not None:
                w1_pred_time += largest_runtime * predicted_ratio[
                    (i, int(flight.tokens))
                ]
                b1_pred_time += largest_runtime

        # --- W2: one run per job at the second-largest allocation -------
        levels = job.token_levels
        second = levels[-2] if len(levels) >= 2 else levels[-1]
        w2_tokens += second
        b2_tokens += largest
        w2_time += by_tokens[second]
        b2_time += largest_runtime
        if model is not None:
            w2_pred_time += largest_runtime * predicted_ratio[(i, int(second))]
            b2_pred_time += largest_runtime

    w1 = WorkloadSavings(
        name="W1",
        workload_tokens=w1_tokens,
        baseline_tokens=b1_tokens,
        workload_runtime=w1_time,
        baseline_runtime=b1_time,
        predicted_slowdown=(
            w1_pred_time / b1_pred_time - 1.0 if model is not None else None
        ),
    )
    w2 = WorkloadSavings(
        name="W2",
        workload_tokens=w2_tokens,
        baseline_tokens=b2_tokens,
        workload_runtime=w2_time,
        baseline_runtime=b2_time,
        predicted_slowdown=(
            w2_pred_time / b2_pred_time - 1.0 if model is not None else None
        ),
    )
    return w1, w2
