"""Fine-grained (per-group) models versus the global model (Section 4.2).

The paper considers two learning granularities: one *global* model for
all incoming jobs, or *fine-grained* models trained per group of similar
(recurring) jobs. It chooses the global model because fine-grained
coverage is limited to signatures seen in training, while token
allocation must be predicted for ad-hoc jobs too.

:class:`FineGrainedPCCModel` implements the alternative so the trade-off
can be measured: it partitions the training set by structural signature,
fits one base model per sufficiently large group, and reports which test
jobs it can / cannot cover.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import ModelError
from repro.models.base import PCCPredictor, power_law_runtimes
from repro.models.dataset import PCCDataset
from repro.scope.signatures import plan_signature

__all__ = ["FineGrainedPCCModel"]


class FineGrainedPCCModel(PCCPredictor):
    """One base model per job-signature group.

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh, unfitted base model
        (e.g. ``lambda: NNPCCModel(...)``).
    min_group_size:
        Groups smaller than this are not trained (too little data).

    Notes
    -----
    Prediction APIs raise :class:`ModelError` when asked about jobs whose
    signature has no model; use :meth:`coverage` / :meth:`covered_mask`
    first. This mirrors the paper's point: the fine-grained approach
    simply cannot answer for ad-hoc jobs.
    """

    name = "Fine-grained"
    guarantees_monotonic = True  # inherits from the base models used here

    def __init__(
        self,
        model_factory: Callable[[], PCCPredictor],
        min_group_size: int = 5,
    ) -> None:
        super().__init__()
        if min_group_size < 2:
            raise ModelError("min_group_size must be at least 2")
        self.model_factory = model_factory
        self.min_group_size = min_group_size
        self._models: dict[str, PCCPredictor] = {}
        self.num_uncovered_training_jobs_ = 0

    # ------------------------------------------------------------------
    def fit(
        self, dataset: PCCDataset, plans: list | None = None
    ) -> "FineGrainedPCCModel":
        """Fit one base model per signature group.

        ``plans`` must align with ``dataset`` (one plan per example).
        """
        if plans is None or len(plans) != len(dataset):
            raise ModelError("fine-grained fit needs one plan per example")
        signatures = [plan_signature(plan) for plan in plans]

        groups: dict[str, list[int]] = {}
        for index, signature in enumerate(signatures):
            groups.setdefault(signature, []).append(index)

        self._models = {}
        uncovered = 0
        for signature, indices in groups.items():
            if len(indices) < self.min_group_size:
                uncovered += len(indices)
                continue
            subset = PCCDataset(
                examples=[dataset.examples[i] for i in indices]
            )
            model = self.model_factory()
            model.fit(subset)
            self._models[signature] = model
        self.num_uncovered_training_jobs_ = uncovered
        if not self._models:
            raise ModelError(
                "no signature group reached min_group_size; "
                "use the global model instead"
            )
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        self._check_fitted()
        return len(self._models)

    def covered_mask(self, plans: list) -> np.ndarray:
        """Boolean mask of jobs whose signature has a trained model."""
        self._check_fitted()
        return np.array(
            [plan_signature(plan) in self._models for plan in plans]
        )

    def coverage(self, plans: list) -> float:
        """Fraction of the given jobs this model can answer for."""
        mask = self.covered_mask(plans)
        return float(mask.mean())

    def _route(
        self, dataset: PCCDataset, plans: list
    ) -> list[tuple[PCCPredictor, list[int]]]:
        """Group example indices by the model that owns their signature."""
        if len(plans) != len(dataset):
            raise ModelError("one plan per example is required")
        routes: dict[str, list[int]] = {}
        for index, plan in enumerate(plans):
            signature = plan_signature(plan)
            if signature not in self._models:
                raise ModelError(
                    f"job {plan.job_id} is uncovered (signature "
                    f"{signature}); fine-grained models cannot score "
                    "ad-hoc jobs"
                )
            routes.setdefault(signature, []).append(index)
        return [
            (self._models[signature], indices)
            for signature, indices in routes.items()
        ]

    # ------------------------------------------------------------------
    def predict_parameters_routed(
        self, dataset: PCCDataset, plans: list
    ) -> np.ndarray:
        """``(M, 2)`` parameters, each job scored by its group's model."""
        self._check_fitted()
        output = np.zeros((len(dataset), 2))
        for model, indices in self._route(dataset, plans):
            subset = PCCDataset(
                examples=[dataset.examples[i] for i in indices]
            )
            parameters = model.predict_parameters(subset)
            if parameters is None:
                raise ModelError("base model must be parametric")
            output[indices] = parameters
        return output

    def predict_runtime_at_routed(
        self, dataset: PCCDataset, tokens: np.ndarray, plans: list
    ) -> np.ndarray:
        return power_law_runtimes(
            self.predict_parameters_routed(dataset, plans), tokens
        )

    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray:
        """Not answerable without plans: prediction is signature-routed.

        The plan-less curve, PCC and run-time methods of
        :class:`PCCPredictor` all read this, so each raises the same
        :class:`ModelError`.
        """
        self._check_fitted()
        raise ModelError(
            "fine-grained models route by plan signature: use "
            "predict_parameters_routed(dataset, plans) or "
            "predict_runtime_at_routed(dataset, tokens, plans)"
        )
