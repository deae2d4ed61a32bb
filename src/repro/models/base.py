"""Common interface of the TASQ prediction models (Section 4.4).

All models answer the same two questions for an unseen job:

* **point prediction** — expected run time at a specific token count,
* **trend prediction** — the run-time curve over a token range.

Trend models (NN, GNN, XGBoost PL) expose the fitted/predicted power-law
parameters; XGBoost SS is non-parametric and only produces curves.

Models additionally share an *uncertainty* surface —
:meth:`PCCPredictor.predict_interval` (q10/q50/q90 run times at a token
count) and :meth:`PCCPredictor.predict_pcc_intervals` (whole
:class:`~repro.pcc.intervals.PCCInterval` curves). The base
implementations return degenerate intervals collapsed onto the point
prediction, so every model participates in interval-consuming paths;
models that actually quantify uncertainty (quantile-head XGBoost,
ensembled NN) override them and report ``supports_intervals = True``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import NotFittedError
from repro.models.dataset import PCCDataset
from repro.pcc.curve import PowerLawPCC
from repro.pcc.intervals import PCCInterval

__all__ = ["PCCPredictor"]


class PCCPredictor(ABC):
    """Base class for the four Section 5 models."""

    #: Model label used in evaluation tables.
    name: str = "model"
    #: True when the model guarantees non-increasing predicted PCCs.
    guarantees_monotonic: bool = False

    def __init__(self) -> None:
        self._fitted = False

    # ------------------------------------------------------------------
    @abstractmethod
    def fit(self, dataset: PCCDataset) -> "PCCPredictor":
        """Train on a featurized dataset; returns self."""

    @abstractmethod
    def predict_runtime_at(
        self, dataset: PCCDataset, tokens: np.ndarray
    ) -> np.ndarray:
        """Point prediction: run time of example ``i`` at ``tokens[i]``."""

    @abstractmethod
    def predict_curves(
        self, dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Trend prediction: run times of example ``i`` over ``grids[i]``."""

    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray | None:
        """``(M, 2)`` predicted ``(a, log b)``, or None if non-parametric."""
        return None

    def predict_pccs(self, dataset: PCCDataset) -> list[PowerLawPCC] | None:
        """Predicted power-law PCC per example (None if non-parametric)."""
        parameters = self.predict_parameters(dataset)
        if parameters is None:
            return None
        return [
            PowerLawPCC.from_log_parameters(a, log_b) for a, log_b in parameters
        ]

    # ------------------------------------------------------------------
    @property
    def supports_intervals(self) -> bool:
        """True when the model produces real (non-degenerate) intervals."""
        return False

    def predict_interval(
        self, dataset: PCCDataset, tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, mid, hi)`` predicted run times of example ``i`` at
        ``tokens[i]`` — the q10/q50/q90 of the run-time distribution.

        The default collapses onto the point prediction (zero-width
        intervals), so point-only models remain drop-in everywhere
        intervals are consumed.
        """
        point = self.predict_runtime_at(dataset, tokens)
        return point, point, point

    def predict_pcc_intervals(
        self, dataset: PCCDataset
    ) -> list[PCCInterval] | None:
        """Predicted :class:`~repro.pcc.intervals.PCCInterval` per
        example (None if non-parametric); degenerate by default."""
        pccs = self.predict_pccs(dataset)
        if pccs is None:
            return None
        return [PCCInterval.degenerate(pcc) for pcc in pccs]

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{self.name} used before fit")

    def num_parameters(self) -> int:
        """Trainable scalar parameter count (Table 7); 0 if inapplicable."""
        return 0
