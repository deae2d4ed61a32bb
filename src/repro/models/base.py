"""Common interface of the TASQ prediction models (Section 4.4).

All models answer the same two questions for an unseen job:

* **point prediction** — expected run time at a specific token count,
* **trend prediction** — the run-time curve over a token range.

Trend models (NN, GNN, XGBoost PL) predict the power-law parameters
``(a, log b)`` of each job's PCC; :class:`PCCPredictor` turns them into
run times, curves, PCCs and intervals (``runtime = b·Aᵃ``), so a model
only says how it fits and how it predicts parameters. XGBoost SS is
non-parametric (its ``predict_parameters`` is None) and overrides the
run-time and curve methods instead.

Uncertainty is read through :meth:`PCCPredictor.predict_pcc_intervals`
(whole :class:`~repro.pcc.intervals.PCCInterval` curves). The base
implementation collapses each interval onto the point prediction, so
every parametric model participates in interval-consuming paths;
quantile-head XGBoost PL and the ensembled NN override it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.models.dataset import PCCDataset
from repro.pcc.curve import PowerLawPCC
from repro.pcc.intervals import PCCInterval

__all__ = ["PCCPredictor", "check_tokens", "power_law", "power_law_runtimes"]


def check_tokens(tokens: np.ndarray) -> np.ndarray:
    """``tokens`` as floats; :class:`ModelError` unless all are in (0, inf)."""
    tokens = np.asarray(tokens, dtype=float)
    if not np.all((tokens > 0) & (tokens < np.inf)):
        raise ModelError("token counts must be positive and finite")
    return tokens


def power_law(
    a: float | np.ndarray, log_b: float | np.ndarray, tokens: np.ndarray
) -> np.ndarray:
    """Run times ``b·Aᵃ`` at float ``tokens`` from ``a`` and ``log b``.

    The one place the models evaluate the law; ``a`` and ``log_b`` are
    scalars or arrays that broadcast against ``tokens``.
    """
    return np.exp(log_b + a * np.log(tokens))


def power_law_runtimes(
    parameters: np.ndarray, tokens: np.ndarray
) -> np.ndarray:
    """Run time of row ``i`` of ``(a, log b)`` at ``tokens[i]``."""
    return power_law(parameters[:, 0], parameters[:, 1], check_tokens(tokens))


class PCCPredictor(ABC):
    """Base class for the four Section 5 models."""

    #: Model label used in evaluation tables.
    name: str = "model"
    #: True when the model guarantees non-increasing predicted PCCs.
    guarantees_monotonic: bool = False
    #: True when the model reads each example's operator graph
    #: (``PCCExample.graph``); the others read only the job vector, so
    #: scoring for them skips building graph samples.
    reads_graph: bool = False

    def __init__(self) -> None:
        self._fitted = False

    # ------------------------------------------------------------------
    @abstractmethod
    def fit(self, dataset: PCCDataset) -> "PCCPredictor":
        """Train on a featurized dataset; returns self."""

    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray | None:
        """``(M, 2)`` predicted ``(a, log b)``, or None if non-parametric."""
        return None

    def predict_runtime_at(
        self, dataset: PCCDataset, tokens: np.ndarray
    ) -> np.ndarray:
        """Point prediction: run time of example ``i`` at ``tokens[i]``."""
        return power_law_runtimes(self.predict_parameters(dataset), tokens)

    def predict_curves(
        self, dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Trend prediction: run times of example ``i`` over ``grids[i]``."""
        grids = self._check_grids(dataset, grids)
        parameters = self.predict_parameters(dataset)
        return [
            power_law(a, log_b, grid)
            for (a, log_b), grid in zip(parameters, grids)
        ]

    def predict_pccs(self, dataset: PCCDataset) -> list[PowerLawPCC] | None:
        """Predicted power-law PCC per example (None if non-parametric)."""
        parameters = self.predict_parameters(dataset)
        if parameters is None:
            return None
        return [
            PowerLawPCC.from_log_parameters(a, log_b) for a, log_b in parameters
        ]

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

    @staticmethod
    def _check_grids(
        dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        """``grids`` as float arrays, one per example, each token checked."""
        if len(grids) != len(dataset):
            raise ModelError("one grid per example is required")
        return [check_tokens(grid) for grid in grids]

    def num_parameters(self) -> int:
        """Trainable scalar parameter count (Table 7); 0 if inapplicable."""
        return 0
