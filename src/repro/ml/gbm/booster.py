"""Newton gradient boosting over histogram trees (the XGBoost stand-in)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.ml import compiled as compiled_kernels
from repro.ml.compiled import FlattenedForest
from repro.ml.gbm.objectives import GammaDeviance, Objective
from repro.ml.gbm.tree import BinMapper, HistogramLayout, RegressionTree

__all__ = ["BoosterParams", "GradientBoostingRegressor"]


@dataclass(frozen=True)
class BoosterParams:
    """Booster hyper-parameters (XGBoost naming).

    The trees' regularisation and binning are the constants of
    :mod:`repro.ml.gbm.tree`.
    """

    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int = 6
    subsample: float = 1.0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ModelError("n_estimators must be positive")
        if not 0 < self.learning_rate <= 1:
            raise ModelError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1:
            raise ModelError("subsample must be in (0, 1]")


class GradientBoostingRegressor:
    """Second-order gradient boosting with a pluggable objective.

    ``objective`` defaults to :class:`~repro.ml.gbm.objectives.GammaDeviance`
    (the paper's choice for run-time regression — positive, right-skewed
    targets); the quantile heads pass a
    :class:`~repro.ml.gbm.objectives.PinballLoss`.
    """

    def __init__(
        self,
        params: BoosterParams | None = None,
        objective: Objective | None = None,
        seed: int = 0,
    ) -> None:
        if objective is not None and not isinstance(objective, Objective):
            raise ModelError(f"unknown objective: {objective!r}")
        self.params = params or BoosterParams()
        self.objective = GammaDeviance() if objective is None else objective
        self._seed = seed
        self._trees: list[RegressionTree] = []
        self._mapper: BinMapper | None = None
        self._base_score = 0.0
        #: Flattened branchless kernel that inference routes through
        #: (bit-identical to the reference traversal); built on first
        #: predict, dropped on refit.
        self._compiled: FlattenedForest | None = None

    # ------------------------------------------------------------------
    def fit(
        self, features: np.ndarray, targets: np.ndarray
    ) -> "GradientBoostingRegressor":
        """Fit ``n_estimators`` trees, each on a ``subsample`` of rows."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise ModelError("features/targets shape mismatch")
        self.objective.validate_targets(targets)

        params = self.params
        rng = np.random.default_rng(self._seed)
        self._mapper = BinMapper()
        binned = self._mapper.fit_transform(features)
        n_samples = binned.shape[0]

        self._base_score = self.objective.base_score(targets)
        raw = np.full(n_samples, self._base_score)
        self._trees = []
        self._compiled = None  # refit invalidates the flattened kernel
        layout = HistogramLayout(binned)

        for _ in range(params.n_estimators):
            grad, hess = self.objective.gradients(targets, raw)

            if params.subsample < 1.0:
                keep = rng.random(n_samples) < params.subsample
                if not np.any(keep):
                    keep[rng.integers(n_samples)] = True
                grad = np.where(keep, grad, 0.0)
                hess = np.where(keep, hess, 0.0)

            # Each training row's leaf value is what predict(binned) reads.
            tree = RegressionTree(params.max_depth)
            leaf_values = tree.fit_predict(binned, grad, hess, layout)
            self._trees.append(tree)
            raw = raw + params.learning_rate * leaf_values
        return self

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict on the response scale (e.g. seconds for run times)."""
        return self.objective.predict(self.predict_raw(features))

    def predict_raw(self, features: np.ndarray) -> np.ndarray:
        """Predict raw scores (log space for the gamma objective).

        Routed through the flattened
        :class:`~repro.ml.compiled.FlattenedForest` kernel (compiled
        lazily on first predict, dropped on refit), which bins inside
        its traversal blocks, unless compiled inference is disabled;
        both paths are bit-identical.
        """
        if self._mapper is None or not self._trees:
            raise NotFittedError("booster used before fit")
        features = np.asarray(features, dtype=float)
        if compiled_kernels.is_enabled():
            return self.compiled_forest().predict_raw(features, self._base_score)
        return self._predict_raw_binned_reference(self._mapper.transform(features))

    def _predict_raw_binned_reference(self, binned: np.ndarray) -> np.ndarray:
        raw = np.full(binned.shape[0], self._base_score)
        for tree in self._trees:
            raw = raw + self.params.learning_rate * tree.predict(binned)
        return raw

    def compiled_forest(self) -> FlattenedForest:
        """The lazily built flattened ensemble (compiles on first use)."""
        if self._mapper is None or not self._trees:
            raise NotFittedError("booster used before fit")
        if self._compiled is None:
            self._compiled = FlattenedForest.from_trees(
                [tree.flat_arrays() for tree in self._trees],
                self.params.learning_rate,
                self._mapper.bin_edges_,
            )
        return self._compiled

    @property
    def num_trees(self) -> int:
        return len(self._trees)
