"""Newton gradient boosting over histogram trees (the XGBoost stand-in)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.ml import compiled as compiled_kernels
from repro.ml.compiled import FlattenedForest
from repro.ml.gbm.objectives import (
    GammaDeviance,
    Objective,
    PinballLoss,
    SquaredError,
)
from repro.ml.gbm.tree import BinMapper, RegressionTree, TreeParams

__all__ = ["BoosterParams", "GradientBoostingRegressor"]


@dataclass(frozen=True)
class BoosterParams:
    """Booster hyper-parameters (XGBoost naming)."""

    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    max_bins: int = 64
    early_stopping_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ModelError("n_estimators must be positive")
        if not 0 < self.learning_rate <= 1:
            raise ModelError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1 or not 0 < self.colsample <= 1:
            raise ModelError("subsample/colsample must be in (0, 1]")


class GradientBoostingRegressor:
    """Second-order gradient boosting with a pluggable objective.

    ``objective`` accepts ``"gamma"`` (the paper's choice for run-time
    regression — positive, right-skewed targets), ``"squared_error"``,
    ``"pinball"`` (median regression; pass a
    :class:`~repro.ml.gbm.objectives.PinballLoss` instance for other
    quantiles), or any :class:`Objective` instance.
    """

    def __init__(
        self,
        params: BoosterParams | None = None,
        objective: str | Objective = "gamma",
        seed: int = 0,
    ) -> None:
        self.params = params or BoosterParams()
        if isinstance(objective, Objective):
            self.objective = objective
        elif objective == "gamma":
            self.objective = GammaDeviance()
        elif objective == "squared_error":
            self.objective = SquaredError()
        elif objective == "pinball":
            self.objective = PinballLoss(0.5)
        else:
            raise ModelError(f"unknown objective: {objective!r}")
        self._seed = seed
        self._trees: list[RegressionTree] = []
        self._mapper: BinMapper | None = None
        self._base_score = 0.0
        #: Flattened branchless kernel that inference routes through
        #: (bit-identical to the reference traversal); built on first
        #: predict, dropped on refit.
        self._compiled: FlattenedForest | None = None
        self.train_scores_: list[float] = []
        self.valid_scores_: list[float] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostingRegressor":
        """Fit the booster; optionally track a validation set.

        With ``early_stopping_rounds`` set and an ``eval_set`` given,
        training stops once the validation MAE has not improved for that
        many rounds and the tree list is truncated to the best round.
        """
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise ModelError("features/targets shape mismatch")
        self.objective.validate_targets(targets)

        params = self.params
        rng = np.random.default_rng(self._seed)
        self._mapper = BinMapper(params.max_bins)
        binned = self._mapper.fit_transform(features)
        n_samples, n_features = binned.shape

        self._base_score = self.objective.base_score(targets)
        raw = np.full(n_samples, self._base_score)
        self._trees = []
        self._compiled = None  # refit invalidates the flattened kernel
        self.train_scores_ = []
        self.valid_scores_ = []

        if eval_set is not None:
            valid_binned = self._mapper.transform(np.asarray(eval_set[0], dtype=float))
            valid_targets = np.asarray(eval_set[1], dtype=float)
            valid_raw = np.full(valid_targets.shape[0], self._base_score)
        best_round = -1
        best_score = np.inf

        tree_params = TreeParams(
            max_depth=params.max_depth,
            min_child_weight=params.min_child_weight,
            reg_lambda=params.reg_lambda,
            gamma=params.gamma,
        )

        for round_index in range(params.n_estimators):
            grad, hess = self.objective.gradients(targets, raw)

            if params.subsample < 1.0:
                keep = rng.random(n_samples) < params.subsample
                if not np.any(keep):
                    keep[rng.integers(n_samples)] = True
                grad = np.where(keep, grad, 0.0)
                hess = np.where(keep, hess, 0.0)

            if params.colsample < 1.0:
                k = max(1, int(round(params.colsample * n_features)))
                feature_indices = np.sort(
                    rng.choice(n_features, size=k, replace=False)
                )
            else:
                feature_indices = None

            tree = RegressionTree(tree_params)
            tree.fit(binned, grad, hess, feature_indices, num_bins=params.max_bins)
            self._trees.append(tree)
            raw = raw + params.learning_rate * tree.predict(binned)

            train_mae = float(
                np.abs(self.objective.predict(raw) - targets).mean()
            )
            self.train_scores_.append(train_mae)

            if eval_set is not None:
                valid_raw = valid_raw + params.learning_rate * tree.predict(
                    valid_binned
                )
                valid_mae = float(
                    np.abs(self.objective.predict(valid_raw) - valid_targets).mean()
                )
                self.valid_scores_.append(valid_mae)
                if valid_mae < best_score - 1e-12:
                    best_score = valid_mae
                    best_round = round_index
                elif (
                    params.early_stopping_rounds is not None
                    and round_index - best_round >= params.early_stopping_rounds
                ):
                    self._trees = self._trees[: best_round + 1]
                    break
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
