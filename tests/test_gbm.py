"""Unit tests for the gradient-boosting stand-in (trees + booster)."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import ModelError, NotFittedError
from repro.ml.gbm import (
    BinMapper,
    BoosterParams,
    GammaDeviance,
    GradientBoostingRegressor,
    PinballLoss,
    RegressionTree,
)
from repro.ml.gbm.tree import MAX_BINS
from repro.models.xgboost_models import (
    QUANTILE_HEAD_PARAMS,
    XGBoostRuntimeModel,
)


class TestBinMapper:
    def test_bins_monotone_with_values(self, rng):
        values = rng.uniform(0, 100, size=(500, 1))
        binned = BinMapper().fit_transform(values)
        order = np.argsort(values[:, 0])
        assert np.all(np.diff(binned[order, 0].astype(int)) >= 0)
        assert binned.max() == MAX_BINS - 1

    def test_low_cardinality_column_gets_exact_bins(self):
        values = np.array([[0.0], [1.0], [2.0], [1.0]])
        binned = BinMapper().fit_transform(values)
        assert len(np.unique(binned)) == 3

    def test_constant_column(self):
        values = np.full((10, 1), 7.0)
        binned = BinMapper().fit_transform(values)
        assert np.all(binned == 0)

    def test_transform_before_fit(self):
        with pytest.raises(ModelError):
            BinMapper().transform(np.ones((2, 2)))

    def test_unseen_values_clamp_to_edges(self, rng):
        train = rng.uniform(0, 1, size=(100, 1))
        mapper = BinMapper().fit(train)
        out = mapper.transform(np.array([[-5.0], [5.0]]))
        assert out[0, 0] == 0
        assert out[1, 0] == out.max()


class TestObjectives:
    def test_gamma_gradient_zero_at_optimum(self):
        obj = GammaDeviance()
        y = np.array([10.0, 20.0])
        raw = np.log(y)
        grad, hess = obj.gradients(y, raw)
        assert np.allclose(grad, 0.0)
        assert np.allclose(hess, 1.0)

    def test_gamma_rejects_nonpositive_targets(self):
        with pytest.raises(ModelError):
            GammaDeviance().base_score(np.array([1.0, 0.0]))

    def test_gamma_predict_is_exp(self):
        obj = GammaDeviance()
        assert obj.predict(np.array([0.0]))[0] == pytest.approx(1.0)


class TestRegressionTree:
    def test_single_split_recovers_step_function(self):
        features = np.arange(100, dtype=float).reshape(-1, 1)
        targets = np.where(features[:, 0] < 50, 1.0, 5.0)
        binned = BinMapper().fit_transform(features)
        grad = (0.0 - targets)  # squared-error grad at raw=0
        hess = np.ones(100)
        tree = RegressionTree(max_depth=1).fit(binned, grad, hess)
        predictions = tree.predict(binned)
        # Leaf weight -G / (H + lambda) with lambda = 1 over 50 rows each.
        assert predictions[0] == pytest.approx(50 / 51)
        assert predictions[-1] == pytest.approx(250 / 51)
        assert tree.num_leaves == 2

    def test_depth_zero_like_leaf_only(self):
        binned = np.zeros((10, 1), dtype=np.uint8)
        tree = RegressionTree(max_depth=1)
        tree.fit(binned, np.ones(10), np.ones(10))
        # Constant feature: no split possible -> single leaf.
        assert tree.num_leaves == 1

    def test_min_child_weight_respected(self):
        features = np.arange(10, dtype=float).reshape(-1, 1)
        targets = np.where(features[:, 0] < 1, 100.0, 0.0)  # 1-sample split
        binned = BinMapper().fit_transform(features)
        # Hessian 0.4 per row: a child needs three rows to reach 1.0.
        tree = RegressionTree(max_depth=3)
        tree.fit(binned, -targets, np.full(10, 0.4))
        leaves = tree.predict(binned)
        values, counts = np.unique(leaves, return_counts=True)
        assert tree.num_leaves > 1
        assert counts.min() >= 3

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            RegressionTree(max_depth=6).predict(np.zeros((1, 1), dtype=np.uint8))


class TestBooster:
    def test_learns_linear_function(self, rng):
        features = rng.uniform(0, 10, size=(1500, 4))
        targets = 2.0 * features[:, 0] + features[:, 1] + 5.0
        model = GradientBoostingRegressor(
            BoosterParams(n_estimators=80, max_depth=4)
        )
        model.fit(features, targets)
        predictions = model.predict(features)
        mae = np.abs(predictions - targets).mean()
        assert mae < 0.5

    def test_gamma_objective_positive_predictions(self, rng):
        features = rng.uniform(0, 10, size=(800, 3))
        targets = np.exp(0.3 * features[:, 0]) + 1.0
        model = GradientBoostingRegressor(
            BoosterParams(n_estimators=50, max_depth=3), GammaDeviance()
        )
        model.fit(features, targets)
        assert np.all(model.predict(features) > 0)

    def test_training_loss_decreases(self, rng):
        features = rng.uniform(0, 10, size=(500, 3))
        targets = features[:, 0] * 3 + 10

        def training_mae(rounds):
            model = GradientBoostingRegressor(BoosterParams(n_estimators=rounds))
            model.fit(features, targets)
            return np.abs(model.predict(features) - targets).mean()

        assert training_mae(30) < training_mae(1)

    def test_subsample(self, rng):
        features = rng.uniform(0, 10, size=(300, 5))
        targets = features[:, 0] + 2.0
        model = GradientBoostingRegressor(
            BoosterParams(n_estimators=20, subsample=0.7), seed=1
        )
        model.fit(features, targets)
        assert np.abs(model.predict(features) - targets).mean() < 1.0

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            GradientBoostingRegressor().predict(np.ones((2, 2)))

    def test_unknown_objective(self):
        # Objectives are instances; names and classes are rejected.
        for objective in ("gamma", GammaDeviance):
            with pytest.raises(ModelError):
                GradientBoostingRegressor(objective=objective)

    def test_deterministic_given_seed(self, rng):
        features = rng.uniform(0, 10, size=(300, 3))
        targets = features[:, 0] + 1.0
        params = BoosterParams(n_estimators=10, subsample=0.8)
        a = GradientBoostingRegressor(params, seed=5).fit(features, targets)
        b = GradientBoostingRegressor(params, seed=5).fit(features, targets)
        assert np.allclose(a.predict(features), b.predict(features))

    def test_param_validation(self):
        with pytest.raises(ModelError):
            BoosterParams(n_estimators=0)
        with pytest.raises(ModelError):
            BoosterParams(learning_rate=0)
        with pytest.raises(ModelError):
            BoosterParams(subsample=0)


#: Pinned seeded fits: (params, objective, seed, sha256 of every tree's
#: node arrays). Any change to binning, histogram construction, split
#: gain or tie-breaking moves a hash; update only when tree semantics are
#: meant to change.
SPLIT_SEARCH_PINS = {
    "gamma_booster": (
        XGBoostRuntimeModel().booster_params,
        GammaDeviance(),
        0,
        "98c3a6a4ee95879623d63b17a2e340bdd753b7b7b3bbb5791b13559b5d792886",
    ),
    "pinball_head": (
        QUANTILE_HEAD_PARAMS,
        PinballLoss(0.1),
        101,
        "782dccb8cfd8aac488e7842fe4ae95ae64234ac5a9486d78a5ae39c1fe037176",
    ),
    "row_sampling": (
        BoosterParams(n_estimators=40, subsample=0.8),
        GammaDeviance(),
        3,
        "d433164ee2d7b61b1e5ae9e344bb4fef230738944bc5ccbd99ccef7dcdd5e640",
    ),
}


class TestSplitSearchPin:
    @staticmethod
    def _rows():
        rng = np.random.default_rng(2022)
        features = rng.uniform(0.0, 10.0, size=(400, 6))
        features[:, 5] = rng.integers(0, 4, size=400)  # exact-midpoint bins
        targets = np.exp(
            0.2 * features[:, 0] - 0.1 * features[:, 1]
        ) * rng.gamma(4.0, 0.25, size=400)
        return features, targets

    @pytest.mark.parametrize("name", sorted(SPLIT_SEARCH_PINS))
    def test_trees_match_pinned_hash(self, name):
        params, objective, seed, expected = SPLIT_SEARCH_PINS[name]
        booster = GradientBoostingRegressor(
            params, objective=objective, seed=seed
        ).fit(*self._rows())
        digest = hashlib.sha256()
        for tree in booster._trees:
            for array in tree.flat_arrays():
                digest.update(array.tobytes())
        assert digest.hexdigest() == expected
