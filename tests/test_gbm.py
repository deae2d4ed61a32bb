"""Unit tests for the gradient-boosting stand-in (trees + booster)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError, NotFittedError
from repro.ml.gbm import (
    BinMapper,
    BoosterParams,
    GammaDeviance,
    GradientBoostingRegressor,
    PinballLoss,
    RegressionTree,
)
from repro.ml.gbm.tree import (
    MAX_BINS,
    MIN_CHILD_WEIGHT,
    REG_LAMBDA,
    HistogramLayout,
)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "objective", [GammaDeviance(), PinballLoss(0.1)], ids=["gamma", "pinball"]
    )
    def test_rejects_non_finite_targets(self, objective, bad):
        # Fitted, a NaN target (or +inf under gamma) makes every
        # prediction NaN.
        targets = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(ModelError):
            objective.validate_targets(targets)
        with pytest.raises(ModelError):
            GradientBoostingRegressor(
                BoosterParams(n_estimators=2), objective=objective
            ).fit(np.arange(8.0).reshape(4, 2), targets)


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


class _RecursiveTree:
    """The depth-first grower the level-wise one replaced, verbatim: one
    split search per node over the full ``MAX_BINS`` × feature grid.

    A test-only reference: :class:`RegressionTree` must match it bit for
    bit, node arrays in the same preorder.
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ModelError("max_depth must be at least 1")
        self.max_depth = max_depth
        self._feature: list[int] = []
        self._bin_threshold: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []

    def fit(self, binned, grad, hess):
        if binned.ndim != 2:
            raise ModelError("binned features must be 2-D")
        n_samples, n_features = binned.shape
        if grad.shape != (n_samples,) or hess.shape != (n_samples,):
            raise ModelError("gradient/hessian shapes do not match features")

        # Histogram bucket of every (sample, feature) pair, built once per
        # tree: sample s, feature f lands in bucket bin(s, f) * n_features
        # + f. Each node's split search slices its rows.
        codes = binned.astype(np.int64) * n_features + np.arange(n_features)
        rows = np.arange(n_samples)
        self._grow(binned, codes, grad, hess, rows, depth=0)
        return self

    def _new_node(self) -> int:
        self._feature.append(-1)
        self._bin_threshold.append(-1)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(0.0)
        return len(self._feature) - 1

    def _grow(self, binned, codes, grad, hess, rows, depth):
        node = self._new_node()
        g_total = float(grad[rows].sum())
        h_total = float(hess[rows].sum())

        leaf_value = -g_total / (h_total + REG_LAMBDA)
        if depth >= self.max_depth or rows.size < 2:
            self._value[node] = leaf_value
            return node

        split = self._best_split(codes, grad, hess, rows, g_total, h_total)
        if split is None:
            self._value[node] = leaf_value
            return node

        feature, threshold = split
        mask = binned[rows, feature] <= threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]

        self._feature[node] = int(feature)
        self._bin_threshold[node] = int(threshold)
        left = self._grow(binned, codes, grad, hess, left_rows, depth + 1)
        right = self._grow(binned, codes, grad, hess, right_rows, depth + 1)
        self._left[node] = left
        self._right[node] = right
        return node

    def _best_split(self, codes, grad, hess, rows, g_total, h_total):
        parent_score = g_total**2 / (h_total + REG_LAMBDA)

        node_grad = grad[rows]
        node_hess = hess[rows]
        n_feat = codes.shape[1]

        # One flat bincount over the node's rows of ``codes`` builds the
        # histograms of every feature at once.
        flat = codes[rows].ravel()
        length = MAX_BINS * n_feat
        g_hist = np.bincount(
            flat, weights=np.repeat(node_grad, n_feat), minlength=length
        ).reshape(MAX_BINS, n_feat)
        h_hist = np.bincount(
            flat, weights=np.repeat(node_hess, n_feat), minlength=length
        ).reshape(MAX_BINS, n_feat)
        c_hist = np.bincount(flat, minlength=length).reshape(MAX_BINS, n_feat)

        g_left = np.cumsum(g_hist, axis=0)[:-1]
        h_left = np.cumsum(h_hist, axis=0)[:-1]
        c_left = np.cumsum(c_hist, axis=0)[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        c_right = rows.size - c_left

        valid = (
            (h_left >= MIN_CHILD_WEIGHT)
            & (h_right >= MIN_CHILD_WEIGHT)
            & (c_left > 0)
            & (c_right > 0)
        )
        if not np.any(valid):
            return None
        gains = 0.5 * (
            g_left**2 / (h_left + REG_LAMBDA)
            + g_right**2 / (h_right + REG_LAMBDA)
            - parent_score
        )
        gains = np.where(valid, gains, -np.inf)
        best_bin, best_feature = np.unravel_index(np.argmax(gains), gains.shape)
        if gains[best_bin, best_feature] <= 0.0:
            return None
        return (int(best_feature), int(best_bin))

    def predict(self, binned):
        if not self._value:
            raise ModelError("tree used before fit")
        feature = np.asarray(self._feature)
        threshold = np.asarray(self._bin_threshold)
        left = np.asarray(self._left)
        right = np.asarray(self._right)
        value = np.asarray(self._value)

        nodes = np.zeros(binned.shape[0], dtype=np.int64)
        active = feature[nodes] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            current = nodes[idx]
            go_left = binned[idx, feature[current]] <= threshold[current]
            nodes[idx] = np.where(go_left, left[current], right[current])
            active = feature[nodes] >= 0
        return value[nodes]

    def flat_arrays(self):
        return (
            np.asarray(self._feature, dtype=np.int64),
            np.asarray(self._bin_threshold, dtype=np.int64),
            np.asarray(self._left, dtype=np.int64),
            np.asarray(self._right, dtype=np.int64),
            np.asarray(self._value, dtype=np.float64),
        )


def _same_bits(tree, reference) -> bool:
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(tree.flat_arrays(), reference.flat_arrays())
    )


def _reference_boost(params, objective, seed, features, targets):
    """``GradientBoostingRegressor.fit`` on the recursive grower, with raw
    scores updated by walking each new tree.

    Round by round it also grows the level-wise tree on the same
    gradients and checks that the leaf values it returns are
    ``predict(binned)`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    binned = BinMapper().fit_transform(features)
    layout = HistogramLayout(binned)
    n_samples = binned.shape[0]
    raw = np.full(n_samples, objective.base_score(targets))
    trees = []
    for _ in range(params.n_estimators):
        grad, hess = objective.gradients(targets, raw)
        if params.subsample < 1.0:
            keep = rng.random(n_samples) < params.subsample
            if not np.any(keep):
                keep[rng.integers(n_samples)] = True
            grad = np.where(keep, grad, 0.0)
            hess = np.where(keep, hess, 0.0)
        reference = _RecursiveTree(params.max_depth).fit(binned, grad, hess)
        tree = RegressionTree(params.max_depth)
        leaf_values = tree.fit_predict(binned, grad, hess, layout)
        assert leaf_values.tobytes() == tree.predict(binned).tobytes()
        assert _same_bits(tree, reference)
        trees.append(reference)
        raw = raw + params.learning_rate * reference.predict(binned)
    return trees


_COLUMN_KINDS = (
    "constant", "two_bin", "uniform", "coarse", "non_finite",
    "duplicate", "signal", "coarse_signal",
)


@st.composite
def _boosting_problems(draw):
    """Rows, targets and booster settings that stress split ties.

    ``signal`` is one column of up to 64 quantile bins; ``coarse_signal``
    puts every eight of its bins into one of at most eight bins, so the
    two split the same rows at different bins. Duplicated columns tie
    within a bin count. Pinball gradients at q = 0.5 are multiples of
    0.5, so those ties are exact in floating point.
    """
    n_rows = draw(st.integers(1, 300))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signal = rng.uniform(0.0, 10.0, n_rows)
    signal_bins = BinMapper().fit_transform(signal[:, None])[:, 0]
    columns = []
    for kind in kinds:
        if kind == "constant":
            column = np.full(n_rows, 3.0)
        elif kind == "two_bin":
            column = rng.integers(0, 2, n_rows).astype(float)
        elif kind == "uniform":
            column = rng.uniform(-5.0, 5.0, n_rows)
        elif kind == "coarse":
            column = rng.integers(0, 8, n_rows).astype(float)
        elif kind == "non_finite":
            column = rng.uniform(0.0, 1.0, n_rows)
            hit = rng.random(n_rows) < 0.3
            column[hit] = rng.choice([np.nan, np.inf, -np.inf], hit.sum())
        elif kind == "duplicate" and columns:
            column = columns[draw(st.integers(0, len(columns) - 1))].copy()
        elif kind == "coarse_signal":
            column = (signal_bins // 8).astype(float)
        else:
            column = signal.copy()
        columns.append(column)
    features = np.column_stack(columns)

    step = np.where(signal > 5.0, 1.0, 0.0)
    if draw(st.booleans()):
        step = step + 0.3 * rng.standard_normal(n_rows)
    targets = np.exp(step + 1.0)
    objective = draw(
        st.sampled_from(
            [GammaDeviance(), PinballLoss(0.5), PinballLoss(0.1), PinballLoss(0.9)]
        )
    )
    params = BoosterParams(
        n_estimators=draw(st.integers(1, 4)),
        learning_rate=0.3,
        max_depth=draw(st.integers(1, 7)),
        subsample=draw(st.sampled_from([1.0, 0.8, 0.5])),
    )
    return features, targets, params, objective, draw(st.integers(0, 99))


class TestLevelWiseGrower:
    @given(problem=_boosting_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_recursive_reference(self, problem):
        features, targets, params, objective, seed = problem
        # Binning a column that holds both infinities interpolates
        # inf - inf between its quantiles.
        with np.errstate(invalid="ignore"):
            booster = GradientBoostingRegressor(
                params, objective=objective, seed=seed
            ).fit(features, targets)
            reference = _reference_boost(
                params, objective, seed, features, targets
            )
        assert len(booster._trees) == len(reference)
        for tree, expected in zip(booster._trees, reference):
            assert _same_bits(tree, expected)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 200),
        n_features=st.integers(1, 6),
        distinct_rows=st.sampled_from([1, 2, 3, 5, 8, 200]),
        scale=st.sampled_from([1.0, 1e8, 1e17]),
        max_depth=st.integers(1, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_tree_matches_reference_on_any_gradients(
        self, seed, n_rows, n_features, distinct_rows, scale, max_depth
    ):
        # Bins need not start at 0. Rows drawn from a few distinct ones
        # leave nodes whose every feature is constant; at large scales
        # such a node's hessian total and its full left sum round apart,
        # so an empty child can reach MIN_CHILD_WEIGHT, and only the
        # row-count test rejects the split.
        rng = np.random.default_rng(seed)
        n_bins = rng.integers(1, MAX_BINS + 1, n_features)
        distinct = rng.integers(n_bins // 2, n_bins, size=(distinct_rows, n_features))
        binned = distinct[rng.integers(0, distinct_rows, n_rows)].astype(np.uint8)
        grad = rng.standard_normal(n_rows) * scale
        hess = rng.exponential(1.0, n_rows) * scale * (rng.random(n_rows) < 0.8)
        tree = RegressionTree(max_depth)
        leaf_values = tree.fit_predict(binned, grad, hess)
        reference = _RecursiveTree(max_depth).fit(binned, grad, hess)
        assert _same_bits(tree, reference)
        assert leaf_values.tobytes() == tree.predict(binned).tobytes()

    def test_empty_child_is_rejected_when_sums_round_apart(self):
        # Rows alternate between bins 5 and 6. The root splits them, and
        # each child's candidates leave one side empty. At 1e17 a child's
        # hessian total and its full left sum round apart, so the empty
        # side can reach MIN_CHILD_WEIGHT; its row test still rejects it.
        rng = np.random.default_rng(5)
        binned = np.where(np.arange(64) % 2 == 0, 5, 6).astype(np.uint8)
        grad = rng.standard_normal(64) * 1e17
        hess = rng.exponential(1.0, 64) * 1e17
        tree = RegressionTree(max_depth=2).fit(binned[:, None], grad, hess)
        reference = _RecursiveTree(max_depth=2).fit(binned[:, None], grad, hess)
        assert _same_bits(tree, reference)
        assert tree.num_leaves == 2

    def test_cross_group_tie_takes_the_lower_bin(self):
        # Feature 0 has 64 bins, feature 1 four; both separate the rows
        # at 5.0 (bins 31 and 1), and pinball gradients at q = 0.5 make
        # the two gains equal exactly. (bin, feature) order picks the
        # lower bin, so feature 1 although its index is higher.
        signal = np.linspace(0.0, 10.0, 128)
        coarse = np.digitize(signal, [2.5, 5.0, 7.5]).astype(float)
        features = np.column_stack([signal, coarse])
        binned = BinMapper().fit_transform(features)
        assert binned[:, 0].max() == MAX_BINS - 1 and binned[:, 1].max() == 3
        grad = np.where(signal > 5.0, -0.5, 0.5)
        hess = np.ones_like(grad)
        assert [k for _, _, k in HistogramLayout(binned).groups] == [1, 1]
        tree = RegressionTree(max_depth=1).fit(binned, grad, hess)
        reference = _RecursiveTree(max_depth=1).fit(binned, grad, hess)
        assert _same_bits(tree, reference)
        assert tree.flat_arrays()[0][0] == 1
        assert tree.flat_arrays()[1][0] == 1

    def test_duplicate_columns_tie_to_the_lower_feature(self, rng):
        column = rng.uniform(0.0, 1.0, 200)
        features = np.column_stack([np.ones(200), column, column])
        binned = BinMapper().fit_transform(features)
        grad = np.where(column > 0.5, -1.0, 1.0)
        tree = RegressionTree(max_depth=2).fit(binned, grad, np.ones(200))
        assert _same_bits(
            tree, _RecursiveTree(max_depth=2).fit(binned, grad, np.ones(200))
        )
        assert set(tree.flat_arrays()[0].tolist()) == {-1, 1}

    def test_layout_leaves_out_one_bin_features(self):
        binned = np.array([[0, 2, 1, 5], [0, 2, 0, 1], [0, 2, 1, 3]], np.uint8)
        layout = HistogramLayout(binned)
        assert layout.features.tolist() == [2, 3]
        # Groups by bin count: two bins (feature 2), six (feature 3).
        assert layout.groups == [(0, 2, 1), (2, 6, 1)]
        assert layout.candidate_bin.tolist() == [0, 0, 1, 2, 3, 4]
        assert layout.candidate_column.tolist() == [0, 1, 1, 1, 1, 1]

    def test_layout_must_match_the_rows(self):
        binned = np.zeros((4, 2), dtype=np.uint8)
        with pytest.raises(ModelError):
            RegressionTree(max_depth=2).fit_predict(
                binned, np.ones(4), np.ones(4), HistogramLayout(binned[:3])
            )
