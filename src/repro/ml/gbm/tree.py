"""Histogram-based regression trees for Newton boosting.

One tree of the booster: features are pre-binned into a small number of
quantile bins, and split finding scans per-feature gradient/hessian
histograms — the same design as XGBoost's ``hist`` tree method. Split
gain uses the standard second-order formula

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ] - gamma

and leaf weights are ``-G / (H + lambda)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError

__all__ = ["BinMapper", "TreeParams", "RegressionTree"]


class BinMapper:
    """Maps continuous features to small integer bins via quantiles."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise ModelError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self.bin_edges_: list[np.ndarray] | None = None

    def fit(self, features: np.ndarray) -> "BinMapper":
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ModelError("features must be a 2-D matrix")
        edges = []
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        for column in features.T:
            unique = np.unique(column)
            if unique.size <= 1:
                edges.append(np.empty(0))
            elif unique.size <= self.max_bins:
                midpoints = (unique[1:] + unique[:-1]) / 2.0
                edges.append(midpoints)
            else:
                cut = np.unique(np.quantile(column, quantiles))
                edges.append(cut)
        self.bin_edges_ = edges
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.bin_edges_ is None:
            raise ModelError("BinMapper used before fit")
        features = np.asarray(features, dtype=float)
        binned = np.empty(features.shape, dtype=np.uint8)
        for j, edges in enumerate(self.bin_edges_):
            if edges.size == 0:
                binned[:, j] = 0
            else:
                binned[:, j] = np.searchsorted(edges, features[:, j], side="left")
        return binned

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    @property
    def num_bins(self) -> int:
        return self.max_bins


@dataclass(frozen=True)
class TreeParams:
    """Growth hyper-parameters of one tree."""

    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ModelError("max_depth must be at least 1")
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ModelError("regularisation must be non-negative")


class RegressionTree:
    """A single second-order regression tree over binned features.

    Stored as flat arrays (children indices, split feature/bin, leaf
    values) for fast vectorised prediction.
    """

    def __init__(self, params: TreeParams) -> None:
        self.params = params
        self._feature: list[int] = []
        self._bin_threshold: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        feature_indices: np.ndarray | None = None,
        num_bins: int = 256,
    ) -> "RegressionTree":
        """Grow the tree on pre-binned features.

        ``feature_indices`` optionally restricts the candidate split
        features (column subsampling).
        """
        if binned.ndim != 2:
            raise ModelError("binned features must be 2-D")
        n_samples, n_features = binned.shape
        if grad.shape != (n_samples,) or hess.shape != (n_samples,):
            raise ModelError("gradient/hessian shapes do not match features")
        if feature_indices is None:
            feature_indices = np.arange(n_features)

        # Histogram bucket of every (sample, candidate feature) pair, built
        # once per tree: sample s, feature f lands in bucket
        # bin(s, f) * n_feat + f. Each node's split search slices its rows.
        n_feat = feature_indices.size
        codes = (
            binned[:, feature_indices].astype(np.int64) * n_feat
            + np.arange(n_feat)
        )
        rows = np.arange(n_samples)
        self._num_bins = int(num_bins)
        self._grow(binned, codes, grad, hess, rows, feature_indices, depth=0)
        return self

    def _new_node(self) -> int:
        self._feature.append(-1)
        self._bin_threshold.append(-1)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(0.0)
        return len(self._feature) - 1

    def _grow(
        self,
        binned: np.ndarray,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        feature_indices: np.ndarray,
        depth: int,
    ) -> int:
        node = self._new_node()
        g_total = float(grad[rows].sum())
        h_total = float(hess[rows].sum())
        params = self.params

        leaf_value = -g_total / (h_total + params.reg_lambda)
        if depth >= params.max_depth or rows.size < 2 * params.min_samples_leaf:
            self._value[node] = leaf_value
            return node

        split = self._best_split(
            codes, grad, hess, rows, feature_indices, g_total, h_total
        )
        if split is None:
            self._value[node] = leaf_value
            return node

        feature, threshold = split
        mask = binned[rows, feature] <= threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]

        self._feature[node] = int(feature)
        self._bin_threshold[node] = int(threshold)
        left = self._grow(
            binned, codes, grad, hess, left_rows, feature_indices, depth + 1
        )
        right = self._grow(
            binned, codes, grad, hess, right_rows, feature_indices, depth + 1
        )
        self._left[node] = left
        self._right[node] = right
        return node

    def _best_split(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        feature_indices: np.ndarray,
        g_total: float,
        h_total: float,
    ) -> tuple[int, int] | None:
        params = self.params
        lam = params.reg_lambda
        parent_score = g_total**2 / (h_total + lam)

        node_grad = grad[rows]
        node_hess = hess[rows]
        num_bins = self._num_bins
        n_feat = feature_indices.size

        # One flat bincount over the node's rows of ``codes`` builds the
        # histograms of every candidate feature at once.
        flat = codes[rows].ravel()
        length = num_bins * n_feat
        g_hist = np.bincount(
            flat, weights=np.repeat(node_grad, n_feat), minlength=length
        ).reshape(num_bins, n_feat)
        h_hist = np.bincount(
            flat, weights=np.repeat(node_hess, n_feat), minlength=length
        ).reshape(num_bins, n_feat)
        c_hist = np.bincount(flat, minlength=length).reshape(num_bins, n_feat)

        g_left = np.cumsum(g_hist, axis=0)[:-1]
        h_left = np.cumsum(h_hist, axis=0)[:-1]
        c_left = np.cumsum(c_hist, axis=0)[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        c_right = rows.size - c_left

        valid = (
            (h_left >= params.min_child_weight)
            & (h_right >= params.min_child_weight)
            & (c_left >= params.min_samples_leaf)
            & (c_right >= params.min_samples_leaf)
        )
        if not np.any(valid):
            return None
        gains = 0.5 * (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent_score
        ) - params.gamma
        gains = np.where(valid, gains, -np.inf)
        best_bin, best_pos = np.unravel_index(np.argmax(gains), gains.shape)
        if gains[best_bin, best_pos] <= 0.0:
            return None
        return (int(feature_indices[best_pos]), int(best_bin))

    # ------------------------------------------------------------------
    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Raw-score contribution of this tree for each sample."""
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

    def flat_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(feature, bin_threshold, left, right, value)`` node arrays.

        The raw flattened layout consumed by
        :class:`~repro.ml.compiled.FlattenedForest`; leaves have
        ``feature == -1`` exactly as stored internally.
        """
        if not self._value:
            raise ModelError("tree used before fit")
        return (
            np.asarray(self._feature, dtype=np.int64),
            np.asarray(self._bin_threshold, dtype=np.int64),
            np.asarray(self._left, dtype=np.int64),
            np.asarray(self._right, dtype=np.int64),
            np.asarray(self._value, dtype=np.float64),
        )

    @property
    def num_nodes(self) -> int:
        return len(self._value)

    @property
    def num_leaves(self) -> int:
        return sum(1 for f in self._feature if f < 0)
