"""Histogram-based regression trees for Newton boosting.

One tree of the booster: features are pre-binned into a small number of
quantile bins, and split finding scans per-feature gradient/hessian
histograms — the same design as XGBoost's ``hist`` tree method. Split
gain uses the standard second-order formula

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ]

and leaf weights are ``-G / (H + lambda)``. A split is kept only when
its gain is positive and each child holds at least one row and a
hessian sum of at least ``MIN_CHILD_WEIGHT``. The regularisation
values are XGBoost's defaults, which every model here trains with.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError

__all__ = ["BinMapper", "RegressionTree"]

#: Quantile bins per feature (bins fit in a ``uint8``).
MAX_BINS = 64
#: Smallest hessian sum a child of a split may hold.
MIN_CHILD_WEIGHT = 1.0
#: L2 penalty ``lambda`` on leaf weights.
REG_LAMBDA = 1.0


class BinMapper:
    """Maps continuous features to ``MAX_BINS`` integer bins via quantiles."""

    def __init__(self) -> None:
        self.bin_edges_: list[np.ndarray] | None = None

    def fit(self, features: np.ndarray) -> "BinMapper":
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ModelError("features must be a 2-D matrix")
        edges = []
        quantiles = np.linspace(0, 1, MAX_BINS + 1)[1:-1]
        for column in features.T:
            unique = np.unique(column)
            if unique.size <= 1:
                edges.append(np.empty(0))
            elif unique.size <= MAX_BINS:
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


class RegressionTree:
    """A single second-order regression tree over binned features.

    Stored as flat arrays (children indices, split feature/bin, leaf
    values) for fast vectorised prediction.
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

    # ------------------------------------------------------------------
    def fit(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> "RegressionTree":
        """Grow the tree on ``BinMapper`` bins."""
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

    def _grow(
        self,
        binned: np.ndarray,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        depth: int,
    ) -> int:
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

    def _best_split(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        g_total: float,
        h_total: float,
    ) -> tuple[int, int] | None:
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
    def num_leaves(self) -> int:
        return sum(1 for f in self._feature if f < 0)
