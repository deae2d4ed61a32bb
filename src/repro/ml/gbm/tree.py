"""Histogram-based regression trees for Newton boosting.

One tree of the booster: features are pre-binned into a small number of
quantile bins, and split finding scans per-feature gradient/hessian
histograms — the same design as XGBoost's ``hist`` tree method. Split
gain uses the standard second-order formula

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ]

and leaf weights are ``-G / (H + lambda)``. A split is kept only when
its gain is positive and each child holds at least one row and a
hessian sum of at least ``MIN_CHILD_WEIGHT``; ties go to the first
maximum in (bin, feature) order. The regularisation values are
XGBoost's defaults, which every model here trains with.

Trees grow one depth level at a time. Per level, one ``np.bincount``
each builds the gradient and the hessian histograms of every open node,
adding each bucket's rows in ascending order as a search of one node
at a time would; one vectorised pass then scores every split candidate
of every node, and one argmax per node takes the first maximum. Each
node's rows stay contiguous and ascending (every split is a stable
partition), so its totals are ``.sum()`` of a slice, and its highest
bins tell whether a right child would be empty. A
:class:`HistogramLayout`, built once per booster fit, leaves out the
features whose rows all share one bin and groups the rest by bin count,
so a node's histogram holds only bins its features have. The trees are
those of a per-node search bit for bit, stored in depth-first preorder
with 0.0 at internal nodes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError

__all__ = ["BinMapper", "HistogramLayout", "RegressionTree"]

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


class HistogramLayout:
    """Where each (row, feature) pair of a fit lands in a node histogram.

    Built from the training bins once per booster fit and shared by its
    trees. A feature whose rows all share one bin can never split and is
    left out. The others are grouped by bin count ``B`` (one past their
    largest bin): a group of ``k`` features fills ``B * k`` consecutive
    buckets, bin-major, so one cumulative sum along the group's bin axis
    yields every left-child sum it holds. The split candidates, the bins
    below each feature's last, are listed in (bin, feature) order, so the
    first maximum over them is the first maximum over the full
    bin × feature grid.
    """

    def __init__(self, binned: np.ndarray) -> None:
        if binned.ndim != 2:
            raise ModelError("binned features must be 2-D")
        n_rows, n_features = binned.shape
        if n_rows:
            lowest, highest = binned.min(axis=0), binned.max(axis=0)
        else:
            lowest = highest = np.zeros(n_features, dtype=np.uint8)
        #: Feature index of each kept column.
        self.features = np.flatnonzero(lowest < highest)
        #: The kept columns' bins, one row per column.
        self.bins = np.ascontiguousarray(binned[:, self.features].T)
        #: Histogram bucket of every (kept column, row) within its node.
        self.codes = np.empty(self.bins.shape, dtype=np.intp)
        #: ``(offset, bin count, columns)`` of each group's buckets.
        self.groups: list[tuple[int, int, int]] = []
        n_bins = highest[self.features].astype(np.intp) + 1
        buckets, columns, bins = [], [], []
        offset = 0
        for count in np.unique(n_bins).tolist():
            members = np.flatnonzero(n_bins == count)
            k = members.size
            self.codes[members] = (
                offset + self.bins[members].astype(np.intp) * k
                + np.arange(k)[:, None]
            )
            self.groups.append((offset, count, k))
            candidates = np.arange((count - 1) * k)
            buckets.append(offset + candidates)
            columns.append(members[candidates % k])
            bins.append(candidates // k)
            offset += count * k
        #: Buckets of one node's histogram.
        self.width = offset
        if buckets:
            bucket, column, bin_ = map(np.concatenate, (buckets, columns, bins))
        else:
            bucket = column = bin_ = np.empty(0, dtype=np.intp)
        order = np.lexsort((column, bin_))
        #: Each candidate's bucket, column and bin, in (bin, feature) order.
        self.candidate_bucket = bucket[order]
        self.candidate_column = column[order]
        self.candidate_bin = bin_[order].astype(self.bins.dtype)
        # Work arrays reused by every level of every tree of the fit
        # (fresh arrays of this size page-fault on each level), so one
        # layout serves one fit at a time.
        self._codes = np.empty(self.codes.shape, dtype=np.intp)
        self._weights = np.empty((2,) + self.codes.shape)

    @property
    def n_rows(self) -> int:
        return self.bins.shape[1]

    def weigh(self, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """Each (kept column, row) pair's gradient and hessian weights.

        One tree's input to :meth:`best_splits`; the next call reuses
        the returned array.
        """
        self._weights[0] = grad
        self._weights[1] = hess
        return self._weights

    def best_splits(
        self,
        weights: np.ndarray,
        node_of_row: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        g_total: np.ndarray,
        h_total: np.ndarray,
        parent_score: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best ``(column, bin)`` of every open node; column -1 if none.

        ``weights`` comes from :meth:`weigh`. ``node_of_row`` gives each
        row's open node, or the node count for a row already in a leaf.
        ``rows`` lists the open nodes' rows node by node, in ascending
        order within a node, and ``starts`` each node's first position.
        """
        n_nodes = starts.size
        # Rows in a leaf fill one more node's buckets, which are dropped.
        np.add(self.codes, node_of_row * self.width, out=self._codes)
        flat = self._codes.ravel()
        length = (n_nodes + 1) * self.width
        hist = np.stack(
            [
                np.bincount(flat, weights=weight.ravel(), minlength=length)
                for weight in weights
            ]
        )[:, : length - self.width].reshape(2, n_nodes, self.width)
        for offset, count, k in self.groups:
            group = hist[:, :, offset : offset + count * k].reshape(
                2, n_nodes, count, k
            )
            np.add.accumulate(group, axis=2, out=group)
        left = hist.take(self.candidate_bucket, axis=2)
        right = np.stack((g_total, h_total))[:, :, None] - left

        # A left child without rows sums no hessian, exactly 0.0, so the
        # weight test rejects it; a right child without rows is told by
        # the node's highest bin, since its hessian total and the full
        # left sum, added in different orders, can round apart.
        highest = np.maximum.reduceat(self.bins.take(rows, axis=1), starts, axis=1)
        valid = (
            (left[1] >= MIN_CHILD_WEIGHT)
            & (right[1] >= MIN_CHILD_WEIGHT)
            & (self.candidate_bin < highest.T.take(self.candidate_column, axis=1))
        )
        # gains = 1/2 (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - parent),
        # evaluated in place, one operation at a time in the same order.
        for side in (left, right):
            side[0] **= 2
            side[1] += REG_LAMBDA
            side[0] /= side[1]
        gains = left[0]
        gains += right[0]
        gains -= parent_score[:, None]
        gains *= 0.5
        gains[~valid] = -np.inf
        best = gains.argmax(axis=1)
        # Not ``> 0.0``: a NaN gain splits, as in a per-node search.
        keep = ~(gains[np.arange(n_nodes), best] <= 0.0)
        return (
            np.where(keep, self.candidate_column[best], -1),
            np.where(keep, self.candidate_bin[best].astype(np.intp), -1),
        )


class RegressionTree:
    """A single second-order regression tree over binned features.

    Stored as flat arrays in depth-first preorder (children indices,
    split feature/bin, leaf values) for fast vectorised prediction.
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ModelError("max_depth must be at least 1")
        self.max_depth = max_depth
        self._feature: np.ndarray | None = None
        self._bin_threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(
        self, binned: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> "RegressionTree":
        """Grow the tree on ``BinMapper`` bins (see :meth:`fit_predict`)."""
        self.fit_predict(binned, grad, hess)
        return self

    def fit_predict(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        layout: HistogramLayout | None = None,
    ) -> np.ndarray:
        """Grow the tree and return each training row's leaf value.

        The result equals ``predict(binned)``. ``layout`` is built from
        ``binned`` unless the caller shares one, built from the same
        bins, between trees.
        """
        if binned.ndim != 2:
            raise ModelError("binned features must be 2-D")
        n_samples = binned.shape[0]
        if grad.shape != (n_samples,) or hess.shape != (n_samples,):
            raise ModelError("gradient/hessian shapes do not match features")
        if layout is None:
            layout = HistogramLayout(binned)
        elif layout.n_rows != n_samples:
            raise ModelError("histogram layout does not match features")

        # Breadth-first node table, one block per level. The children of
        # the r-th split in breadth-first order are nodes 2r+1 and 2r+2.
        columns, thresholds, values = [], [], []
        leaf = np.empty(n_samples, dtype=np.intp)
        node_of_row = np.zeros(n_samples, dtype=np.intp)
        rows = np.arange(n_samples)
        sizes = np.array([n_samples])
        first = 0
        search = layout.candidate_bucket.size > 0
        weights = layout.weigh(grad, hess) if search else None
        for depth in range(self.max_depth + 1):
            n_open = sizes.size
            ends = np.cumsum(sizes)
            node_grad = grad[rows]
            node_hess = hess[rows]
            g_total = np.empty(n_open)
            h_total = np.empty(n_open)
            parent_score = np.empty(n_open)
            start = 0
            for node, end in enumerate(ends.tolist()):
                g = float(node_grad[start:end].sum())
                h = float(node_hess[start:end].sum())
                g_total[node] = g
                h_total[node] = h
                parent_score[node] = g**2 / (h + REG_LAMBDA)
                start = end
            if search and depth < self.max_depth:
                column, threshold = layout.best_splits(
                    weights, node_of_row, rows, ends - sizes,
                    g_total, h_total, parent_score,
                )
            else:
                column = threshold = np.full(n_open, -1)
            split = column >= 0
            columns.append(column)
            thresholds.append(threshold)
            values.append(np.where(split, 0.0, -g_total / (h_total + REG_LAMBDA)))

            slot = np.repeat(np.arange(n_open), sizes)
            done = ~split[slot]
            leaf[rows[done]] = first + slot[done]
            if not split.any():
                break
            # Stable partition: each split's left rows, then its right rows.
            rows, slot = rows[~done], slot[~done]
            goes_right = layout.bins[column[slot], rows] > threshold[slot]
            child = 2 * (np.cumsum(split) - 1)[slot] + goes_right
            order = np.argsort(child, kind="stable")
            rows = rows[order]
            sizes = np.bincount(child, minlength=2 * int(split.sum()))
            node_of_row[:] = sizes.size
            node_of_row[rows] = child[order]
            first += n_open

        column = np.concatenate(columns)
        value = np.concatenate(values)
        self._store_preorder(
            layout, column, np.concatenate(thresholds), value
        )
        return value[leaf]

    def _store_preorder(
        self,
        layout: HistogramLayout,
        column: np.ndarray,
        threshold: np.ndarray,
        value: np.ndarray,
    ) -> None:
        """Renumber the breadth-first node table to depth-first preorder."""
        split = column >= 0
        left = np.full(column.size, -1)
        left[split] = 1 + 2 * np.arange(int(split.sum()))
        links = left.tolist()
        preorder = []
        stack = [0]
        while stack:
            node = stack.pop()
            preorder.append(node)
            if links[node] >= 0:
                stack += (links[node] + 1, links[node])
        preorder = np.array(preorder)
        position = np.empty_like(preorder)
        position[preorder] = np.arange(preorder.size)

        feature = np.full(column.size, -1)
        feature[split] = layout.features[column[split]]
        left_child = np.full(column.size, -1)
        left_child[split] = position[left[split]]
        right_child = np.full(column.size, -1)
        right_child[split] = position[left[split] + 1]
        self._feature = feature[preorder]
        self._bin_threshold = threshold[preorder]
        self._left = left_child[preorder]
        self._right = right_child[preorder]
        self._value = value[preorder]

    # ------------------------------------------------------------------
    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Raw-score contribution of this tree for each sample."""
        feature, threshold, left, right, value = self.flat_arrays()
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
        ``feature == -1``, internal nodes value 0.0.
        """
        if self._value is None:
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
        return int((self.flat_arrays()[0] < 0).sum())
