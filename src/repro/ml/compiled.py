"""Flattened batch-inference kernels for the numpy ML stack.

Scoring latency in the online layers (`AllocationServer` micro-batching,
fleet budgeting, the replay loop) bottoms out in model inference:
per-tree python recursion in ``ml.gbm`` and layer-by-layer autograd
tensors in ``ml.nn``. This module "compiles" fitted models into shapes
the CPU likes:

* :class:`FlattenedForest` — every tree of a fitted booster in one
  breadth-first node table: one level-synchronous BFS over the whole
  forest numbers the nodes, so each split's two children sit in
  adjacent slots and the right child is ``child + 1``. Prediction walks
  *all trees over a block of rows at once*, advancing a ``(tree, row)``
  node matrix for a fixed ``depth`` of steps; a leaf points at itself
  and holds a threshold no bin exceeds, so no row needs a termination
  test. Rows are processed in blocks of 128 to keep the gather working set
  cache-resident, and each block is binned inside the kernel by a
  branchless binary search over a padded per-feature edge table: one
  search for all ``rows x features`` values in place of one
  ``searchsorted`` call per feature column.

  The kernel is **bit-identical** to the reference python traversal:
  bins equal ``BinMapper.transform``'s (NaN and +-inf included), leaf
  values are pre-scaled by the learning rate (the same scalar multiply
  the reference applies elementwise), and one ``np.cumsum`` down the
  tree axis adds the per-tree contributions in the reference's
  sequential order.

* :class:`FusedMLP` — a ``Sequential`` of ``Dense`` / ``ReLU`` /
  ``PCCParameterHead`` modules fused into a float32 forward pass over
  preallocated, thread-local scratch buffers: one ``matmul`` with an
  ``out=`` target plus an in-place relu per layer, no autograd graph,
  no per-layer allocations after warm-up. Float32 is a deliberate
  trade: differential tests pin the result to the float64 reference
  within round-off, and the sign structure of the PCC head (``a <= 0``)
  survives exactly because ``a = -softplus(raw)`` stays non-positive in
  any precision.

Compilation is **lazy** (first predict) and **invalidated on refit** —
``fit()`` drops the cached kernel, and a model installed by
``AllocationServer.deploy()`` carries its own cache, so a hot swap
needs no invalidation.

Kernels are on by default. There are two ways to turn them off:

* :func:`override` is a thread-local context manager; the differential
  tests use it directly;
* a :class:`~repro.tasq.pipeline.ScoringPipeline` built with compiled
  inference off runs every one of its predictions under
  ``override(False)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.ml.blas import single_thread

__all__ = [
    "is_enabled",
    "override",
    "FlattenedForest",
    "FusedMLP",
    "compile_network",
]


# ----------------------------------------------------------------------
# enable/disable plumbing
# ----------------------------------------------------------------------
_local = threading.local()


def is_enabled() -> bool:
    """Are compiled kernels active on this thread right now?"""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else True


@contextmanager
def override(enabled: bool) -> Iterator[None]:
    """Thread-locally force compiled kernels on or off.

    The reference implementations stay in place behind this switch, so
    differential tests (and a
    :class:`~repro.tasq.pipeline.ScoringPipeline` built with compiled
    inference off) can replay the exact pre-kernel semantics without
    rebuilding any model.
    """
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(bool(enabled))
    try:
        yield
    finally:
        stack.pop()


# ----------------------------------------------------------------------
# flattened GBM forest
# ----------------------------------------------------------------------

#: Rows per traversal block: (trees x 128) int64 node matrices stay
#: small enough that the per-step gathers hit L2.
_TRAVERSAL_BLOCK = 128


class FlattenedForest:
    """A fitted tree ensemble as one breadth-first node table.

    One slot per node of every tree, numbered by one level-synchronous
    BFS over the whole forest: the roots take the first slots, and each
    split's two children take adjacent ones::

        child      int64    left child (the right one is child + 1);
                            a leaf points at itself
        feature    int64    split feature, 0 at leaves
        threshold  int64    go right iff bin > threshold; leaves hold
                            the int64 maximum, which no bin exceeds
        value      float64  learning_rate * leaf weight
        roots      int64    each tree's root slot
        depth      int      BFS levels - 1: every row is at its leaf
                            after this many steps

    plus the booster's bin edges, one row per feature, as a search
    table::

        edges       float64  (features, width) edges, padded with +inf
                             to a power-of-two width above the widest
        edge_count  int64    number of (non-NaN) edges per feature

    A step advances every ``(tree, row)`` node of a block at once, and a
    leaf's self-loop keeps it in place, so no row tests for the end::

        nodes = child[nodes] + (bins[feature[nodes] + row_offsets] > threshold[nodes])

    ``predict_raw`` takes unbinned features and is bit-identical to
    ``GradientBoostingRegressor.predict_raw`` under ``override(False)``,
    the per-tree traversal over ``BinMapper`` bins.
    """

    def __init__(
        self,
        child: np.ndarray,
        feature: np.ndarray,
        threshold: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        depth: int,
        bin_edges: Sequence[np.ndarray],
    ) -> None:
        self.child = child
        self.feature = feature
        self.threshold = threshold
        self.value = value
        self.roots = roots
        self.depth = int(depth)
        self._build_edge_table(bin_edges)

    def _build_edge_table(self, bin_edges: Sequence[np.ndarray]) -> None:
        """Pad every feature's edges with +inf into one search table."""
        widest = max((edges.size for edges in bin_edges), default=0)
        width = 1 << widest.bit_length()  # a power of two above widest
        self.edges = np.full((len(bin_edges), width), np.inf)
        self.edge_count = np.zeros(len(bin_edges), dtype=np.int64)
        for j, edges in enumerate(bin_edges):
            # ``BinMapper`` edges are sorted with any NaN last, and no
            # value is above a NaN edge, so NaN edges count as padding.
            real = np.asarray(edges, dtype=np.float64)
            real = real[~np.isnan(real)]
            self.edges[j, : real.size] = real
            self.edge_count[j] = real.size
        self._row_starts = np.arange(len(bin_edges), dtype=np.int64) * width
        flat = self.edges.reshape(-1)
        # One view per search step: ``view[pos]`` reads the edge
        # ``step - 1`` slots past ``pos`` without an index addition.
        self._search_steps = [
            (step, flat[step - 1 :])
            for step in (1 << k for k in reversed(range(width.bit_length() - 1)))
        ]

    @classmethod
    def from_trees(
        cls,
        trees: Sequence[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ],
        learning_rate: float,
        bin_edges: Sequence[np.ndarray],
    ) -> "FlattenedForest":
        """Renumber ``(feature, bin_threshold, left, right, value)`` arrays.

        One tuple per fitted tree, exactly as
        :meth:`~repro.ml.gbm.tree.RegressionTree.flat_arrays` returns
        them (leaves have ``feature == -1``), plus the fitted
        ``BinMapper.bin_edges_`` the trees' bin thresholds refer to.
        Links that reach a node twice, or never, and splits on a feature
        without a row of edges raise :class:`~repro.exceptions.ModelError`.
        """
        if not trees:
            raise ModelError("cannot flatten an empty ensemble")
        sizes = np.array([tree[0].shape[0] for tree in trees])
        if not sizes.all():
            raise ModelError("cannot flatten an unfitted tree")
        feature, threshold, left, right, value = (
            np.concatenate(column) for column in zip(*trees)
        )
        # The walk indexes a row's bins by feature, so a feature past
        # the edge table would read the next row's bins.
        if feature.max() >= len(bin_edges):
            raise ModelError("a split tests a feature that has no bin edges")
        starts = np.cumsum(sizes) - sizes
        left = left + np.repeat(starts, sizes)
        right = right + np.repeat(starts, sizes)
        split = feature >= 0
        n = feature.shape[0]

        # Level-synchronous BFS over the whole forest. Emitting each
        # split's children consecutively makes them adjacent slots. A
        # level that would overfill the table has revisited a node.
        order = np.empty(n, dtype=np.int64)
        slot = np.full(n, -1, dtype=np.int64)
        level = starts
        filled = levels = 0
        while level.size and filled + level.size <= n:
            order[filled : filled + level.size] = level
            slot[level] = np.arange(filled, filled + level.size)
            filled += level.size
            levels += 1
            splits = level[split[level]]
            level = np.column_stack((left[splits], right[splits])).reshape(-1)
        if level.size or (slot < 0).any():
            raise ModelError("tree links must reach each node exactly once")

        inner = split[order]
        child = np.arange(n, dtype=np.int64)
        child[inner] = slot[left[order[inner]]]
        never_right = np.iinfo(np.int64).max
        return cls(
            child=child,
            feature=np.where(inner, feature[order], 0),
            threshold=np.where(inner, threshold[order], never_right),
            # The reference takes the same scalar product elementwise.
            value=learning_rate * value[order],
            roots=slot[starts],
            depth=levels - 1,
            bin_edges=bin_edges,
        )

    @property
    def num_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.edges.shape[0])

    def bin(self, features: np.ndarray) -> np.ndarray:
        """``BinMapper.transform`` of a feature block, as int64 bins.

        A value's bin is the number of edges below it, which is what
        ``searchsorted(side="left")`` returns. A branchless binary
        search finds it for every ``(row, feature)`` value at once: each
        step moves a position forward wherever the edge ``step - 1``
        slots ahead is below the value. The +inf padding is below no
        value, and NaN is above no edge, so NaN is moved to its
        feature's edge count — where ``searchsorted`` sorts it.
        """
        pos = np.repeat(self._row_starts[None, :], features.shape[0], axis=0)
        for step, ahead in self._search_steps:
            pos += (ahead[pos] < features) * step
        return np.where(np.isnan(features), self.edge_count, pos - self._row_starts)

    def predict_raw(self, features: np.ndarray, base_score: float) -> np.ndarray:
        """Raw scores for unbinned features, all trees at once."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise ModelError(
                f"features must be a 2-D matrix of {self.num_features} columns"
            )
        n_rows = features.shape[0]
        raw = np.empty(n_rows, dtype=np.float64)
        for start in range(0, n_rows, _TRAVERSAL_BLOCK):
            stop = min(start + _TRAVERSAL_BLOCK, n_rows)
            terms = np.empty((self.num_trees + 1, stop - start))
            terms[0] = base_score
            terms[1:] = self._walk(self.bin(features[start:stop]))
            # add.accumulate is strictly sequential down the tree axis,
            # so the last row is ((base + tree 0) + tree 1) + ... — the
            # reference's per-tree loop, addition for addition. A sum()
            # reduction may pair the additions differently.
            raw[start:stop] = np.cumsum(terms, axis=0)[-1]
        return raw

    def _walk(self, bins: np.ndarray) -> np.ndarray:
        """Leaf values ``(trees, rows)`` of one binned block."""
        n_rows, n_features = bins.shape
        bins_flat = bins.reshape(-1)
        row_offsets = np.arange(0, n_rows * n_features, n_features)
        nodes = np.repeat(self.roots[:, None], n_rows, axis=1)
        for _ in range(self.depth):
            go_right = (
                bins_flat[self.feature[nodes] + row_offsets]
                > self.threshold[nodes]
            )
            nodes = self.child[nodes] + go_right
        return self.value[nodes]


# ----------------------------------------------------------------------
# fused MLP forward pass
# ----------------------------------------------------------------------
_DENSE, _RELU, _HEAD = "dense", "relu", "head"


def _softplus32(x: np.ndarray) -> np.ndarray:
    """The reference's stable softplus, in the buffer's dtype."""
    ax = np.abs(x)
    np.negative(ax, out=ax)
    np.exp(ax, out=ax)
    np.log1p(ax, out=ax)
    return np.maximum(x, 0.0) + ax


class FusedMLP:
    """A compiled ``Sequential``: float32 weights, preallocated buffers.

    The op list alternates ``("dense", W, b)`` / ``("relu",)`` steps
    and may end with ``("head", W, b)`` — the PCC parameter head, whose
    sign transform (``a = -softplus(raw_a)``) is fused in. Scratch
    buffers are cached per batch size in a ``threading.local`` pool so
    concurrent serving workers never share (or re-allocate) them.
    """

    def __init__(self, ops: list[tuple]) -> None:
        if not any(op[0] in (_DENSE, _HEAD) for op in ops):
            raise ModelError("fused network has no linear layers")
        self.ops = ops
        self._pools = threading.local()

    def __getstate__(self) -> dict:
        # Scratch buffers are per-process ephemera; a pickled model
        # (a model file, pmap workers) re-warms its own.
        state = self.__dict__.copy()
        del state["_pools"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pools = threading.local()

    # ------------------------------------------------------------------
    def _buffers(self, batch: int) -> list[np.ndarray]:
        pools = getattr(self._pools, "by_batch", None)
        if pools is None:
            pools = self._pools.by_batch = {}
        bufs = pools.get(batch)
        if bufs is None:
            bufs = [
                np.empty((batch, op[1].shape[1]), dtype=np.float32)
                for op in self.ops
                if op[0] in (_DENSE, _HEAD)
            ]
            pools[batch] = bufs
        return bufs

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Forward pass; returns float64 ``(batch, out)`` parameters."""
        x = np.ascontiguousarray(features, dtype=np.float32)
        if x.ndim != 2:
            raise ModelError("fused MLP expects a 2-D feature matrix")
        # One BLAS thread: from a few hundred rows on OpenBLAS splits
        # each product across its threads, and on two cores the split
        # cost ~8 ms at 1,024 rows where one thread needs ~0.2 ms.
        with single_thread():
            bufs = self._buffers(x.shape[0])
            k = 0
            out = x
            owned = False  # never mutate the caller's array in place
            for op in self.ops:
                if op[0] == _RELU:
                    if not owned:
                        out = out.copy()
                        owned = True
                    np.maximum(out, 0.0, out=out)
                    continue
                _, weight, bias = op
                buf = bufs[k]
                k += 1
                np.matmul(out, weight, out=buf)
                buf += bias
                out = buf
                owned = True
                if op[0] == _HEAD:
                    head = np.empty((out.shape[0], 2), dtype=np.float64)
                    head[:, 0] = -_softplus32(out[:, 0])
                    head[:, 1] = out[:, 1]
                    return head
            return out.astype(np.float64)

    def num_parameters(self) -> int:
        return int(
            sum(
                op[1].size + op[2].size
                for op in self.ops
                if op[0] in (_DENSE, _HEAD)
            )
        )


def compile_network(network) -> FusedMLP:
    """Fuse a ``repro.ml.nn`` module stack into a :class:`FusedMLP`.

    Understands ``Sequential`` (recursively), ``Dense``, ``ReLU`` and
    ``PCCParameterHead``; anything else raises :class:`ModelError` so
    callers can fall back to the autograd reference path.
    """
    from repro.ml.nn import Dense, PCCParameterHead, ReLU, Sequential

    ops: list[tuple] = []

    def visit(module) -> None:
        if isinstance(module, Sequential):
            for child in module.modules:
                visit(child)
        elif isinstance(module, Dense):
            ops.append(
                (
                    _DENSE,
                    np.ascontiguousarray(module.weight.data, dtype=np.float32),
                    np.ascontiguousarray(module.bias.data, dtype=np.float32),
                )
            )
        elif isinstance(module, ReLU):
            ops.append((_RELU,))
        elif isinstance(module, PCCParameterHead):
            ops.append(
                (
                    _HEAD,
                    np.ascontiguousarray(
                        module.linear.weight.data, dtype=np.float32
                    ),
                    np.ascontiguousarray(
                        module.linear.bias.data, dtype=np.float32
                    ),
                )
            )
        else:
            raise ModelError(
                f"cannot fuse module of type {type(module).__name__}"
            )

    visit(network)
    if ops and any(op[0] == _HEAD for op in ops[:-1]):
        raise ModelError("PCC parameter head must be the final module")
    return FusedMLP(ops)
