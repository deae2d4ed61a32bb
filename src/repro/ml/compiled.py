"""Flattened batch-inference kernels for the numpy ML stack.

Scoring latency in the online layers (`AllocationServer` micro-batching,
fleet budgeting, the replay loop) bottoms out in model inference:
per-tree python recursion in ``ml.gbm`` and layer-by-layer autograd
tensors in ``ml.nn``. This module "compiles" fitted models into shapes
the CPU likes:

* :class:`FlattenedForest` — every tree of a fitted booster flattened
  into one set of contiguous parallel arrays (feature index / bin
  threshold / left child / right child / scaled leaf value) plus per-tree
  root offsets. Prediction walks *all trees over the whole batch at
  once*, advancing a ``(tree, row)`` node matrix branchlessly for a
  fixed ``depth`` iterations — leaves are rewritten as self-loops so no
  per-row termination test is needed. On top of that layout the
  constructor builds a gather-minimal encoding: nodes are renumbered by
  level-synchronous BFS so each split's children are adjacent
  (``right == left + 1``, making the step ``nodes = left + go_right``
  with no ``np.where``), and each node's ``(left, feature,
  threshold+1)`` is packed into one int64, so a traversal step costs a
  single node gather, one feature-value gather, and a handful of
  elementwise ops. Rows are processed in blocks of 128 to keep the
  gather working set cache-resident, and each block is binned inside
  the kernel by a branchless binary search over a padded per-feature
  edge table: one search for all ``rows x features`` values in place of
  one ``searchsorted`` call per feature column.

  The kernel is **bit-identical** to the reference python traversal:
  bins equal ``BinMapper.transform``'s (NaN and +-inf included), leaf
  values are pre-scaled by the learning rate (the same scalar multiply
  the reference applies elementwise), and one ``np.cumsum`` down the
  tree axis adds the per-tree contributions in the reference's
  sequential order.

* :class:`FusedMLP` — a ``Sequential`` of ``Dense`` / ``Activation`` /
  ``PCCParameterHead`` modules fused into a float32 forward pass over
  preallocated, thread-local scratch buffers: one ``matmul`` with an
  ``out=`` target plus in-place activation per layer, no autograd graph,
  no per-layer allocations after warm-up. Float32 is a deliberate
  trade: differential tests pin the result to the float64 reference
  within round-off, and the sign structure of the PCC head (``a <= 0``)
  survives exactly because ``a = -softplus(raw)`` stays non-positive in
  any precision.

Compilation is **lazy** (first predict) and **invalidated on refit** —
``fit()`` drops the cached kernel, and a hot-swapped model carries its
own cache, so ``ModelStore.latest()`` / ``AllocationServer.
refresh_model()`` keep working unchanged.

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

#: Rows per traversal block: (trees x 128) int64 node/packed matrices
#: stay small enough that the per-step gathers hit L2.
_TRAVERSAL_BLOCK = 128

#: Leaf sentinel stored in the packed threshold field. ``BinMapper``
#: emits uint8 bins (<= 255), so ``bin > _LEAF_THRESHOLD - 1`` is never
#: true and a leaf's self-loop child is always taken.
_LEAF_THRESHOLD = 300


class FlattenedForest:
    """A fitted tree ensemble as contiguous node arrays.

    Canonical layout (one slot per node, all trees concatenated)::

        feature    int32    split feature, 0 for leaves (self-loop)
        threshold  int64    bin threshold, -1 for leaves
        left       int32    child if bin <= threshold; leaf -> itself
        right      int32    child otherwise;           leaf -> itself
        value      float64  learning_rate * leaf weight (0 internally)
        roots      int32    first node of each tree

    plus the booster's bin edges, one row per feature, as a search
    table::

        edges       float64  (features, width) edges, padded with +inf
                             to a power-of-two width above the widest
        edge_count  int64    number of (non-NaN) edges per feature

    The constructor additionally derives a packed traversal encoding:
    nodes renumbered level-synchronous-BFS (children of each split are
    adjacent, so ``right`` is implicit) with one int64 word per node::

        packed = (left << 18) | (feature << 9) | (threshold + 1)

    Leaves store themselves as ``left`` and ``_LEAF_THRESHOLD`` in the
    threshold field, which no uint8 bin can exceed. A traversal step is
    then one node gather, one feature gather and four elementwise ops::

        p = packed[nodes]
        nodes = (p >> 18) + (bins[(p >> 9) & 511] > (p & 511) - 1)

    Ensembles whose fields overflow the 9-bit packing (features >= 512,
    thresholds > 298 or a feature with 300 or more edges — impossible
    for ``BinMapper``-binned trees) fall back to an unpacked
    ``np.where`` walk over the canonical arrays.

    ``predict_raw`` takes unbinned features and is bit-identical to
    ``GradientBoostingRegressor.predict_raw_reference``.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        depth: int,
        bin_edges: Sequence[np.ndarray],
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.depth = int(depth)
        self._build_edge_table(bin_edges)
        self._packed: np.ndarray | None = None
        self._packed_value: np.ndarray | None = None
        self._packed_roots: np.ndarray | None = None
        self._pack()

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

    def _pack(self) -> None:
        """Build the BFS-renumbered packed encoding (or leave it off)."""
        n = self.feature.shape[0]
        left = self.left.astype(np.int64)
        right = self.right.astype(np.int64)
        feature = self.feature.astype(np.int64)
        threshold = self.threshold.astype(np.int64)
        is_leaf = left == np.arange(n, dtype=np.int64)
        split_features = feature[~is_leaf]
        split_thresholds = threshold[~is_leaf]
        if self.edge_count.max(initial=0) >= _LEAF_THRESHOLD or (
            split_features.size
            and (
                split_features.max() >= 512
                or split_thresholds.min() < 0
                or split_thresholds.max() >= _LEAF_THRESHOLD - 1
            )
        ):
            return  # does not fit the 9-bit fields; unpacked path only

        # Level-synchronous BFS over the whole forest. Emitting each
        # split's children consecutively makes siblings adjacent in the
        # new numbering, so the right child is left + 1.
        order = np.empty(n, dtype=np.int64)
        new_id = np.empty(n, dtype=np.int64)
        current = self.roots.astype(np.int64)
        pos = 0
        while current.size:
            order[pos : pos + current.size] = current
            new_id[current] = np.arange(pos, pos + current.size)
            pos += current.size
            splits = current[left[current] != current]
            nxt = np.empty(2 * splits.size, dtype=np.int64)
            nxt[0::2] = left[splits]
            nxt[1::2] = right[splits]
            current = nxt

        old_left = left[order]
        leaf = old_left == order
        child = np.where(leaf, np.arange(n, dtype=np.int64), new_id[old_left])
        packed_feature = np.where(leaf, 0, feature[order])
        packed_threshold = np.where(leaf, _LEAF_THRESHOLD, threshold[order] + 1)
        self._packed = (child << 18) | (packed_feature << 9) | packed_threshold
        self._packed_value = self.value[order]
        self._packed_roots = new_id[self.roots.astype(np.int64)]

    @classmethod
    def from_trees(
        cls,
        trees: Sequence[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ],
        learning_rate: float,
        bin_edges: Sequence[np.ndarray],
    ) -> "FlattenedForest":
        """Flatten ``(feature, bin_threshold, left, right, value)`` arrays.

        One tuple per fitted tree, exactly as
        :meth:`~repro.ml.gbm.tree.RegressionTree.flat_arrays` returns
        them, plus the fitted ``BinMapper.bin_edges_`` the trees' bin
        thresholds refer to. Leaf nodes (``feature < 0``) become
        self-loops so the traversal needs no termination mask.
        """
        if not trees:
            raise ModelError("cannot flatten an empty ensemble")
        features: list[np.ndarray] = []
        thresholds: list[np.ndarray] = []
        lefts: list[np.ndarray] = []
        rights: list[np.ndarray] = []
        values: list[np.ndarray] = []
        roots = np.empty(len(trees), dtype=np.int32)
        offset = 0
        max_depth = 0
        for t, (feature, threshold, left, right, value) in enumerate(trees):
            n = feature.shape[0]
            if n == 0:
                raise ModelError("cannot flatten an unfitted tree")
            leaf = feature < 0
            self_index = np.arange(n, dtype=np.int64)
            left = np.where(leaf, self_index, left)
            right = np.where(leaf, self_index, right)

            # Children are always appended after their parent, so one
            # forward pass yields every node's depth.
            node_depth = np.zeros(n, dtype=np.int64)
            for i in range(n):
                if not leaf[i]:
                    node_depth[left[i]] = node_depth[i] + 1
                    node_depth[right[i]] = node_depth[i] + 1
            max_depth = max(max_depth, int(node_depth.max()))

            roots[t] = offset
            features.append(np.where(leaf, 0, feature))
            thresholds.append(threshold)
            lefts.append(left + offset)
            rights.append(right + offset)
            # Pre-scale leaf values by the learning rate: the reference
            # computes the identical scalar product elementwise.
            values.append(learning_rate * value)
            offset += n

        return cls(
            feature=np.concatenate(features).astype(np.int32),
            threshold=np.concatenate(thresholds).astype(np.int64),
            left=np.concatenate(lefts).astype(np.int32),
            right=np.concatenate(rights).astype(np.int32),
            value=np.concatenate(values).astype(np.float64),
            roots=roots,
            depth=max_depth,
            bin_edges=bin_edges,
        )

    @property
    def num_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.feature.shape[0])

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
        walk = (
            self._walk_unpacked if self._packed is None else self._walk_packed
        )
        n_rows = features.shape[0]
        raw = np.empty(n_rows, dtype=np.float64)
        for start in range(0, n_rows, _TRAVERSAL_BLOCK):
            stop = min(start + _TRAVERSAL_BLOCK, n_rows)
            terms = np.empty((self.num_trees + 1, stop - start))
            terms[0] = base_score
            terms[1:] = walk(self.bin(features[start:stop]))
            # add.accumulate is strictly sequential down the tree axis,
            # so the last row is ((base + tree 0) + tree 1) + ... — the
            # reference's per-tree loop, addition for addition. A sum()
            # reduction may pair the additions differently.
            raw[start:stop] = np.cumsum(terms, axis=0)[-1]
        return raw

    def _walk_packed(self, bins: np.ndarray) -> np.ndarray:
        """Leaf values ``(trees, rows)`` via the packed encoding."""
        packed = self._packed
        n_rows, n_features = bins.shape
        bins_flat = bins.reshape(-1)
        row_offsets = (np.arange(n_rows, dtype=np.int64) * n_features)[None, :]
        nodes = np.repeat(self._packed_roots[:, None], n_rows, axis=1)
        for _ in range(self.depth):
            p = packed[nodes]
            go_right = bins_flat[((p >> 9) & 511) + row_offsets] > (p & 511) - 1
            nodes = (p >> 18) + go_right
        return self._packed_value[nodes]

    def _walk_unpacked(self, bins: np.ndarray) -> np.ndarray:
        """Leaf values ``(trees, rows)`` via the canonical arrays."""
        n_rows = bins.shape[0]
        nodes = np.repeat(self.roots[:, None], n_rows, axis=1).astype(np.int64)
        rows = np.arange(n_rows)[None, :]
        for _ in range(self.depth):
            feat = self.feature[nodes]
            go_left = bins[rows, feat] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return self.value[nodes]


# ----------------------------------------------------------------------
# fused MLP forward pass
# ----------------------------------------------------------------------
_DENSE, _ACT, _HEAD = "dense", "act", "head"
_ACTIVATIONS = ("relu", "tanh", "sigmoid", "softplus")


def _softplus32(x: np.ndarray) -> np.ndarray:
    """The reference's stable softplus, in the buffer's dtype."""
    ax = np.abs(x)
    np.negative(ax, out=ax)
    np.exp(ax, out=ax)
    np.log1p(ax, out=ax)
    return np.maximum(x, 0.0) + ax


def _apply_activation(name: str, buf: np.ndarray) -> None:
    if name == "relu":
        np.maximum(buf, 0.0, out=buf)
    elif name == "tanh":
        np.tanh(buf, out=buf)
    elif name == "sigmoid":
        np.clip(buf, -60.0, 60.0, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        buf += 1.0
        np.reciprocal(buf, out=buf)
    elif name == "softplus":
        buf[...] = _softplus32(buf)
    else:  # pragma: no cover - guarded at compile time
        raise ModelError(f"unknown activation: {name!r}")


class FusedMLP:
    """A compiled ``Sequential``: float32 weights, preallocated buffers.

    The op list alternates ``("dense", W, b)`` / ``("act", name)`` steps
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
        # (ModelStore disk roundtrip, pmap workers) re-warms its own.
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
                if op[0] == _ACT:
                    if not owned:
                        out = out.copy()
                        owned = True
                    _apply_activation(op[1], out)
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

    Understands ``Sequential`` (recursively), ``Dense``, ``Activation``
    and ``PCCParameterHead``; anything else raises :class:`ModelError`
    so callers can fall back to the autograd reference path.
    """
    from repro.ml.nn import Activation, Dense, PCCParameterHead, Sequential

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
        elif isinstance(module, Activation):
            if module.name not in _ACTIVATIONS:  # pragma: no cover
                raise ModelError(f"cannot fuse activation {module.name!r}")
            ops.append((_ACT, module.name))
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
