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
  gather working set cache-resident.

  The kernel is **bit-identical** to the reference python traversal:
  leaf values are pre-scaled by the learning rate (the same scalar
  multiply the reference applies elementwise), and per-tree
  contributions are accumulated in the reference's sequential order.

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

    The constructor additionally derives a packed traversal encoding:
    nodes renumbered level-synchronous-BFS (children of each split are
    adjacent, so ``right`` is implicit) with one int64 word per node::

        packed = (left << 18) | (feature << 9) | (threshold + 1)

    Leaves store themselves as ``left`` and ``_LEAF_THRESHOLD`` in the
    threshold field, which no uint8 bin can exceed. A traversal step is
    then one node gather, one feature gather and four elementwise ops::

        p = packed[nodes]
        nodes = (p >> 18) + (bins[(p >> 9) & 511] > (p & 511) - 1)

    Ensembles whose fields overflow the 9-bit packing (features >= 512
    or thresholds > 298 — impossible for ``BinMapper``-binned trees)
    fall back to an unpacked ``np.where`` walk over the canonical
    arrays.

    ``predict_raw`` accumulates per-tree leaf values in the reference
    booster's sequential order, so results are bit-identical to
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
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.depth = int(depth)
        self._packed: np.ndarray | None = None
        self._packed_value: np.ndarray | None = None
        self._packed_roots: np.ndarray | None = None
        self._pack()

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
        if split_features.size and (
            split_features.max() >= 512
            or split_thresholds.min() < 0
            or split_thresholds.max() >= _LEAF_THRESHOLD - 1
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
    ) -> "FlattenedForest":
        """Flatten ``(feature, bin_threshold, left, right, value)`` arrays.

        One tuple per fitted tree, exactly as
        :meth:`~repro.ml.gbm.tree.RegressionTree.flat_arrays` returns
        them. Leaf nodes (``feature < 0``) become self-loops so the
        traversal needs no termination mask.
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
        )

    @property
    def num_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.feature.shape[0])

    def predict_raw(self, binned: np.ndarray, base_score: float) -> np.ndarray:
        """Raw scores for pre-binned features, all trees at once."""
        if binned.ndim != 2:
            raise ModelError("binned features must be 2-D")
        if binned.shape[0] == 0:
            return np.full(0, base_score, dtype=np.float64)
        if self._packed is not None and (
            binned.dtype == np.uint8 or int(binned.max()) < _LEAF_THRESHOLD
        ):
            return self._predict_raw_packed(binned, base_score)
        return self._predict_raw_unpacked(binned, base_score)

    def _predict_raw_packed(
        self, binned: np.ndarray, base_score: float
    ) -> np.ndarray:
        packed = self._packed
        values = self._packed_value
        roots = self._packed_roots[:, None]
        depth = self.depth
        n_rows, n_features = binned.shape
        bins_flat = binned.reshape(-1).astype(np.int64)
        raw = np.empty(n_rows, dtype=np.float64)
        for start in range(0, n_rows, _TRAVERSAL_BLOCK):
            stop = min(start + _TRAVERSAL_BLOCK, n_rows)
            row_offsets = (
                np.arange(start, stop, dtype=np.int64) * n_features
            )[None, :]
            nodes = np.repeat(roots, stop - start, axis=1)
            for _ in range(depth):
                p = packed[nodes]
                go_right = (
                    bins_flat[((p >> 9) & 511) + row_offsets]
                    > (p & 511) - 1
                )
                nodes = (p >> 18) + go_right
            leaf_values = values[nodes]  # (trees, block)

            # Accumulate in the reference's tree order — summing the
            # matrix with one reduction would change float association
            # and break bit-identity with the sequential boosting loop.
            block = np.full(stop - start, base_score, dtype=np.float64)
            for t in range(leaf_values.shape[0]):
                block = block + leaf_values[t]
            raw[start:stop] = block
        return raw

    def _predict_raw_unpacked(
        self, binned: np.ndarray, base_score: float
    ) -> np.ndarray:
        n_rows = binned.shape[0]
        nodes = np.repeat(self.roots[:, None], n_rows, axis=1).astype(np.int64)
        rows = np.arange(n_rows)[None, :]
        for _ in range(self.depth):
            feat = self.feature[nodes]
            go_left = binned[rows, feat] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        leaf_values = self.value[nodes]  # (trees, batch)

        raw = np.full(n_rows, base_score, dtype=np.float64)
        for t in range(leaf_values.shape[0]):
            raw = raw + leaf_values[t]
        return raw


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
