"""Graph neural network components (Figure 10).

The paper's GNN follows SimGNN: graph convolution layers produce
node-level embeddings, an attention layer compares each node to a learned
global context to pool them into a graph embedding, and a fully connected
head predicts the two PCC parameters.

Graphs are *packed*, not padded. :class:`PackedGraphs` concatenates the
node rows of every graph once, and applies the first layer's aggregation
``A_hat @ X`` there, because both factors are constants. Each batch cut
from it (:class:`PackedBatch`) holds its graphs' rows, their normalised
adjacencies joined into one block-diagonal sparse matrix, and a sparse
graph-membership matrix. :meth:`GNNEncoder.encode` runs every GCN layer
and the pooling as one autograd node, whose backward chains the
hand-written adjoints of the layers (``docs/performance.md``, "GNN
training on packed graphs").
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelError
from repro.features.graph_features import GraphSample
from repro.ml.autograd import Tensor
from repro.ml.nn import Dense, Module

__all__ = ["PackedBatch", "PackedGraphs", "GraphConvolution",
           "AttentionPooling", "GNNEncoder"]

#: Maps the gradient of a packed forward's output to the gradient of its
#: input, accumulating parameter gradients on the way.
Backward = Callable[[np.ndarray], "np.ndarray | None"]


@dataclass(frozen=True)
class PackedBatch:
    """The graphs of one batch, packed node-wise.

    Attributes
    ----------
    inputs:
        ``(n, P)`` rows of ``A_hat @ X``, the first GCN layer's
        aggregation, for the batch's ``n`` nodes in graph order.
    adjacency:
        ``(n, n)`` block-diagonal normalised adjacency (CSR).
    membership:
        ``(B, n)`` CSR holding a 1 where a node belongs to a graph.
    node_graph:
        ``(n,)`` position in the batch of each node's graph.
    """

    inputs: np.ndarray
    adjacency: sp.csr_matrix
    membership: sp.csr_matrix
    node_graph: np.ndarray


class PackedGraphs:
    """A set of graphs packed once, from which batches are cut.

    ``GNNPCCModel`` builds one per ``fit`` or ``predict_parameters`` call
    and drops it afterwards, so a fitted model carries nothing
    dataset-sized.
    """

    def __init__(self, samples: Sequence[GraphSample]) -> None:
        if not samples:
            raise ModelError("cannot batch zero graphs")
        feature_dim = samples[0].node_features.shape[1]
        if any(s.node_features.shape[1] != feature_dim for s in samples):
            raise ModelError("graphs in a batch must share the feature width")
        self._sizes = np.array([s.num_nodes for s in samples])
        if np.any(self._sizes == 0):
            raise ModelError("a graph in the batch has no nodes")
        self._offsets = np.concatenate(([0], np.cumsum(self._sizes)))
        values, rows, columns = [], [], []
        for offset, sample in zip(self._offsets, samples):
            row, column = np.nonzero(sample.adjacency)
            values.append(sample.adjacency[row, column])
            rows.append(row + offset)
            columns.append(column + offset)
        total = int(self._offsets[-1])
        self._adjacency = sp.csr_matrix(
            (np.concatenate(values),
             (np.concatenate(rows), np.concatenate(columns))),
            shape=(total, total),
        )
        # The backward passes reuse A_hat as its own adjoint.
        if (self._adjacency != self._adjacency.T).nnz:
            raise ModelError("graph adjacency must be symmetric")
        self._inputs = self._adjacency @ np.vstack(
            [s.node_features for s in samples]
        )

    def __len__(self) -> int:
        return len(self._sizes)

    def batch(self, indices: np.ndarray) -> PackedBatch:
        """Cut the graphs at ``indices``, in that order, into one batch."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size == 0:
            raise ModelError("cannot batch zero graphs")
        sizes = self._sizes[indices]
        starts = np.concatenate(([0], np.cumsum(sizes)))
        count = int(starts[-1])
        # Each node's packed row minus its batch row: constant per graph,
        # so it also maps the packed column indices to batch columns.
        shift = np.repeat(self._offsets[indices] - starts[:-1], sizes)
        rows = shift + np.arange(count)

        packed = self._adjacency
        row_nnz = packed.indptr[rows + 1] - packed.indptr[rows]
        indptr = np.concatenate(([0], np.cumsum(row_nnz)))
        entries = np.repeat(packed.indptr[rows] - indptr[:-1], row_nnz)
        entries += np.arange(indptr[-1])
        adjacency = sp.csr_matrix(
            (
                packed.data[entries],
                packed.indices[entries] - np.repeat(shift, row_nnz),
                indptr,
            ),
            shape=(count, count),
        )
        membership = sp.csr_matrix(
            (np.ones(count), np.arange(count), starts),
            shape=(len(indices), count),
        )
        return PackedBatch(
            inputs=self._inputs[rows],
            adjacency=adjacency,
            membership=membership,
            node_graph=np.repeat(np.arange(len(indices)), sizes),
        )


class GraphConvolution(Module):
    """One GCN layer: ``H' = relu(A_hat H W + b)`` (Kipf & Welling)."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        self.linear = Dense(in_features, out_features, rng, init="xavier")

    def parameters(self) -> list[Tensor]:
        return self.linear.parameters()

    def propagate(
        self, states: np.ndarray, adjacency: sp.csr_matrix | None
    ) -> tuple[np.ndarray, Backward]:
        """The layer on packed rows, and its backward.

        ``adjacency`` is ``None`` when ``states`` already holds
        ``A_hat H`` (the first layer, whose product is applied at packing
        time); that input is a constant, so its backward returns
        ``None``.
        """
        aggregated = states if adjacency is None else adjacency @ states
        weight, bias = self.linear.weight, self.linear.bias
        weights = weight.data
        out = aggregated @ weights
        out += bias.data
        active = out > 0
        out *= active

        def backward(grad: np.ndarray) -> np.ndarray | None:
            grad_pre = grad * active
            weight._accumulate(aggregated.T @ grad_pre)
            bias._accumulate(grad_pre.sum(axis=0))
            if adjacency is None:
                return None
            # A_hat is symmetric, so the aggregation is its own adjoint.
            return adjacency @ (grad_pre @ weights.T)

        return out, backward

    def forward(self, inputs: Tensor) -> Tensor:  # pragma: no cover
        raise ModelError("GraphConvolution runs inside GNNEncoder.encode")


class AttentionPooling(Module):
    """SimGNN-style attention pooling of node embeddings.

    The global context is ``c = tanh(mean_n(h_n) W_c)``; each node's
    attention weight is ``sigmoid(h_n . c)``; the graph embedding is the
    attention-weighted sum of node embeddings.
    """

    def __init__(self, features: int, rng: np.random.Generator) -> None:
        self.context_weight = Tensor(
            rng.normal(0.0, np.sqrt(1.0 / features), size=(features, features)),
            requires_grad=True,
        )

    def parameters(self) -> list[Tensor]:
        return [self.context_weight]

    def pool(
        self, states: np.ndarray, batch: PackedBatch
    ) -> tuple[np.ndarray, Backward]:
        """``(B, F)`` graph embeddings of packed node states, and the
        backward to the node states."""
        membership, node_graph = batch.membership, batch.node_graph
        counts = np.diff(membership.indptr)
        if np.any(counts == 0):
            raise ModelError("a graph in the batch has no nodes")
        inverse_counts = (1.0 / counts)[:, None]
        weights = self.context_weight.data

        mean = (membership @ states) * inverse_counts
        context = np.tanh(mean @ weights)
        node_context = context[node_graph]
        scores = np.einsum("ij,ij->i", states, node_context)
        attention = 1.0 / (1.0 + np.exp(-np.clip(scores, -60, 60)))
        pooled = membership @ (states * attention[:, None])

        def backward(grad: np.ndarray) -> np.ndarray:
            node_grad = grad[node_graph]
            grad_scores = (
                np.einsum("ij,ij->i", node_grad, states)
                * attention * (1.0 - attention)
            )
            grad_context = membership @ (states * grad_scores[:, None])
            grad_pre_context = grad_context * (1.0 - context**2)
            self.context_weight._accumulate(mean.T @ grad_pre_context)
            grad_mean = (grad_pre_context @ weights.T) * inverse_counts
            grad_states = grad_mean[node_graph]
            node_grad *= attention[:, None]
            grad_states += node_grad
            grad_states += grad_scores[:, None] * node_context
            return grad_states

        return pooled, backward

    def forward(self, inputs: Tensor) -> Tensor:  # pragma: no cover
        raise ModelError("AttentionPooling runs inside GNNEncoder.encode")


class GNNEncoder(Module):
    """Stacked GCN layers followed by attention pooling.

    Maps a :class:`PackedBatch` to a ``(B, hidden)`` graph embedding that
    a fully connected head can consume.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: tuple[int, ...],
        rng: np.random.Generator,
    ) -> None:
        if not hidden_sizes:
            raise ModelError("GNN encoder needs at least one hidden layer")
        self.layers: list[GraphConvolution] = []
        previous = in_features
        for size in hidden_sizes:
            self.layers.append(GraphConvolution(previous, size, rng))
            previous = size
        self.pooling = AttentionPooling(previous, rng)
        self.output_dim = previous

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend(self.pooling.parameters())
        return params

    def encode(self, batch: PackedBatch) -> Tensor:
        """The batch's graph embeddings as one node on the autograd tape."""
        states, adjacency = batch.inputs, None
        backwards: list[Backward] = []
        for layer in self.layers:
            states, backward = layer.propagate(states, adjacency)
            backwards.append(backward)
            adjacency = batch.adjacency
        pooled, pool_backward = self.pooling.pool(states, batch)

        def backward(grad: np.ndarray) -> None:
            grad = pool_backward(grad)
            for layer_backward in reversed(backwards):
                grad = layer_backward(grad)

        return Tensor._make(pooled, tuple(self.parameters()), backward)

    def forward(self, inputs: Tensor) -> Tensor:  # pragma: no cover
        raise ModelError("GNNEncoder requires encode(PackedBatch)")
