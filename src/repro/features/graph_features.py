"""Graph representation for the GNN (Section 4.3, "Graph representation").

The query plan's DAG is represented by its adjacency matrix; the GCN layer
consumes the symmetrically normalised variant of Kipf & Welling:

    A_hat = D^{-1/2} (A + A^T + I) D^{-1/2}

We symmetrise the DAG's adjacency (information should flow both along and
against the data-flow edges during neighbourhood aggregation) and add
self-loops before normalising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FeaturizationError
from repro.scope.plan import QueryPlan

__all__ = [
    "normalized_adjacency",
    "GraphSample",
    "graph_sample_from_matrix",
]


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically normalised adjacency with self-loops (GCN style)."""
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise FeaturizationError("adjacency must be a square matrix")
    n = adjacency.shape[0]
    symmetric = np.clip(adjacency + adjacency.T, 0.0, 1.0) + np.eye(n)
    degrees = symmetric.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return symmetric * inv_sqrt[:, None] * inv_sqrt[None, :]


@dataclass(frozen=True)
class GraphSample:
    """One GNN input: node features plus normalised adjacency."""

    node_features: np.ndarray  # N x P_O
    adjacency: np.ndarray  # N x N, normalised

    def __post_init__(self) -> None:
        n_nodes = self.node_features.shape[0]
        if self.adjacency.shape != (n_nodes, n_nodes):
            raise FeaturizationError(
                "node features and adjacency disagree on node count"
            )

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])


def graph_sample_from_matrix(
    matrix: np.ndarray, plan: QueryPlan
) -> GraphSample:
    """Build a GNN sample from an already-computed operator feature matrix."""
    adjacency = normalized_adjacency(plan.adjacency_matrix())
    return GraphSample(node_features=matrix, adjacency=adjacency)
