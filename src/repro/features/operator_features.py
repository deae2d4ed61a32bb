"""Operator-level featurization (Table 1, GNN input).

Each operator becomes a fixed-width vector laid out per
:data:`~repro.features.schema.OPERATOR_SCHEMA`:

``[log1p(continuous) | discrete | one-hot operator kind | one-hot
partitioning]``

and a plan becomes an ``N x P_O`` matrix with rows in topological order —
the same order as the adjacency matrix from
:meth:`repro.scope.plan.QueryPlan.adjacency_matrix`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import attrgetter

import numpy as np

from repro.features.schema import OPERATOR_SCHEMA, FeatureSchema
from repro.scope.plan import OperatorNode, QueryPlan

__all__ = ["operator_vector", "plan_feature_matrix"]


def operator_vector(
    node: OperatorNode, schema: FeatureSchema = OPERATOR_SCHEMA
) -> np.ndarray:
    """Featurize a single operator into a ``P_O``-width vector."""
    return _operator_matrix([node], schema)[0]


def plan_feature_matrix(
    plan: QueryPlan, schema: FeatureSchema = OPERATOR_SCHEMA
) -> np.ndarray:
    """Featurize a plan into an ``N x P_O`` matrix in topological order."""
    nodes = [plan.nodes[op_id] for op_id in plan.topological_order]
    return _operator_matrix(nodes, schema)


def _operator_matrix(
    nodes: Sequence[OperatorNode], schema: FeatureSchema
) -> np.ndarray:
    """One row per operator, built in one pass over the operators.

    The Python loop only gathers attribute values and one-hot columns;
    the log transform and each block write then take one numpy call for
    all rows. Every operation is elementwise, so a row's bits do not
    depend on the other operators it is built with.
    """
    numeric_values, kind_column, part_column = _layout(schema)
    numeric = np.array([numeric_values(node) for node in nodes], dtype=float)
    numeric = numeric.reshape(len(nodes), -1)
    rows = np.arange(len(nodes))

    matrix = np.zeros((len(nodes), schema.operator_dim), dtype=np.float64)
    matrix[:, schema.continuous_slice()] = np.log1p(
        np.clip(numeric[:, : schema.num_continuous], 0.0, None)
    )
    matrix[:, schema.discrete_slice()] = numeric[:, schema.num_continuous :]
    matrix[rows, [kind_column[node.kind] for node in nodes]] = 1.0
    matrix[rows, [part_column[node.partitioning] for node in nodes]] = 1.0
    return matrix


@lru_cache(maxsize=None)
def _layout(schema: FeatureSchema) -> tuple[attrgetter, dict, dict]:
    """The numeric attribute getter and the one-hot column of each category."""
    kind_start = schema.operator_kind_slice().start
    part_start = schema.partitioning_slice().start
    return (
        attrgetter(*schema.continuous, *schema.discrete),
        {kind: kind_start + i for i, kind in enumerate(schema.operator_kinds)},
        {
            method: part_start + i
            for i, method in enumerate(schema.partitioning_methods)
        },
    )
