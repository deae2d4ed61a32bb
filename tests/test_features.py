"""Unit tests for featurization (Tables 1-2)."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import FeaturizationError
from repro.features import (
    JOB_EXTRA_FEATURES,
    OPERATOR_SCHEMA,
    GraphSample,
    job_feature_matrix,
    job_feature_names,
    job_vector,
    normalized_adjacency,
    operator_vector,
    plan_feature_matrix,
    plan_to_graph_sample,
)
from repro.scope import (
    OperatorNode,
    PartitioningMethod,
    QueryPlan,
    WorkloadConfig,
    WorkloadGenerator,
)


def _reference_operator_vector(node, schema=OPERATOR_SCHEMA):
    """The per-operator featurization that ``plan_feature_matrix`` batches."""
    vector = np.zeros(schema.operator_dim, dtype=np.float64)
    continuous = np.array(
        [getattr(node, name) for name in schema.continuous], dtype=float
    )
    vector[schema.continuous_slice()] = np.log1p(np.clip(continuous, 0.0, None))
    vector[schema.discrete_slice()] = [
        float(getattr(node, name)) for name in schema.discrete
    ]
    kind_index = schema.operator_kinds.index(node.kind)
    vector[schema.operator_kind_slice()][kind_index] = 1.0
    part_index = schema.partitioning_methods.index(node.partitioning)
    vector[schema.partitioning_slice()][part_index] = 1.0
    return vector


@pytest.fixture()
def small_plan():
    nodes = {
        0: OperatorNode(
            op_id=0, kind="Extract", output_cardinality=1000,
            leaf_input_cardinality=1000, average_row_length=80,
            cost_subtree=10, cost_exclusive=10, cost_total=12,
            num_partitions=4,
        ),
        1: OperatorNode(
            op_id=1, kind="Sort", children=(0,), output_cardinality=1000,
            leaf_input_cardinality=1000, children_input_cardinality=1000,
            average_row_length=80, cost_subtree=15, cost_exclusive=5,
            cost_total=6, num_partitions=4, num_sort_columns=2,
            partitioning=PartitioningMethod.RANGE,
        ),
        2: OperatorNode(
            op_id=2, kind="Output", children=(1,), output_cardinality=1000,
            cost_exclusive=1, num_partitions=4,
        ),
    }
    return QueryPlan(job_id="small", nodes=nodes)


class TestSchema:
    def test_dimensions(self):
        # 7 continuous + 3 discrete + 35 operators + 4 partitioning = 49.
        assert OPERATOR_SCHEMA.operator_dim == 49
        assert OPERATOR_SCHEMA.job_dim == 51
        assert JOB_EXTRA_FEATURES == ("num_operators", "num_stages")

    def test_slices_partition_the_vector(self):
        schema = OPERATOR_SCHEMA
        slices = [
            schema.continuous_slice(),
            schema.discrete_slice(),
            schema.operator_kind_slice(),
            schema.partitioning_slice(),
        ]
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(schema.operator_dim))

    def test_column_names(self):
        names = OPERATOR_SCHEMA.column_names()
        assert len(names) == OPERATOR_SCHEMA.operator_dim
        assert names[0] == "output_cardinality"
        assert "op:HashJoin" in names
        assert "part:hash" in names

    def test_job_feature_names(self):
        names = job_feature_names()
        assert len(names) == OPERATOR_SCHEMA.job_dim
        assert names[-2:] == ["num_operators", "num_stages"]


class TestOperatorVector:
    def test_one_hot_positions(self, small_plan):
        vector = operator_vector(small_plan.nodes[1])
        kinds = vector[OPERATOR_SCHEMA.operator_kind_slice()]
        assert kinds.sum() == 1.0
        kind_index = OPERATOR_SCHEMA.operator_kinds.index("Sort")
        assert kinds[kind_index] == 1.0
        partitioning = vector[OPERATOR_SCHEMA.partitioning_slice()]
        assert partitioning.sum() == 1.0

    def test_continuous_log_transformed(self, small_plan):
        vector = operator_vector(small_plan.nodes[0])
        continuous = vector[OPERATOR_SCHEMA.continuous_slice()]
        assert continuous[0] == pytest.approx(np.log1p(1000))

    def test_discrete_passthrough(self, small_plan):
        vector = operator_vector(small_plan.nodes[1])
        discrete = vector[OPERATOR_SCHEMA.discrete_slice()]
        assert list(discrete) == [4.0, 0.0, 2.0]

    def test_plan_matrix_in_topological_order(self, small_plan):
        matrix = plan_feature_matrix(small_plan)
        assert matrix.shape == (3, 49)
        for row, op_id in zip(matrix, small_plan.topological_order):
            expected = operator_vector(small_plan.nodes[op_id])
            assert np.allclose(row, expected)

    @pytest.mark.parametrize("recurring_fraction", [0.0, 1.0])
    def test_plan_matrix_matches_per_operator_loop_bit_for_bit(
        self, recurring_fraction
    ):
        config = WorkloadConfig(recurring_fraction=recurring_fraction)
        jobs = WorkloadGenerator(config, seed=17).generate(260)
        for job in jobs:
            plan = job.plan
            want = np.vstack(
                [
                    _reference_operator_vector(plan.nodes[op_id])
                    for op_id in plan.topological_order
                ]
            )
            got = plan_feature_matrix(plan)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_operator_vector_is_the_one_row_matrix(self, small_plan):
        for node in small_plan.nodes.values():
            got = operator_vector(node)
            assert got.shape == (OPERATOR_SCHEMA.operator_dim,)
            assert got.tobytes() == _reference_operator_vector(node).tobytes()

    def test_non_finite_estimates_pass_through_the_log(self, small_plan):
        node = small_plan.nodes[1]
        for value in (np.nan, np.inf, -np.inf, -5.0):
            odd = dataclasses.replace(node, output_cardinality=value)
            assert (
                operator_vector(odd).tobytes()
                == _reference_operator_vector(odd).tobytes()
            )


class TestJobVector:
    def test_categoricals_are_counts(self, small_plan):
        vector = job_vector(small_plan)
        kinds = vector[OPERATOR_SCHEMA.operator_kind_slice()]
        assert kinds.sum() == 3.0  # three operators, counted not averaged

    def test_numeric_are_means(self, small_plan):
        matrix = plan_feature_matrix(small_plan)
        vector = job_vector(small_plan)
        numeric = slice(0, 10)
        assert np.allclose(vector[numeric], matrix[:, numeric].mean(axis=0))

    def test_structural_extras(self, small_plan):
        vector = job_vector(small_plan)
        assert vector[OPERATOR_SCHEMA.operator_dim] == 3.0  # operators
        assert vector[OPERATOR_SCHEMA.operator_dim + 1] == small_plan.num_stages

    def test_job_matrix_stacks(self, small_plan):
        matrix = job_feature_matrix([small_plan, small_plan])
        assert matrix.shape == (2, 51)
        assert np.allclose(matrix[0], matrix[1])

    def test_fixed_width_across_different_plans(self, workload_jobs):
        matrix = job_feature_matrix([j.plan for j in workload_jobs[:10]])
        assert matrix.shape == (10, 51)
        assert np.all(np.isfinite(matrix))


class TestGraphFeatures:
    def test_normalized_adjacency_properties(self, small_plan):
        normalized = normalized_adjacency(small_plan.adjacency_matrix())
        assert normalized.shape == (3, 3)
        assert np.allclose(normalized, normalized.T)
        eigenvalues = np.linalg.eigvalsh(normalized)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(FeaturizationError):
            normalized_adjacency(np.ones((2, 3)))

    def test_graph_sample_consistency(self, small_plan):
        sample = plan_to_graph_sample(small_plan)
        assert sample.num_nodes == 3
        assert sample.node_features.shape == (3, 49)
        assert sample.adjacency.shape == (3, 3)

    def test_graph_sample_validates_shapes(self):
        with pytest.raises(FeaturizationError):
            GraphSample(
                node_features=np.ones((3, 5)), adjacency=np.ones((2, 2))
            )
