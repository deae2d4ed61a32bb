"""Aggregated job-level featurization (Table 2, XGBoost/NN input).

XGBoost and the feed-forward NN need one fixed-width vector per job, so
operator-level features are aggregated (Section 4.3):

* continuous and discrete variables — aggregated by **mean** over the
  plan's operators,
* categorical variables — aggregated by **frequency count** (how many
  operators of each kind / partitioning method the plan contains),
* plus the number of operators and the number of stages.
"""

from __future__ import annotations

import numpy as np

from repro.features.operator_features import plan_feature_matrix
from repro.features.schema import JOB_EXTRA_FEATURES, OPERATOR_SCHEMA, FeatureSchema
from repro.scope.plan import QueryPlan

__all__ = [
    "job_vector_from_matrix",
    "job_feature_matrix",
    "job_feature_names",
]


def job_vector_from_matrix(
    matrix: np.ndarray, plan: QueryPlan, schema: FeatureSchema = OPERATOR_SCHEMA
) -> np.ndarray:
    """Aggregate a plan's operator feature matrix into a ``P_J``-width vector.

    :func:`repro.features.featurize` derives the job vector and the GNN
    graph sample from one matrix.
    """
    vector = np.zeros(schema.job_dim, dtype=np.float64)

    numeric = slice(0, schema.num_continuous + schema.num_discrete)
    vector[numeric] = matrix[:, numeric].mean(axis=0)

    categorical = slice(schema.num_continuous + schema.num_discrete,
                        schema.operator_dim)
    vector[categorical] = matrix[:, categorical].sum(axis=0)

    vector[schema.operator_dim] = float(plan.num_operators)
    vector[schema.operator_dim + 1] = float(plan.num_stages)
    return vector


def job_feature_matrix(
    plans: list[QueryPlan], schema: FeatureSchema = OPERATOR_SCHEMA
) -> np.ndarray:
    """Stack job vectors for a list of plans into an ``M x P_J`` matrix."""
    return np.vstack(
        [
            job_vector_from_matrix(
                plan_feature_matrix(plan, schema), plan, schema
            )
            for plan in plans
        ]
    )


def job_feature_names(schema: FeatureSchema = OPERATOR_SCHEMA) -> list[str]:
    """Column names of the job-level vector, for debugging/reporting."""
    return schema.column_names() + list(JOB_EXTRA_FEATURES)
