"""Featurization: Table 1 schema, operator/job/graph feature extraction."""

from repro.features.encoders import StandardScaler, TargetScaler, log1p_continuous
from repro.features.graph_features import GraphSample, normalized_adjacency
from repro.features.job_features import job_feature_matrix, job_feature_names
from repro.features.operator_features import operator_vector, plan_feature_matrix
from repro.features.plan_features import PlanFeatures, featurize
from repro.features.schema import (
    CONTINUOUS_FEATURES,
    DISCRETE_FEATURES,
    JOB_EXTRA_FEATURES,
    OPERATOR_SCHEMA,
    FeatureSchema,
)

__all__ = [
    "FeatureSchema",
    "OPERATOR_SCHEMA",
    "CONTINUOUS_FEATURES",
    "DISCRETE_FEATURES",
    "JOB_EXTRA_FEATURES",
    "operator_vector",
    "plan_feature_matrix",
    "PlanFeatures",
    "featurize",
    "job_feature_matrix",
    "job_feature_names",
    "GraphSample",
    "normalized_adjacency",
    "StandardScaler",
    "TargetScaler",
    "log1p_continuous",
]
