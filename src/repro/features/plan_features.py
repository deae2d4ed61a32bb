"""One featurization of a plan for every model family and every caller.

Training (:func:`~repro.models.dataset.build_dataset`), flighting
(:meth:`~repro.flighting.dataset.FlightedDataset.to_pcc_dataset`) and
serving all featurize through :func:`featurize`, so a model scores
exactly the bits it was fitted on. Training keeps both representations;
scoring builds the graph sample only for a model that reads it
(:attr:`~repro.models.base.PCCPredictor.reads_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.graph_features import GraphSample, graph_sample_from_matrix
from repro.features.job_features import job_vector_from_matrix
from repro.features.operator_features import plan_feature_matrix
from repro.features.schema import OPERATOR_SCHEMA, FeatureSchema
from repro.obs import get_registry, trace
from repro.scope.plan import QueryPlan

__all__ = ["PlanFeatures", "featurize"]


@dataclass(frozen=True)
class PlanFeatures:
    """The model-facing representations of one compile-time plan.

    Produced by :func:`featurize`; pure (depends only on the plan), so
    serving layers can cache it and hand it back to
    :meth:`~repro.tasq.pipeline.ScoringPipeline.score_batch` to skip
    re-featurization. ``graph`` is None when the plan was featurized
    without it (``featurize(plan, graph=False)``).
    """

    job_vector: np.ndarray
    graph: GraphSample | None


def featurize(
    plan: QueryPlan,
    schema: FeatureSchema = OPERATOR_SCHEMA,
    *,
    graph: bool = True,
) -> PlanFeatures:
    """Featurize a plan once for every model family that reads it.

    Runs the per-operator featurization (the expensive step) a single
    time and derives the aggregated job vector (XGBoost/NN input) from
    the matrix, and with ``graph`` also the graph sample (GNN input),
    which adds the plan's normalised adjacency. The job vector is the
    same bits either way.
    """
    with trace.span("features.featurize", job=plan.job_id):
        matrix = plan_feature_matrix(plan, schema)
        features = PlanFeatures(
            job_vector=job_vector_from_matrix(matrix, plan, schema),
            graph=graph_sample_from_matrix(matrix, plan) if graph else None,
        )
    if trace.enabled:
        get_registry().counter("features_plans_featurized").increment()
    return features
