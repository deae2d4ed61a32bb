"""TASQ end-to-end pipelines, model store, and what-if analysis."""

from repro.tasq.explain import explain_recommendation, render_pcc_chart
from repro.tasq.model_store import ModelRecord, ModelStore
from repro.tasq.monitoring import MonitorSnapshot, PredictionMonitor
from repro.tasq.price_performance import (
    PricePoint,
    cheapest_within_deadline,
    job_cost,
    pareto_frontier,
)
from repro.tasq.pipeline import (
    ScoringPipeline,
    TasqConfig,
    TokenRecommendation,
    TrainedModels,
    TrainingPipeline,
)
from repro.tasq.whatif import (
    REDUCTION_BUCKETS,
    TokenReductionReport,
    minimum_tokens_within_budget,
    token_reduction_report,
)

__all__ = [
    "explain_recommendation",
    "render_pcc_chart",
    "ModelStore",
    "ModelRecord",
    "PredictionMonitor",
    "MonitorSnapshot",
    "TasqConfig",
    "TrainingPipeline",
    "TrainedModels",
    "ScoringPipeline",
    "TokenRecommendation",
    "PricePoint",
    "job_cost",
    "cheapest_within_deadline",
    "pareto_frontier",
    "REDUCTION_BUCKETS",
    "TokenReductionReport",
    "minimum_tokens_within_budget",
    "token_reduction_report",
]
