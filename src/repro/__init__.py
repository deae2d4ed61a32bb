"""TASQ reproduction: optimal resource allocation for big data analytics.

A full reimplementation of the EDBT 2022 paper *"Towards Optimal Resource
Allocation for Big Data Analytics"* (Pimpley et al., Microsoft): the TASQ
pipeline for predicting performance characteristic curves (PCCs) of
analytical jobs, the AREPAS area-preserving skyline simulator for training
data augmentation, XGBoost/NN/GNN prediction models with constrained loss
functions, and a SCOPE-like cluster substrate that stands in for the
proprietary Microsoft production traces.

Quickstart::

    from repro import (
        WorkloadGenerator, run_workload, TrainingPipeline, ScoringPipeline,
    )

    jobs = WorkloadGenerator(seed=0).generate(200)
    repository = run_workload(jobs, seed=0)
    trained = TrainingPipeline().run(repository)
    scorer = ScoringPipeline(trained.get("nn"))
    recommendation = scorer.score(jobs[0].plan, jobs[0].requested_tokens)
    print(recommendation.optimal_tokens, recommendation.predicted_slowdown)
"""

from repro.arepas import AREPAS, simulate_runtime, simulate_skyline
from repro.exceptions import ReproError
from repro.flighting import FlightHarness, build_flighted_dataset
from repro import obs
from repro.obs import MetricsRegistry
from repro.models import (
    GNNPCCModel,
    NNPCCModel,
    XGBoostPL,
    XGBoostSS,
    build_dataset,
    evaluate_model,
)
from repro.pcc import PowerLawPCC, fit_power_law, optimal_tokens
from repro.scope import (
    ClusterExecutor,
    JobRepository,
    QueryPlan,
    WorkloadGenerator,
    run_workload,
)
from repro.serving import AllocationServer, LoadGenerator, ServerConfig
from repro.skyline import Skyline
from repro.tasq import (
    ScoringPipeline,
    TokenRecommendation,
    TrainingPipeline,
    token_reduction_report,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "obs",
    "Skyline",
    "AREPAS",
    "simulate_skyline",
    "simulate_runtime",
    "PowerLawPCC",
    "fit_power_law",
    "optimal_tokens",
    "QueryPlan",
    "WorkloadGenerator",
    "ClusterExecutor",
    "JobRepository",
    "run_workload",
    "build_dataset",
    "evaluate_model",
    "XGBoostSS",
    "XGBoostPL",
    "NNPCCModel",
    "GNNPCCModel",
    "FlightHarness",
    "build_flighted_dataset",
    "TrainingPipeline",
    "ScoringPipeline",
    "TokenRecommendation",
    "token_reduction_report",
    "AllocationServer",
    "ServerConfig",
    "MetricsRegistry",
    "LoadGenerator",
    "__version__",
]
