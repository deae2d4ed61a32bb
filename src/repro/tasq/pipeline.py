"""End-to-end TASQ training and scoring pipelines (Figure 4).

The production system ingests historical telemetry, featurizes it, trains
PCC prediction models, registers them, and serves predictions for
incoming jobs at compile time. This module reproduces that flow
in-process:

* :class:`TrainingPipeline` — repository -> AREPAS augmentation ->
  featurization -> model training -> registration in a
  :class:`~repro.tasq.model_store.ModelStore`.
* :class:`ScoringPipeline` — compile-time plan -> features -> predicted
  PCC -> token recommendation (optimal tokens + expected trade-off).

With ``risk=`` set, scoring consumes the model's predicted
:class:`~repro.pcc.intervals.PCCInterval` instead of the point curve
alone: the marginal-improvement optimum still comes from the median
curve, but the ``max_slowdown`` SLO floor is strengthened to hold at the
risk quantile of the run-time distribution (see ``docs/uncertainty.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.exceptions import FittingError, PipelineError
from repro.features.graph_features import GraphSample, graph_sample_from_matrix
from repro.features.job_features import job_vector_from_matrix
from repro.features.operator_features import plan_feature_matrix
from repro.features.schema import OPERATOR_SCHEMA, FeatureSchema
from repro.ml import compiled as compiled_kernels
from repro.models.base import PCCPredictor
from repro.models.dataset import PCCDataset, PCCExample, build_dataset
from repro.models.gnn_model import GNNPCCModel
from repro.models.nn_model import NNPCCModel
from repro.models.training import TrainConfig
from repro.models.xgboost_models import XGBoostPL, XGBoostSS
from repro.obs import get_registry, trace
from repro.parallel import pmap
from repro.pcc.curve import PowerLawPCC
from repro.pcc.intervals import PCCInterval, tokens_within_slowdown_at_risk
from repro.scope.plan import QueryPlan
from repro.scope.repository import JobRepository
from repro.tasq.model_store import ModelStore

__all__ = [
    "TasqConfig",
    "TrainedModels",
    "TrainingPipeline",
    "TokenRecommendation",
    "PlanFeatures",
    "featurize",
    "ScoringPipeline",
]


#: The model families in registration order.
_MODEL_NAMES = ("xgboost_ss", "xgboost_pl", "nn", "gnn")
#: The families the process pool fits, longest first so the slowest
#: starts at once (on a 600-job window in a two-process pool the booster
#: and the GNN fits each take about 1.6-2.0 s, the NN 0.3 s).
#: ``xgboost_ss`` is not fitted: it shares ``xgboost_pl``'s booster.
_FIT_ORDER = ("xgboost_pl", "gnn", "nn")


@dataclass(frozen=True)
class TasqConfig:
    """Which models the training pipeline fits, and how."""

    train_xgboost: bool = True
    train_nn: bool = True
    train_gnn: bool = True
    nn_train_config: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=60)
    )
    gnn_train_config: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=30, batch_size=32,
                                            learning_rate=2e-3)
    )
    seed: int = 0


@dataclass
class TrainedModels:
    """Output of one training run."""

    dataset: PCCDataset
    models: dict[str, PCCPredictor]

    def get(self, name: str) -> PCCPredictor:
        try:
            return self.models[name]
        except KeyError:
            raise PipelineError(f"pipeline did not train a model named {name!r}")


class TrainingPipeline:
    """Repository -> featurized dataset -> fitted models -> model store."""

    def __init__(
        self,
        config: TasqConfig | None = None,
        store: ModelStore | None = None,
    ) -> None:
        self.config = config or TasqConfig()
        self.store = store or ModelStore()

    def run(
        self,
        repository: JobRepository,
        workers: int = 1,
        cache=None,
    ) -> TrainedModels:
        """Train every configured model on the repository's telemetry.

        ``workers > 1`` parallelizes both dataset construction (per
        record) and the model fits (the families are independent given
        the dataset, so they run concurrently across the pool, longest
        first). XGBoost SS and PL train the same booster, so it is fitted
        once, for PL, and SS shares it. Every model is seeded, so parallel
        training produces bit-identical models. ``cache`` (an
        :class:`~repro.cache.ArtifactCache` or a directory path) memoizes
        per-record dataset artifacts across runs.
        """
        config = self.config
        enabled = {
            "xgboost_pl": config.train_xgboost,
            "nn": config.train_nn,
            "gnn": config.train_gnn,
        }
        tasks = [name for name in _FIT_ORDER if enabled[name]]
        if not tasks:
            raise PipelineError("configuration enables no models")
        with trace.span("tasq.train_pipeline", jobs=len(repository)):
            dataset = build_dataset(repository, workers=workers, cache=cache)
            fits = pmap(
                partial(_fit_named_model, dataset=dataset, config=config),
                tasks,
                workers=workers,
            )
            fitted: dict[str, PCCPredictor] = dict(zip(tasks, fits))
            if config.train_xgboost:
                fitted["xgboost_ss"] = XGBoostSS.from_fitted(
                    fitted["xgboost_pl"]
                )
            models = {
                name: fitted[name] for name in _MODEL_NAMES if name in fitted
            }

        for name, model in models.items():
            self.store.register(
                name, model, metadata={"train_jobs": len(dataset)}
            )
        return TrainedModels(dataset=dataset, models=models)


def _fit_named_model(
    name: str, dataset: PCCDataset, config: TasqConfig
) -> PCCPredictor:
    """Top-level (hence picklable) pmap task: fit one model family."""
    with trace.span("tasq.fit", model=name):
        if name == "xgboost_pl":
            return XGBoostPL(seed=config.seed).fit(dataset)
        if name == "nn":
            return NNPCCModel(
                train_config=config.nn_train_config, seed=config.seed
            ).fit(dataset)
        if name == "gnn":
            return GNNPCCModel(
                train_config=config.gnn_train_config, seed=config.seed
            ).fit(dataset)
    raise PipelineError(f"unknown model family: {name!r}")


@dataclass(frozen=True)
class TokenRecommendation:
    """The scoring pipeline's answer for one incoming job."""

    job_id: str
    pcc: PowerLawPCC
    requested_tokens: int
    optimal_tokens: int
    predicted_runtime_at_requested: float
    predicted_runtime_at_optimal: float
    #: Predicted q10/q50/q90 curves (None for risk-unaware scoring, and
    #: degenerate when the model has no uncertainty heads).
    pcc_interval: PCCInterval | None = None
    #: The risk level the recommendation was made at (None = point).
    risk: float | None = None

    def runtime_interval_at(self, tokens: float) -> tuple[float, float, float]:
        """``(lo, mid, hi)`` predicted run times at one allocation."""
        if self.pcc_interval is not None:
            return self.pcc_interval.runtime_interval(tokens)
        point = float(self.pcc.runtime(tokens))
        return point, point, point

    @property
    def token_savings(self) -> float:
        """Fraction of the requested tokens the recommendation saves."""
        return 1.0 - self.optimal_tokens / self.requested_tokens

    @property
    def predicted_slowdown(self) -> float:
        """Expected fractional run-time increase at the recommendation."""
        return (
            self.predicted_runtime_at_optimal
            / self.predicted_runtime_at_requested
            - 1.0
        )


@dataclass(frozen=True)
class PlanFeatures:
    """Both model-facing representations of one compile-time plan.

    Produced by :func:`featurize`; pure (depends only on the plan), so
    serving layers can cache it and hand it back to
    :meth:`ScoringPipeline.score_batch` to skip re-featurization.
    """

    job_vector: np.ndarray
    graph: GraphSample


def featurize(
    plan: QueryPlan, schema: FeatureSchema = OPERATOR_SCHEMA
) -> PlanFeatures:
    """Featurize a plan once for every model family.

    Runs the per-operator featurization (the expensive step) a single
    time and derives both the aggregated job vector (XGBoost/NN input)
    and the graph sample (GNN input) from the same matrix — previously
    each representation recomputed the matrix independently.
    """
    with trace.span("tasq.featurize", job=plan.job_id):
        matrix = plan_feature_matrix(plan, schema)
        features = PlanFeatures(
            job_vector=job_vector_from_matrix(matrix, plan, schema),
            graph=graph_sample_from_matrix(matrix, plan),
        )
    if trace.enabled:
        get_registry().counter("tasq_plans_featurized").increment()
    return features


def _scoring_dataset(
    job_ids: list[str],
    tokens: np.ndarray,
    features: list[PlanFeatures],
) -> PCCDataset:
    """Wrap featurized compile-time jobs into the dataset shape models eat.

    Scoring has no ground truth, so targets/observations are inert
    placeholders — prediction paths only read features and the reference
    token counts. Only identifiers and :class:`PlanFeatures` are needed,
    so callers holding precomputed features (a serving feature cache)
    never touch a :class:`~repro.scope.plan.QueryPlan` here.
    """
    placeholder = PowerLawPCC(a=-1.0, b=1.0)
    dataset = PCCDataset()
    for job_id, requested, feats in zip(job_ids, tokens, features):
        dataset.examples.append(
            PCCExample(
                job_id=job_id,
                observed_tokens=float(requested),
                observed_runtime=1.0,
                target_pcc=placeholder,
                job_features=feats.job_vector,
                graph=feats.graph,
                point_observations=(),
            )
        )
    return dataset


class ScoringPipeline:
    """Compile-time scoring: plan -> PCC -> token recommendation.

    Parameters
    ----------
    model:
        A fitted *parametric* PCC predictor (NN, GNN, or XGBoost PL).
    improvement_threshold:
        Marginal-gain cutoff for the optimal allocation (Section 2.1),
        e.g. 0.01 = require >= 1% run-time improvement per extra token.
    max_slowdown:
        Optional SLO: when set, the recommendation is additionally capped
        so predicted slowdown versus the requested allocation stays
        within this budget.
    use_compiled:
        When False, every model prediction inside this pipeline runs
        with :func:`repro.ml.compiled.override` forcing the reference
        (pre-kernel) inference paths — the escape hatch the golden
        regression tests pin recommendations against.
    risk:
        When set (a probability in (0, 1)), recommendations carry the
        model's predicted interval and the ``max_slowdown`` SLO floor is
        enforced at this quantile of the run-time distribution via
        :func:`~repro.pcc.intervals.tokens_within_slowdown_at_risk` —
        ``risk=0.9`` means "the slowdown budget holds with probability
        0.9", not merely in expectation. None (the default) preserves
        the point-estimate behaviour bit-for-bit.
    """

    def __init__(
        self,
        model: PCCPredictor,
        improvement_threshold: float = 0.01,
        max_slowdown: float | None = None,
        use_compiled: bool = True,
        risk: float | None = None,
    ) -> None:
        if improvement_threshold <= 0:
            raise PipelineError("improvement threshold must be positive")
        if risk is not None and not 0.0 < risk < 1.0:
            raise PipelineError("risk must be inside (0, 1)")
        self.model = model
        self.improvement_threshold = improvement_threshold
        self.max_slowdown = max_slowdown
        self.use_compiled = use_compiled
        self.risk = risk

    def score(
        self,
        plan: QueryPlan,
        requested_tokens: int,
        features: PlanFeatures | None = None,
    ) -> TokenRecommendation:
        """Recommendation for a single incoming job."""
        feature_list = None if features is None else [features]
        return self.score_batch([plan], [requested_tokens], feature_list)[0]

    def score_batch(
        self,
        plans: list[QueryPlan],
        requested_tokens: list[int],
        features: list[PlanFeatures] | None = None,
    ) -> list[TokenRecommendation]:
        """Recommendations for a batch of incoming jobs.

        ``features`` optionally carries precomputed :class:`PlanFeatures`
        (one per plan, e.g. from a serving feature cache) so plans are
        not re-featurized on every call.
        """
        if len(plans) != len(requested_tokens):
            raise PipelineError("plans and token requests must align")
        if features is not None and len(features) != len(plans):
            raise PipelineError("plans and precomputed features must align")
        if features is not None:
            return self.score_features(
                [plan.job_id for plan in plans], requested_tokens, features
            )
        if any(t < 1 for t in requested_tokens):
            raise PipelineError("requested tokens must be positive")

        job_ids = [plan.job_id for plan in plans]
        tokens_arr = np.asarray(requested_tokens, float)
        with trace.span("tasq.score_batch", batch=len(plans)):
            dataset = _scoring_dataset(
                job_ids, tokens_arr, [featurize(plan) for plan in plans]
            )
            pccs, intervals = self._predict_pccs(dataset)
        return self._finalize(
            job_ids, requested_tokens, tokens_arr, pccs, intervals
        )

    def score_features(
        self,
        job_ids: list[str],
        requested_tokens: list[int],
        features: list[PlanFeatures],
    ) -> list[TokenRecommendation]:
        """Recommendations from identifiers plus precomputed features.

        The plan-free half of scoring: :meth:`score_batch` with
        precomputed ``features`` (e.g. from the serving feature cache)
        delegates here, so both paths are bit-identical.
        """
        if not len(job_ids) == len(requested_tokens) == len(features):
            raise PipelineError(
                "job ids, token requests, and features must align"
            )
        if any(t < 1 for t in requested_tokens):
            raise PipelineError("requested tokens must be positive")

        tokens_arr = np.asarray(requested_tokens, float)
        # Features precomputed: wrapping them into the dataset shape
        # is cheap bookkeeping — keep it out of the traced span so
        # `tasq.score_batch` measures actual scoring work.
        dataset = _scoring_dataset(job_ids, tokens_arr, features)
        with trace.span("tasq.score_batch", batch=len(job_ids)):
            pccs, intervals = self._predict_pccs(dataset)
        return self._finalize(
            job_ids, requested_tokens, tokens_arr, pccs, intervals
        )

    def _predict_pccs(
        self, dataset: PCCDataset
    ) -> tuple[list[PowerLawPCC] | None, list[PCCInterval] | None]:
        """Model inference for one scoring dataset (shared by both entries)."""
        batch = len(dataset.examples)
        with trace.span("tasq.predict_pccs", batch=batch):
            intervals: list[PCCInterval] | None = None
            if self.use_compiled:
                if self.risk is not None:
                    intervals = self.model.predict_pcc_intervals(dataset)
                    pccs = (
                        None
                        if intervals is None
                        else [iv.mid for iv in intervals]
                    )
                else:
                    pccs = self.model.predict_pccs(dataset)
            else:
                with compiled_kernels.override(False):
                    if self.risk is not None:
                        intervals = self.model.predict_pcc_intervals(
                            dataset
                        )
                        pccs = (
                            None
                            if intervals is None
                            else [iv.mid for iv in intervals]
                        )
                    else:
                        pccs = self.model.predict_pccs(dataset)
        if trace.enabled:
            get_registry().counter("tasq_jobs_scored").increment(batch)
        return pccs, intervals

    def _finalize(
        self,
        job_ids: list[str],
        requested_tokens: list[int],
        tokens_arr: np.ndarray,
        pccs: list[PowerLawPCC] | None,
        intervals: list[PCCInterval] | None,
    ) -> list[TokenRecommendation]:
        if pccs is None:
            raise PipelineError(
                f"{self.model.name} is non-parametric; scoring needs a "
                "parametric PCC model (NN, GNN, or XGBoost PL)"
            )

        best, run_requested, run_best = self._recommend_vectorized(
            pccs, tokens_arr, intervals
        )
        if intervals is None:
            intervals = [None] * len(pccs)
        return [
            TokenRecommendation(
                job_id=job_id,
                pcc=pcc,
                requested_tokens=int(requested),
                optimal_tokens=int(chosen),
                predicted_runtime_at_requested=float(at_requested),
                predicted_runtime_at_optimal=float(at_best),
                pcc_interval=interval,
                risk=self.risk,
            )
            for job_id, requested, pcc, chosen, at_requested, at_best,
            interval
            in zip(
                job_ids, requested_tokens, pccs, best, run_requested,
                run_best, intervals,
            )
        ]

    def _recommend_vectorized(
        self,
        pccs: list[PowerLawPCC],
        requested: np.ndarray,
        intervals: list[PCCInterval] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch closed forms for the whole recommendation loop.

        Evaluates :func:`~repro.pcc.optimal.optimal_tokens`,
        :func:`~repro.pcc.optimal.tokens_for_slowdown`, and
        ``pcc.runtime`` over the batch with one array expression each —
        the scalar helpers remain the reference semantics (and the unit
        under property tests), but scoring no longer pays a Python loop
        of scalar power evaluations per batch.
        """
        a = np.array([pcc.a for pcc in pccs], dtype=float)
        b = np.array([pcc.b for pcc in pccs], dtype=float)
        if np.any(a > 0):
            raise FittingError(
                "optimal allocation is undefined for an increasing PCC"
            )

        # optimal_tokens: A* = floor(-a / threshold), clamped to
        # [1, requested] (min applied after the max, as in the scalar).
        ideal = np.floor(-a / self.improvement_threshold)
        best = np.minimum(
            np.maximum(1, ideal.astype(np.int64)), requested.astype(np.int64)
        )

        if self.max_slowdown is not None:
            # tokens_for_slowdown: A >= ref * (1 + s)^(1/a) for a < 0;
            # flat curves (a == 0) accept any allocation.
            flat = a == 0
            safe_a = np.where(flat, -1.0, a)
            bound = requested * np.power(
                1.0 + self.max_slowdown, 1.0 / safe_a
            )
            floor_tokens = np.maximum(
                1,
                np.minimum(
                    np.ceil(bound - 1e-9).astype(np.int64),
                    np.ceil(requested).astype(np.int64),
                ),
            )
            floor_tokens = np.where(flat, 1, floor_tokens)
            best = np.maximum(best, floor_tokens)

            if self.risk is not None and intervals is not None:
                # Strengthen the SLO floor to the risk quantile; the
                # risk floor dominates the expectation floor for
                # risk >= 0.5 and is capped at the request (never
                # recommend more than asked, matching the point rule).
                risk_floor = np.array(
                    [
                        min(
                            tokens_within_slowdown_at_risk(
                                interval, self.risk, ref, self.max_slowdown
                            )
                            or np.inf,
                            np.ceil(ref),
                        )
                        for interval, ref in zip(intervals, requested)
                    ],
                    dtype=np.int64,
                )
                best = np.maximum(best, risk_floor)

        run_requested = b * np.power(requested, a)
        run_best = b * np.power(best.astype(float), a)
        return best, run_requested, run_best
