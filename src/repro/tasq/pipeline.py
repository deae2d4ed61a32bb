"""End-to-end TASQ training and scoring pipelines (Figure 4).

The production system ingests historical telemetry, featurizes it, trains
PCC prediction models, registers them, and serves predictions for
incoming jobs at compile time. This module reproduces that flow
in-process:

* :class:`TrainingPipeline` — repository -> AREPAS augmentation ->
  featurization -> model training -> registration in a
  :class:`~repro.tasq.model_store.ModelStore`.
* :class:`ScoringPipeline` — compile-time plan -> features -> predicted
  PCC -> token recommendation (optimal tokens + expected trade-off), or
  ``None`` for a row whose predicted PCC increases (no optimum exists).

With ``risk=`` set, scoring consumes the model's predicted
:class:`~repro.pcc.intervals.PCCInterval` instead of the point curve
alone: the marginal-improvement optimum still comes from the median
curve, but the ``max_slowdown`` SLO floor is strengthened to hold at the
risk quantile of the run-time distribution (see ``docs/uncertainty.md``).
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.exceptions import FittingError, PipelineError
from repro.features.plan_features import PlanFeatures, featurize
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
    "fit_serving_model",
    "TokenRecommendation",
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
    """Repository -> featurized dataset -> fitted models -> model store.

    Every fitted model is registered in the pipeline's own ``store``.
    """

    def __init__(self, config: TasqConfig | None = None) -> None:
        self.config = config or TasqConfig()
        self.store = ModelStore()

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


def fit_serving_model(
    dataset: PCCDataset, seed: int, intervals: bool = False
) -> XGBoostPL:
    """Fit the model the allocation server serves.

    Every path that serves a model it fits itself comes here, so the
    served family is chosen in one place. ``intervals`` adds the
    quantile heads that risk floors (``risk=``) read.
    """
    return XGBoostPL(seed=seed, quantile_heads=intervals).fit(dataset)


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


def _token_requests(requested_tokens: list[int]) -> list[int]:
    """The requests as ints; :class:`PipelineError` unless each is an
    integer (NumPy integers pass, floats do not) of at least 1."""
    try:
        tokens = [operator.index(t) for t in requested_tokens]
    except TypeError:
        raise PipelineError("requested tokens must be integers") from None
    if any(t < 1 for t in tokens):
        raise PipelineError("requested tokens must be positive")
    return tokens


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

    A row whose predicted PCC increases (``a > 0``) has no optimal
    allocation (Section 2.1); XGBoost PL predicts one for about a
    quarter of jobs in the paper (§5). :meth:`score_batch` and
    :meth:`score_features` answer such a row ``None`` and score the
    others exactly as alone; :meth:`score` raises ``FittingError``.

    Parameters
    ----------
    model:
        A fitted *parametric* PCC predictor (NN, GNN, or XGBoost PL).
    improvement_threshold:
        Marginal-gain cutoff for the optimal allocation (Section 2.1),
        e.g. 0.01 = require >= 1% run-time improvement per extra token.
        Must be finite and positive.
    max_slowdown:
        Optional SLO: when set (non-negative), the recommendation is
        additionally capped so predicted slowdown versus the requested
        allocation stays within this budget.
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
        self.check_settings(improvement_threshold, max_slowdown)
        if risk is not None and not 0.0 < risk < 1.0:
            raise PipelineError("risk must be inside (0, 1)")
        self.model = model
        self.improvement_threshold = improvement_threshold
        self.max_slowdown = max_slowdown
        self.use_compiled = use_compiled
        self.risk = risk

    @staticmethod
    def check_settings(
        improvement_threshold: float, max_slowdown: float | None
    ) -> None:
        """Raise :class:`PipelineError` for settings no pipeline takes.

        Callers that must fit or load a model first (``repro fleet``) run
        it before that work.
        """
        if not 0.0 < improvement_threshold < float("inf"):
            raise PipelineError(
                "improvement threshold must be finite and positive, "
                f"got {improvement_threshold}"
            )
        # ``tokens_for_slowdown``'s rule, which the vectorized path mirrors.
        if max_slowdown is not None and not max_slowdown >= 0:
            raise PipelineError(
                f"slowdown budget must be non-negative, got {max_slowdown}"
            )

    def score(
        self,
        plan: QueryPlan,
        requested_tokens: int,
        features: PlanFeatures | None = None,
    ) -> TokenRecommendation:
        """Recommendation for a single incoming job.

        Raises :class:`~repro.exceptions.FittingError` when the job's
        predicted PCC is increasing.
        """
        feature_list = None if features is None else [features]
        recommendation = self.score_batch(
            [plan], [requested_tokens], feature_list
        )[0]
        if recommendation is None:
            raise FittingError(
                "optimal allocation is undefined for an increasing PCC"
            )
        return recommendation

    @property
    def reads_graph(self) -> bool:
        """True when the model reads graph samples, so features passed to
        :meth:`score_batch` should carry them."""
        return self.model.reads_graph

    def score_batch(
        self,
        plans: list[QueryPlan],
        requested_tokens: list[int],
        features: list[PlanFeatures] | None = None,
    ) -> list[TokenRecommendation | None]:
        """Recommendations for a batch of incoming jobs.

        ``features`` optionally carries precomputed :class:`PlanFeatures`
        (one per plan, e.g. from a serving feature cache) so plans are
        not re-featurized on every call. Plans are featurized with a
        graph sample only for a model that reads it; a precomputed entry
        without one is featurized again when the model does (a hot swap
        can change the model between a feature lookup and this call). A
        row whose predicted PCC is increasing gets ``None``.
        """
        if len(plans) != len(requested_tokens):
            raise PipelineError("plans and token requests must align")
        if features is not None and len(features) != len(plans):
            raise PipelineError("plans and precomputed features must align")
        # One read: the model that decides the representation scores it.
        model = self.model
        job_ids = [plan.job_id for plan in plans]
        if features is not None:
            if model.reads_graph:
                features = [
                    feats if feats.graph is not None else featurize(plan)
                    for plan, feats in zip(plans, features)
                ]
            return self.score_features(
                job_ids, requested_tokens, features, model=model
            )
        requested_tokens = _token_requests(requested_tokens)
        tokens_arr = np.asarray(requested_tokens, float)
        with trace.span("tasq.score_batch", batch=len(plans)):
            dataset = _scoring_dataset(
                job_ids,
                tokens_arr,
                [featurize(plan, graph=model.reads_graph) for plan in plans],
            )
            pccs, intervals = self._predict_pccs(model, dataset)
        return self._finalize(
            model, job_ids, requested_tokens, tokens_arr, pccs, intervals
        )

    def score_features(
        self,
        job_ids: list[str],
        requested_tokens: list[int],
        features: list[PlanFeatures],
        *,
        model: PCCPredictor | None = None,
    ) -> list[TokenRecommendation | None]:
        """Recommendations from identifiers plus precomputed features.

        The plan-free half of scoring: :meth:`score_batch` with
        precomputed ``features`` (e.g. from the serving feature cache)
        delegates here, so both paths are bit-identical. ``model``
        defaults to :attr:`model`; ``score_batch`` passes the one it
        read. A model that reads graphs needs every entry's graph
        sample (:class:`~repro.exceptions.ModelError` otherwise).
        """
        if not len(job_ids) == len(requested_tokens) == len(features):
            raise PipelineError(
                "job ids, token requests, and features must align"
            )
        requested_tokens = _token_requests(requested_tokens)
        model = self.model if model is None else model
        tokens_arr = np.asarray(requested_tokens, float)
        # Features precomputed: wrapping them into the dataset shape
        # is cheap bookkeeping — keep it out of the traced span so
        # `tasq.score_batch` measures actual scoring work.
        dataset = _scoring_dataset(job_ids, tokens_arr, features)
        with trace.span("tasq.score_batch", batch=len(job_ids)):
            pccs, intervals = self._predict_pccs(model, dataset)
        return self._finalize(
            model, job_ids, requested_tokens, tokens_arr, pccs, intervals
        )

    def _predict_pccs(
        self, model: PCCPredictor, dataset: PCCDataset
    ) -> tuple[list[PowerLawPCC] | None, list[PCCInterval] | None]:
        """Model inference for one scoring dataset (shared by both entries)."""
        batch = len(dataset.examples)
        # nullcontext leaves an enclosing override(False) in force.
        kernels = (
            contextlib.nullcontext()
            if self.use_compiled
            else compiled_kernels.override(False)
        )
        with trace.span("tasq.predict_pccs", batch=batch), kernels:
            intervals: list[PCCInterval] | None = None
            if self.risk is not None:
                intervals = model.predict_pcc_intervals(dataset)
                pccs = (
                    None if intervals is None else [iv.mid for iv in intervals]
                )
            else:
                pccs = model.predict_pccs(dataset)
        if trace.enabled:
            get_registry().counter("tasq_jobs_scored").increment(batch)
        return pccs, intervals

    def _finalize(
        self,
        model: PCCPredictor,
        job_ids: list[str],
        requested_tokens: list[int],
        tokens_arr: np.ndarray,
        pccs: list[PowerLawPCC] | None,
        intervals: list[PCCInterval] | None,
    ) -> list[TokenRecommendation | None]:
        if pccs is None:
            raise PipelineError(
                f"{model.name} is non-parametric; scoring needs a "
                "parametric PCC model (NN, GNN, or XGBoost PL)"
            )

        a = np.array([pcc.a for pcc in pccs], dtype=float)
        b = np.array([pcc.b for pcc in pccs], dtype=float)
        usable = np.flatnonzero(a <= 0)
        best, run_requested, run_best = self._recommend_vectorized(
            a[usable],
            b[usable],
            tokens_arr[usable],
            None if intervals is None else [intervals[i] for i in usable],
        )
        recommendations: list[TokenRecommendation | None] = [None] * len(pccs)
        for row, chosen, at_requested, at_best in zip(
            usable.tolist(), best, run_requested, run_best
        ):
            recommendations[row] = TokenRecommendation(
                job_id=job_ids[row],
                pcc=pccs[row],
                requested_tokens=int(requested_tokens[row]),
                optimal_tokens=int(chosen),
                predicted_runtime_at_requested=float(at_requested),
                predicted_runtime_at_optimal=float(at_best),
                pcc_interval=None if intervals is None else intervals[row],
                risk=self.risk,
            )
        return recommendations

    def _recommend_vectorized(
        self,
        a: np.ndarray,
        b: np.ndarray,
        requested: np.ndarray,
        intervals: list[PCCInterval] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch closed forms for the whole recommendation loop.

        Evaluates :func:`~repro.pcc.optimal.optimal_tokens`,
        :func:`~repro.pcc.optimal.tokens_for_slowdown`, and
        ``pcc.runtime`` over the batch with one array expression each —
        the scalar helpers remain the reference semantics (and the unit
        under property tests), but scoring no longer pays a Python loop
        of scalar power evaluations per batch. Every row must have a
        non-increasing curve (``a <= 0``); each expression is
        elementwise, so a row's answer does not depend on its batch.
        """
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
