"""The in-process allocation server (the "AKS endpoint" of Figure 4).

Production TASQ serves every incoming SCOPE job a compile-time token
recommendation. This module reproduces that serving path as an
in-process concurrent system:

.. code-block:: text

            submit()                    worker pool
    client ──────────► [admission] ──► [bounded queue] ──► [micro-batcher]
                        │   │                                   │
                        │   └─ recommendation cache (signature  ▼
                        │      + tokens) answers recurring   score_batch
                        │      traffic without the model        │
                        └─ breaker-open short-circuits          ▼
                                                       cache fill + respond
                                                       (fallback on failure)

* **admission** (`repro.serving.admission`) — an open circuit breaker
  answers with the fallback before the queue, and a full queue rejects
  with explicit backpressure instead of unbounded latency.
* **micro-batching** — work-conserving: a worker that takes a request
  adds whatever is already queued (up to ``max_batch_size``, without
  waiting) and scores at once in one
  :meth:`~repro.tasq.pipeline.ScoringPipeline.score_batch` call. A lone
  request never waits for a batch-mate; under load the queue backlog
  fills batches and buys vectorised model throughput.
* **caching** (`repro.serving.cache`) — recommendation hits bypass the
  queue entirely; feature hits skip the expensive featurization step.
* **failure containment** — a scoring call that raises gets its whole
  batch the fallback answer (``model_error``) and counts one circuit
  breaker failure; while the breaker is open, and past a deadline, the
  fallback answers too. A plan whose predicted PCC increases comes back
  ``None`` and falls back alone (``unusable_curve``), which the breaker
  does not count. An exception from any other step of a batch is caught
  at the worker loop, answered the same way and counted in
  ``worker_errors``; the worker keeps running.
* **feedback** — completed-job outcomes flow into a
  :class:`~repro.tasq.monitoring.PredictionMonitor` whose rolling error
  and retraining signal are exported in the metrics snapshot.
* **hot swap** — when constructed over a :class:`ModelStore`, workers
  poll :meth:`~repro.tasq.model_store.ModelStore.latest` and switch to
  newly registered model versions without a restart.
"""

from __future__ import annotations

import dataclasses
import enum
import queue as queue_module
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

from repro.exceptions import ReproError, ServingError
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.scope.plan import QueryPlan
from repro.scope.repository import JobRepository
from repro.scope.signatures import plan_signature
from repro.serving.admission import BreakerState, CircuitBreaker
from repro.serving.cache import FeatureCache, RecommendationCache
from repro.serving.fallback import (
    FallbackPolicy,
    HistoricalMedianFallback,
    PassthroughFallback,
)
from repro.tasq.model_store import ModelStore
from repro.tasq.monitoring import PredictionMonitor
from repro.tasq.pipeline import ScoringPipeline, TokenRecommendation

__all__ = [
    "ServerConfig",
    "ResponseStatus",
    "ServeResponse",
    "ServeFuture",
    "AllocationServer",
]


@dataclass(frozen=True)
class ServerConfig:
    """Operating envelope of an :class:`AllocationServer`."""

    #: Worker threads pulling from the request queue.
    workers: int = 2
    #: Bound of the request queue; a full queue sheds new submissions.
    max_queue: int = 128
    #: Largest micro-batch handed to one ``score_batch`` call.
    max_batch_size: int = 8
    #: Per-request deadline (submit → scored); expired requests get the
    #: fallback answer. ``None`` disables deadlines.
    deadline_s: float | None = None
    #: Consecutive scoring failures that trip the circuit breaker.
    breaker_failure_threshold: int = 5
    #: Seconds the breaker stays open before probing the model again.
    breaker_recovery_s: float = 5.0
    #: Consecutive successful probes needed to close the breaker.
    breaker_half_open_probes: int = 2
    #: Capacities of the two serving caches.
    recommendation_cache_size: int = 2048
    feature_cache_size: int = 2048
    #: How often idle workers poll the model store for a newer version.
    model_refresh_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError("need at least one worker")
        if self.max_queue < 1:
            raise ServingError("queue bound must be at least 1")
        if self.max_batch_size < 1:
            raise ServingError("max batch size must be at least 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServingError("deadline must be positive when set")


class ResponseStatus(enum.Enum):
    """How a request was answered."""

    OK = "ok"  # scored by the model
    CACHED = "cached"  # served from the recommendation cache
    FALLBACK = "fallback"  # degraded answer (breaker/deadline/error)
    REJECTED = "rejected"  # shed: no recommendation produced


@dataclass(frozen=True)
class ServeResponse:
    """The server's answer for one submitted request."""

    job_id: str
    status: ResponseStatus
    recommendation: TokenRecommendation | None
    reason: str | None
    latency_s: float

    @property
    def tokens(self) -> int | None:
        """The allocation to grant, None only for rejected requests."""
        if self.recommendation is None:
            return None
        return self.recommendation.optimal_tokens


class ServeFuture:
    """Handle to an in-flight request; ``result()`` blocks for the answer."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: ServeResponse | None = None

    def _resolve(self, response: ServeResponse) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServeResponse:
        if not self._event.wait(timeout):
            raise ServingError("timed out waiting for a serving response")
        assert self._response is not None
        return self._response


@dataclass
class _Pending:
    """One queued request plus its bookkeeping."""

    plan: QueryPlan
    requested_tokens: int
    signature: str
    future: ServeFuture
    submitted_at: float
    deadline: float | None


class AllocationServer:
    """Concurrent, cached, admission-controlled allocation endpoint.

    Parameters
    ----------
    pipeline:
        The scoring pipeline: anything exposing
        ``score_batch(plans, tokens, features=None)`` that returns one
        recommendation per row, or ``None`` for a row whose predicted
        PCC has no optimum. Each micro-batch makes exactly one call.
    store, model_name:
        Optional :class:`ModelStore` to hot-swap from: workers poll
        ``store.latest(model_name)`` and adopt newer versions live.
    repository:
        Optional job history; enables the per-signature historical
        median fallback (otherwise requested tokens pass through).
    monitor, metrics:
        Bring-your-own monitor/registry, e.g. shared across servers;
        fresh instances are created by default.
    clock:
        Injectable monotonic clock for tests.
    """

    def __init__(
        self,
        pipeline: ScoringPipeline,
        config: ServerConfig | None = None,
        *,
        store: ModelStore | None = None,
        model_name: str | None = None,
        repository: JobRepository | None = None,
        monitor: PredictionMonitor | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if store is not None and model_name is None:
            raise ServingError("hot-swapping from a store needs a model name")
        self.config = config or ServerConfig()
        self._pipeline = pipeline
        self._store = store
        self._model_name = model_name
        self._model_version: int | None = None
        self._last_model_check = 0.0
        self._clock = clock
        self.monitor = monitor or PredictionMonitor()
        self.metrics = metrics or MetricsRegistry()
        self.fallback: FallbackPolicy = (
            HistoricalMedianFallback(repository)
            if repository is not None
            else PassthroughFallback()
        )

        self.recommendation_cache = RecommendationCache(
            self.config.recommendation_cache_size
        )
        self.feature_cache = FeatureCache(self.config.feature_cache_size)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_time=self.config.breaker_recovery_s,
            half_open_probes=self.config.breaker_half_open_probes,
            clock=clock,
        )

        self._queue: queue_module.Queue[_Pending] = queue_module.Queue(
            maxsize=self.config.max_queue
        )
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._running = False
        self._swap_lock = threading.Lock()
        self._register_gauges()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AllocationServer":
        if self._running:
            raise ServingError("server is already running")
        self._stop.clear()
        self._maybe_refresh_model(force=True)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"alloc-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._stop.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
        # Anything still queued will never be scored; answer explicitly.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue_module.Empty:
                break
            self._reject(pending, "shutdown")

    def __enter__(self) -> "AllocationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, plan: QueryPlan, requested_tokens: int) -> ServeFuture:
        """Enqueue one request; returns immediately with a future."""
        # The signature is hashed before the clock starts: ``latency_s``
        # covers admission onward, not the caller's key computation.
        signature = plan_signature(plan)
        if not self._running:
            raise ServingError("server is not running")
        if requested_tokens < 1:
            raise ServingError("requested tokens must be positive")
        now = self._clock()
        self.metrics.counter("requests_total").increment()
        future = ServeFuture()

        cached = self.recommendation_cache.get(signature, requested_tokens)
        if cached is not None:
            recommendation = dataclasses.replace(cached, job_id=plan.job_id)
            self._finish(
                future, plan.job_id, ResponseStatus.CACHED, recommendation,
                None, now,
            )
            return future

        pending = _Pending(
            plan=plan,
            requested_tokens=int(requested_tokens),
            signature=signature,
            future=future,
            submitted_at=now,
            deadline=(
                now + self.config.deadline_s
                if self.config.deadline_s is not None
                else None
            ),
        )
        if self.breaker.state is BreakerState.OPEN:
            self.metrics.counter("fallback_breaker_open").increment()
            self._fallback(pending, "breaker_open")
            return future

        try:
            self._queue.put_nowait(pending)
        except queue_module.Full:
            self.metrics.counter("rejected_queue_full").increment()
            self._reject(pending, "queue_full")
        return future

    def request(
        self,
        plan: QueryPlan,
        requested_tokens: int,
        timeout: float | None = 30.0,
    ) -> ServeResponse:
        """Submit and block for the answer (the simple client call)."""
        return self.submit(plan, requested_tokens).result(timeout)

    def record_completion(
        self, response: ServeResponse, actual_runtime: float
    ) -> None:
        """Feed one completed job's observed run time back into the loop.

        Only model-backed answers (OK/CACHED) train the drift monitor —
        fallback answers carry no real prediction to hold accountable.
        Recommendations that carry a predicted interval additionally
        feed the monitor's coverage drift rule.
        """
        self.metrics.counter("completions").increment()
        if (
            response.status in (ResponseStatus.OK, ResponseStatus.CACHED)
            and response.recommendation is not None
        ):
            recommendation = response.recommendation
            interval = None
            if (
                recommendation.pcc_interval is not None
                and not recommendation.pcc_interval.is_degenerate
            ):
                lo, _, hi = recommendation.pcc_interval.runtime_interval(
                    recommendation.optimal_tokens
                )
                if 0.0 < lo <= hi:
                    interval = (lo, hi)
            self.monitor.observe(
                recommendation.predicted_runtime_at_optimal,
                actual_runtime,
                interval=interval,
            )

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue_module.Empty:
                self._maybe_refresh_model()
                continue
            # Work-conserving: take only what is already queued. Holding a
            # lone request for a batch-mate adds idle wait to its latency;
            # under load the backlog fills the batch by itself.
            batch = [first]
            while len(batch) < self.config.max_batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue_module.Empty:
                    break
            self._maybe_refresh_model()
            try:
                self._process_batch(batch)
            except Exception:
                # A worker that dies leaves every later request waiting
                # in the queue, so no failure of one batch may end it.
                self._contain_worker_error(batch)

    def _contain_worker_error(self, batch: list[_Pending]) -> None:
        """Answer the unresolved requests of a batch whose processing raised."""
        self.metrics.counter("worker_errors").increment()
        traceback.print_exc()
        self._fail_batch(batch)

    def _fail_batch(self, batch: list[_Pending]) -> None:
        """One breaker failure; every unresolved request falls back."""
        self.breaker.record_failure()
        for pending in batch:
            if not pending.future.done():
                self.metrics.counter("fallback_model_error").increment()
                self._fallback(pending, "model_error")

    def _process_batch(self, batch: list[_Pending]) -> None:
        with trace.span("serving.process_batch", batch=len(batch)):
            self._process_batch_inner(batch)

    def _process_batch_inner(self, batch: list[_Pending]) -> None:
        self.metrics.counter("batches").increment()
        self.metrics.histogram(
            "batch_size", bounds=range(1, self.config.max_batch_size + 1)
        ).record(len(batch))
        now = self._clock()
        for pending in batch:
            self.metrics.histogram("queue_wait_s").record(
                max(0.0, now - pending.submitted_at)
            )

        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now > pending.deadline:
                self.metrics.counter("fallback_deadline").increment()
                self._fallback(pending, "deadline")
            else:
                live.append(pending)
        if not live:
            return

        if not self.breaker.allow():
            for pending in live:
                self.metrics.counter("fallback_breaker_open").increment()
                self._fallback(pending, "breaker_open")
            return

        features = [
            self.feature_cache.features_for(p.plan, p.signature) for p in live
        ]
        scoring_started = self._clock()
        try:
            with trace.span("serving.score_batch", batch=len(live)):
                recommendations = self._pipeline.score_batch(
                    [p.plan for p in live],
                    [p.requested_tokens for p in live],
                    features,
                )
        except ReproError:
            self.metrics.counter("model_errors").increment()
            self._fail_batch(live)
            return
        # The latency_s histogram measures submit -> answer end to end;
        # scoring_s isolates the model's share so queue wait (queue_wait_s)
        # vs scoring time can be read off one snapshot.
        self.metrics.histogram("scoring_s").record(
            max(0.0, self._clock() - scoring_started)
        )
        self.breaker.record_success()
        for pending, recommendation in zip(live, recommendations):
            if recommendation is None:
                # No optimum for this plan's curve: an answer about the
                # plan, not a model failure, so the breaker never sees it.
                self.metrics.counter("fallback_unusable_curve").increment()
                self._fallback(pending, "unusable_curve")
            else:
                self._succeed(pending, recommendation)

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    def _succeed(
        self, pending: _Pending, recommendation: TokenRecommendation
    ) -> None:
        self.recommendation_cache.put(
            pending.signature, pending.requested_tokens, recommendation
        )
        self._finish(
            pending.future, pending.plan.job_id, ResponseStatus.OK,
            recommendation, None, pending.submitted_at,
        )

    def _fallback(self, pending: _Pending, reason: str) -> None:
        self._finish(
            pending.future, pending.plan.job_id, ResponseStatus.FALLBACK,
            self.fallback.recommend(pending.plan, pending.requested_tokens),
            reason, pending.submitted_at,
        )

    def _reject(self, pending: _Pending, reason: str) -> None:
        self._finish(
            pending.future, pending.plan.job_id, ResponseStatus.REJECTED,
            None, reason, pending.submitted_at,
        )

    def _finish(
        self,
        future: ServeFuture,
        job_id: str,
        status: ResponseStatus,
        recommendation: TokenRecommendation | None,
        reason: str | None,
        submitted_at: float,
    ) -> None:
        latency = max(0.0, self._clock() - submitted_at)
        self.metrics.counter(f"responses_{status.value}").increment()
        self.metrics.histogram("latency_s").record(latency)
        future._resolve(
            ServeResponse(
                job_id=job_id,
                status=status,
                recommendation=recommendation,
                reason=reason,
                latency_s=latency,
            )
        )

    # ------------------------------------------------------------------
    # model hot-swap + metrics wiring
    # ------------------------------------------------------------------
    def _maybe_refresh_model(self, force: bool = False) -> None:
        if self._store is None:
            return
        now = self._clock()
        if (
            not force
            and now - self._last_model_check
            < self.config.model_refresh_interval_s
        ):
            return
        with self._swap_lock:
            self._last_model_check = now
            try:
                record = self._store.latest(self._model_name)
            except ReproError:
                return  # nothing registered yet; keep the current model
            if record.version != self._model_version:
                # Swapping the whole model object also swaps its lazily
                # compiled inference kernels (repro.ml.compiled caches
                # ride on the model), so no explicit invalidation is
                # needed here — the new model compiles on first batch.
                self._pipeline.model = record.model
                self._model_version = record.version
                self.metrics.counter("model_swaps").increment()

    def refresh_model(self) -> int | None:
        """Poll the model store *now* and adopt the newest version.

        Workers refresh opportunistically on a wall-clock interval; a
        caller that just registered a retrained model (e.g. the replay
        harness's virtual-time retraining hook) calls this to make the
        swap immediate — and therefore deterministic.
        """
        self._maybe_refresh_model(force=True)
        return self._model_version

    @property
    def model_version(self) -> int | None:
        """Version of the store model currently deployed (None = static)."""
        return self._model_version

    def _register_gauges(self) -> None:
        self.metrics.register_gauge("queue_depth", self._queue.qsize)
        self.metrics.register_gauge(
            "breaker_state", lambda: self.breaker.state.value
        )
        self.metrics.register_gauge(
            "breaker_trips", lambda: self.breaker.trip_count
        )
        self.metrics.register_gauge(
            "recommendation_cache_hit_rate",
            lambda: self.recommendation_cache.hit_rate,
        )
        self.metrics.register_gauge(
            "feature_cache_hit_rate", lambda: self.feature_cache.hit_rate
        )
        self.metrics.register_gauge(
            "monitor_observations", lambda: self.monitor.snapshot().observations
        )
        self.metrics.register_gauge(
            "monitor_rolling_median_ape",
            lambda: self.monitor.rolling_median_ape,
        )
        self.metrics.register_gauge(
            "monitor_needs_retraining", lambda: self.monitor.needs_retraining
        )
        self.metrics.register_gauge(
            "monitor_rolling_coverage", lambda: self.monitor.rolling_coverage
        )
