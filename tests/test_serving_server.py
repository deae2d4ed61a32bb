"""Behavioural tests for the AllocationServer.

A stub scoring pipeline (instant, deterministic, optionally failing or
gated on an event) isolates the server mechanics — micro-batching,
caching, shedding, circuit breaking, fallback, feedback, hot swap —
from model quality and training cost.
"""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ModelError, ServingError
from repro.models.base import PCCPredictor
from repro.pcc.curve import PowerLawPCC
from repro.scope.signatures import plan_signature
from repro.serving import (
    AllocationServer,
    BreakerState,
    HistoricalMedianFallback,
    PassthroughFallback,
    ResponseStatus,
    ServerConfig,
    build_server,
)
from repro.tasq import ModelStore, ScoringPipeline, TokenRecommendation


def _recommend(plan, tokens, a=-0.8, b=500.0):
    pcc = PowerLawPCC(a=a, b=b)
    best = max(1, int(tokens) // 2)
    return TokenRecommendation(
        job_id=plan.job_id,
        pcc=pcc,
        requested_tokens=int(tokens),
        optimal_tokens=best,
        predicted_runtime_at_requested=float(pcc.runtime(tokens)),
        predicted_runtime_at_optimal=float(pcc.runtime(best)),
    )


class StubPipeline:
    """Scores instantly; can fail N times and/or block on a gate."""

    def __init__(self, fail_times=0, gate=None):
        self.calls: list[int] = []
        self.gate = gate
        self._fail_remaining = fail_times
        self._lock = threading.Lock()

    def score_batch(self, plans, requested_tokens, features=None):
        with self._lock:
            self.calls.append(len(plans))
            failing = self._fail_remaining > 0
            if failing:
                self._fail_remaining -= 1
        if self.gate is not None:
            self.gate.wait(timeout=10.0)
        if failing:
            raise ModelError("injected model failure")
        return [
            _recommend(plan, tokens)
            for plan, tokens in zip(plans, requested_tokens)
        ]


class StubPredictor(PCCPredictor):
    """A fitted parametric predictor with constant PCC parameters."""

    name = "stub"

    def __init__(self, a=-0.8, log_b=6.0):
        super().__init__()
        self.a = a
        self.log_b = log_b
        self._fitted = True

    def fit(self, dataset):
        return self

    def predict_runtime_at(self, dataset, tokens):
        return np.full(len(dataset), np.exp(self.log_b))

    def predict_curves(self, dataset, grids):
        return [np.exp(self.log_b) * np.power(g, self.a) for g in grids]

    def predict_parameters(self, dataset):
        return np.tile([self.a, self.log_b], (len(dataset), 1))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


@pytest.fixture()
def plans(workload_jobs):
    return [job.plan for job in workload_jobs]


class TestLifecycle:
    def test_submit_requires_running(self, plans):
        server = AllocationServer(StubPipeline())
        with pytest.raises(ServingError):
            server.submit(plans[0], 10)

    def test_build_server_is_the_single_process_server(self):
        server = build_server(StubPipeline(), ServerConfig(workers=1))
        assert type(server) is AllocationServer

    def test_requested_tokens_must_be_positive(self, plans):
        with AllocationServer(StubPipeline()) as server:
            with pytest.raises(ServingError, match="positive"):
                server.submit(plans[0], 0)

    def test_context_manager(self, plans):
        server = AllocationServer(StubPipeline())
        with server:
            assert server.is_running
            response = server.request(plans[0], 10)
            assert response.status is ResponseStatus.OK
        assert not server.is_running

    def test_stop_rejects_queued_requests(self, plans):
        gate = threading.Event()
        pipeline = StubPipeline(gate=gate)
        config = ServerConfig(workers=1, max_queue=8, max_batch_size=1)
        server = AllocationServer(pipeline, config).start()
        first = server.submit(plans[0], 10)
        assert wait_until(lambda: len(pipeline.calls) >= 1)
        stuck = server.submit(plans[1], 10)
        gate.set()
        server.stop()
        assert first.result(timeout=1.0).status is ResponseStatus.OK
        response = stuck.result(timeout=1.0)
        # either the worker drained it before exiting, or stop() rejected it
        assert response.status in (ResponseStatus.OK, ResponseStatus.REJECTED)


class TestScoringPaths:
    def test_ok_response(self, plans):
        with AllocationServer(StubPipeline()) as server:
            response = server.request(plans[0], 100)
        assert response.status is ResponseStatus.OK
        assert response.recommendation.optimal_tokens == 50
        assert response.tokens == 50
        assert response.reason is None
        assert response.latency_s >= 0.0

    def test_repeat_request_served_from_cache(self, plans):
        pipeline = StubPipeline()
        with AllocationServer(pipeline) as server:
            first = server.request(plans[0], 100)
            second = server.request(plans[0], 100)
            third = server.request(plans[0], 200)  # different size: misses
        assert first.status is ResponseStatus.OK
        assert second.status is ResponseStatus.CACHED
        assert second.tokens == first.tokens
        assert second.job_id == plans[0].job_id
        assert third.status is ResponseStatus.OK
        assert sum(pipeline.calls) == 2  # the cached hit never hit the model

    def test_microbatch_coalescing(self, plans):
        """N requests queued behind a busy worker → one score_batch call."""
        gate = threading.Event()
        pipeline = StubPipeline(gate=gate)
        config = ServerConfig(
            workers=1, max_batch_size=8, max_batch_wait_s=0.05
        )
        with AllocationServer(pipeline, config) as server:
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: len(pipeline.calls) == 1)
            queued = [server.submit(plans[i], 10) for i in range(1, 5)]
            gate.set()
            responses = [f.result(timeout=5.0) for f in [blocker, *queued]]
        assert all(r.status is ResponseStatus.OK for r in responses)
        assert pipeline.calls == [1, 4]

    def test_batch_respects_max_size(self, plans):
        gate = threading.Event()
        pipeline = StubPipeline(gate=gate)
        config = ServerConfig(
            workers=1, max_batch_size=3, max_batch_wait_s=0.05, max_queue=32
        )
        with AllocationServer(pipeline, config) as server:
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: len(pipeline.calls) == 1)
            queued = [server.submit(plans[i], 10) for i in range(1, 7)]
            gate.set()
            for f in [blocker, *queued]:
                f.result(timeout=5.0)
        assert max(pipeline.calls) <= 3
        assert pipeline.calls[1] == 3  # first drain takes a full batch

    def test_works_with_real_scoring_pipeline(self, plans):
        pipeline = ScoringPipeline(StubPredictor())
        with AllocationServer(pipeline) as server:
            response = server.request(plans[0], 100)
        assert response.status is ResponseStatus.OK
        assert 1 <= response.tokens <= 100


class TestAdmission:
    def test_queue_full_sheds_with_backpressure(self, plans):
        gate = threading.Event()
        pipeline = StubPipeline(gate=gate)
        config = ServerConfig(workers=1, max_queue=2, max_batch_size=1)
        with AllocationServer(pipeline, config) as server:
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: len(pipeline.calls) == 1)
            fits = [server.submit(plans[i], 10) for i in range(1, 3)]
            shed = server.submit(plans[3], 10)
            assert shed.done()  # rejected synchronously, no queue wait
            response = shed.result(timeout=1.0)
            assert response.status is ResponseStatus.REJECTED
            assert response.reason == "queue_full"
            assert response.recommendation is None
            gate.set()
            for f in [blocker, *fits]:
                assert f.result(timeout=5.0).status is ResponseStatus.OK
        counters = server.metrics.snapshot()["counters"]
        assert counters["rejected_queue_full"] == 1

    def test_rate_limit_rejection(self, plans):
        config = ServerConfig(
            workers=1, rate_limit_rps=0.001, rate_limit_burst=2
        )
        with AllocationServer(StubPipeline(), config) as server:
            responses = [server.request(plans[i], 10) for i in range(4)]
        statuses = [r.status for r in responses]
        assert statuses == [
            ResponseStatus.OK,
            ResponseStatus.OK,
            ResponseStatus.REJECTED,
            ResponseStatus.REJECTED,
        ]
        assert [r.reason for r in responses[2:]] == ["rate_limited"] * 2
        counters = server.metrics.snapshot()["counters"]
        assert counters["rejected_rate_limited"] == 2


class TestFailureContainment:
    def test_breaker_opens_and_serves_fallback(self, plans):
        """Forced model failures must never surface as exceptions."""
        pipeline = StubPipeline(fail_times=1000)
        config = ServerConfig(
            workers=1,
            breaker_failure_threshold=3,
            breaker_recovery_s=60.0,
            max_batch_size=1,
        )
        with AllocationServer(pipeline, config) as server:
            responses = [server.request(plans[i], 10) for i in range(6)]
            assert server.breaker.state is BreakerState.OPEN
        assert all(r.status is ResponseStatus.FALLBACK for r in responses)
        assert all(r.recommendation is not None for r in responses)
        assert [r.reason for r in responses[:3]] == ["model_error"] * 3
        assert [r.reason for r in responses[3:]] == ["breaker_open"] * 3
        # passthrough fallback: the requested allocation is preserved
        assert all(r.tokens == 10 for r in responses)
        # breaker-open requests short-circuit before the queue/model
        assert len(pipeline.calls) == 3

    def test_cache_still_answers_while_breaker_open(self, plans):
        pipeline = StubPipeline()
        config = ServerConfig(workers=1, breaker_recovery_s=60.0)
        with AllocationServer(pipeline, config) as server:
            cached = server.request(plans[0], 10)
            assert cached.status is ResponseStatus.OK
            for _ in range(5):
                server.breaker.record_failure()
            assert server.breaker.state is BreakerState.OPEN
            hit = server.request(plans[0], 10)
            miss = server.request(plans[1], 10)
        assert hit.status is ResponseStatus.CACHED
        assert miss.status is ResponseStatus.FALLBACK

    def test_breaker_recovers_through_half_open(self, plans):
        pipeline = StubPipeline(fail_times=3)
        config = ServerConfig(
            workers=1,
            breaker_failure_threshold=3,
            breaker_recovery_s=0.05,
            breaker_half_open_probes=1,
            max_batch_size=1,
        )
        with AllocationServer(pipeline, config) as server:
            for i in range(3):
                assert (
                    server.request(plans[i], 10).status
                    is ResponseStatus.FALLBACK
                )
            assert server.breaker.state is BreakerState.OPEN
            time.sleep(0.08)  # recovery window elapses → half-open probe
            probe = server.request(plans[3], 10)
            assert probe.status is ResponseStatus.OK
            assert server.breaker.state is BreakerState.CLOSED

    def test_batch_poisoned_by_one_bad_request(self, plans):
        """A failing batch is retried per item: good requests still score."""

        class PoisonedPipeline(StubPipeline):
            def score_batch(self, batch_plans, requested_tokens, features=None):
                with self._lock:
                    self.calls.append(len(batch_plans))
                if any(t == 13 for t in requested_tokens):
                    raise ModelError("unlucky request")
                return [
                    _recommend(p, t)
                    for p, t in zip(batch_plans, requested_tokens)
                ]

        blocker_pipeline = PoisonedPipeline()
        config = ServerConfig(workers=1, max_batch_size=8, max_batch_wait_s=0.05)
        with AllocationServer(blocker_pipeline, config) as server:
            # hold the worker with an in-flight batch so others coalesce
            hold = threading.Event()
            original = blocker_pipeline.score_batch

            def gated_first_call(*args, **kwargs):
                blocker_pipeline.score_batch = original
                hold.wait(timeout=5.0)
                return original(*args, **kwargs)

            blocker_pipeline.score_batch = gated_first_call
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: blocker_pipeline.score_batch is original)
            good = server.submit(plans[1], 11)
            bad = server.submit(plans[2], 13)
            also_good = server.submit(plans[3], 12)
            hold.set()
            assert blocker.result(5.0).status is ResponseStatus.OK
            assert good.result(5.0).status is ResponseStatus.OK
            assert also_good.result(5.0).status is ResponseStatus.OK
            poisoned = bad.result(5.0)
        assert poisoned.status is ResponseStatus.FALLBACK
        assert poisoned.reason == "model_error"

    def test_deadline_exceeded_gets_fallback(self, plans):
        gate = threading.Event()
        pipeline = StubPipeline(gate=gate)
        config = ServerConfig(
            workers=1, max_batch_size=1, deadline_s=0.01
        )
        with AllocationServer(pipeline, config) as server:
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: len(pipeline.calls) == 1)
            late = server.submit(plans[1], 10)
            time.sleep(0.03)  # let the queued request's deadline expire
            gate.set()
            assert blocker.result(5.0).status is ResponseStatus.OK
            response = late.result(5.0)
        assert response.status is ResponseStatus.FALLBACK
        assert response.reason == "deadline"


class TestFallbackPolicies:
    def test_passthrough_preserves_request(self, plans):
        response = PassthroughFallback().recommend(plans[0], 37)
        assert response.optimal_tokens == 37
        assert response.job_id == plans[0].job_id

    def test_historical_median_uses_signature_history(self, repository):
        fallback = HistoricalMedianFallback(repository)
        assert fallback.known_signatures > 0
        record = repository.records()[0]
        signature = plan_signature(record.plan)
        peaks = [
            float(r.peak_tokens)
            for r in repository
            if plan_signature(r.plan) == signature
        ]
        expected = max(1, int(round(float(np.median(peaks)))))
        rec = fallback.recommend(record.plan, 10_000)
        assert rec.optimal_tokens == expected

    def test_historical_median_caps_at_request(self, repository):
        record = repository.records()[0]
        fallback = HistoricalMedianFallback(repository)
        rec = fallback.recommend(record.plan, 1)
        assert rec.optimal_tokens == 1

    def test_unknown_signature_passes_through(self, repository):
        fresh_plan = None
        from repro.scope import WorkloadGenerator

        known = {plan_signature(r.plan) for r in repository}
        for job in WorkloadGenerator(seed=999).generate(40):
            if plan_signature(job.plan) not in known:
                fresh_plan = job.plan
                break
        assert fresh_plan is not None
        fallback = HistoricalMedianFallback(repository)
        assert fallback.recommend(fresh_plan, 123).optimal_tokens == 123

    def test_server_uses_repository_fallback(self, plans, repository):
        pipeline = StubPipeline(fail_times=1000)
        config = ServerConfig(workers=1, breaker_failure_threshold=1)
        record = repository.records()[0]
        with AllocationServer(pipeline, config, repository=repository) as server:
            response = server.request(record.plan, 10_000)
        assert response.status is ResponseStatus.FALLBACK
        assert response.tokens < 10_000  # historical median, not passthrough


class TestFeedbackAndMetrics:
    def test_completion_feeds_monitor(self, plans):
        with AllocationServer(StubPipeline()) as server:
            response = server.request(plans[0], 100)
            predicted = response.recommendation.predicted_runtime_at_optimal
            server.record_completion(response, predicted * 2.0)
        gauges = server.metrics.snapshot()["gauges"]
        assert gauges["monitor_observations"] == 1
        assert gauges["monitor_rolling_median_ape"] == pytest.approx(50.0)
        assert gauges["monitor_needs_retraining"] is False

    def test_fallback_completion_skips_monitor(self, plans):
        pipeline = StubPipeline(fail_times=1000)
        config = ServerConfig(workers=1, breaker_failure_threshold=1)
        with AllocationServer(pipeline, config) as server:
            response = server.request(plans[0], 100)
            server.record_completion(response, 123.0)
        gauges = server.metrics.snapshot()["gauges"]
        assert gauges["monitor_observations"] == 0
        counters = server.metrics.snapshot()["counters"]
        assert counters["completions"] == 1

    def test_retraining_signal_appears_in_snapshot(self, plans):
        from repro.tasq import PredictionMonitor

        monitor = PredictionMonitor(
            window=10, error_threshold=10.0, patience=2, min_observations=2
        )
        with AllocationServer(StubPipeline(), monitor=monitor) as server:
            response = server.request(plans[0], 100)
            for _ in range(5):
                server.record_completion(
                    response,
                    response.recommendation.predicted_runtime_at_optimal * 3,
                )
        gauges = server.metrics.snapshot()["gauges"]
        assert gauges["monitor_needs_retraining"] is True

    def test_snapshot_counters_and_histograms(self, plans):
        with AllocationServer(StubPipeline()) as server:
            server.request(plans[0], 100)
            server.request(plans[0], 100)
        snap = server.metrics.snapshot()
        assert snap["counters"]["requests_total"] == 2
        assert snap["counters"]["responses_ok"] == 1
        assert snap["counters"]["responses_cached"] == 1
        assert snap["histograms"]["latency_s"]["count"] == 2
        assert snap["histograms"]["batch_size"]["count"] >= 1
        assert snap["gauges"]["recommendation_cache_hit_rate"] == pytest.approx(
            0.5
        )


class TestHotSwap:
    def test_server_adopts_new_model_version(self, plans):
        store = ModelStore()
        store.register("pl", StubPredictor(a=-0.5, log_b=6.0))
        pipeline = ScoringPipeline(StubPredictor(a=-0.1, log_b=1.0))
        config = ServerConfig(workers=1, model_refresh_interval_s=0.01)
        with AllocationServer(
            pipeline, config, store=store, model_name="pl"
        ) as server:
            assert server.model_version == 1
            first = server.request(plans[0], 500)
            store.register("pl", StubPredictor(a=-0.99, log_b=6.0))
            assert wait_until(lambda: server.model_version == 2)
            second = server.request(plans[1], 500)
        assert first.status is ResponseStatus.OK
        assert second.status is ResponseStatus.OK
        # steeper PCC → the swapped-in model recommends more tokens
        assert second.recommendation.pcc.a == pytest.approx(-0.99)
        assert server.metrics.snapshot()["counters"]["model_swaps"] == 2

    def test_store_requires_model_name(self):
        with pytest.raises(ServingError):
            AllocationServer(StubPipeline(), store=ModelStore())
