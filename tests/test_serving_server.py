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
from repro.serving import server as server_module
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
    """A fitted parametric predictor with constant PCC parameters.

    Plans whose job id is in ``increasing`` get an increasing curve.
    """

    name = "stub"

    def __init__(self, a=-0.8, log_b=6.0, increasing=()):
        super().__init__()
        self.a = a
        self.log_b = log_b
        self.increasing = set(increasing)
        self._fitted = True

    def fit(self, dataset):
        return self

    def predict_runtime_at(self, dataset, tokens):
        return np.full(len(dataset), np.exp(self.log_b))

    def predict_curves(self, dataset, grids):
        return [np.exp(self.log_b) * np.power(g, self.a) for g in grids]

    def predict_parameters(self, dataset):
        parameters = np.tile([self.a, self.log_b], (len(dataset), 1))
        for row, example in enumerate(dataset.examples):
            if example.job_id in self.increasing:
                parameters[row, 0] = 0.3
        return parameters


class GatedPipeline(ScoringPipeline):
    """A real scoring pipeline that logs batch sizes.

    Its first call waits on ``gate``, so requests submitted meanwhile
    form the next micro-batch.
    """

    def __init__(self, model, **kwargs):
        super().__init__(model, **kwargs)
        self.calls: list[int] = []
        self.gate = threading.Event()

    def score_batch(self, plans, requested_tokens, features=None):
        self.calls.append(len(plans))
        if len(self.calls) == 1:
            self.gate.wait(timeout=10.0)
        return super().score_batch(plans, requested_tokens, features)


def behind_blocker(server, pipeline, requests):
    """Answers to ``requests`` queued while a first request is scored."""
    (plan, tokens), *rest = requests
    blocker = server.submit(plan, tokens)
    assert wait_until(lambda: len(pipeline.calls) == 1)
    queued = [server.submit(plan, tokens) for plan, tokens in rest]
    pipeline.gate.set()
    return [future.result(timeout=5.0) for future in [blocker, *queued]]


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
        config = ServerConfig(workers=1, max_batch_size=8)
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
        config = ServerConfig(workers=1, max_batch_size=3, max_queue=32)
        with AllocationServer(pipeline, config) as server:
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: len(pipeline.calls) == 1)
            queued = [server.submit(plans[i], 10) for i in range(1, 7)]
            gate.set()
            for f in [blocker, *queued]:
                f.result(timeout=5.0)
        assert max(pipeline.calls) <= 3
        assert pipeline.calls[1] == 3  # first drain takes a full batch

    def test_lone_request_is_scored_without_waiting(self, plans):
        """Requests sent one at a time are each scored at once, alone."""
        pipeline = StubPipeline()
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            # distinct requested tokens keep every request a cache miss
            responses = [
                server.request(plans[i], 10 + i, timeout=5.0)
                for i in range(24)
            ]
        assert all(r.status is ResponseStatus.OK for r in responses)
        assert pipeline.calls == [1] * 24
        assert float(np.median([r.latency_s for r in responses])) < 0.002

    def test_each_request_hashes_its_plan_once(self, plans, monkeypatch):
        hashed = []

        def counting_signature(plan):
            hashed.append(plan.job_id)
            return plan_signature(plan)

        monkeypatch.setattr(server_module, "plan_signature", counting_signature)
        pipeline = ScoringPipeline(StubPredictor())
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            responses = [server.request(plan, 40) for plan in plans[:6]]
            assert len(server.feature_cache) == sum(
                r.status is ResponseStatus.OK for r in responses
            )
        assert all(
            r.status in (ResponseStatus.OK, ResponseStatus.CACHED)
            for r in responses
        )
        assert hashed == [plan.job_id for plan in plans[:6]]

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


class TestConcurrentClients:
    def test_every_request_resolves_with_a_typed_status(self, plans):
        """Four client threads, 100 requests, two workers: none hangs.

        A small queue sheds some requests, the first scoring calls
        raise, and repeated (plan, tokens) pairs hit the cache, so the
        answers mix statuses; the counters must account for each one.
        """
        futures = []
        lock = threading.Lock()

        def client(server, first):
            for i in range(first, 100, 4):
                future = server.submit(plans[i % 20], 10 + i % 3)
                with lock:
                    futures.append(future)

        config = ServerConfig(workers=2, max_queue=16, max_batch_size=4)
        with AllocationServer(StubPipeline(fail_times=2), config) as server:
            clients = [
                threading.Thread(target=client, args=(server, k))
                for k in range(4)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=10.0)
            responses = [future.result(timeout=5.0) for future in futures]
        assert not any(thread.is_alive() for thread in clients)
        assert len(responses) == 100
        assert all(isinstance(r.status, ResponseStatus) for r in responses)
        counters = server.metrics.snapshot()["counters"]
        answered = {
            status: counters.get(f"responses_{status.value}", 0)
            for status in ResponseStatus
        }
        assert sum(answered.values()) == counters["requests_total"] == 100
        assert answered == {
            status: sum(r.status is status for r in responses)
            for status in ResponseStatus
        }


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
        """A batch whose scoring raises falls back whole, as one failure."""

        class PoisonedPipeline(StubPipeline):
            def score_batch(self, batch_plans, requested_tokens, features=None):
                recommendations = super().score_batch(
                    batch_plans, requested_tokens, features
                )
                if 13 in requested_tokens:
                    raise ModelError("unlucky request")
                return recommendations

        pipeline = PoisonedPipeline(gate=threading.Event())
        config = ServerConfig(workers=1, breaker_failure_threshold=2)
        with AllocationServer(pipeline, config) as server:
            # tokens 10-13: the last of the three queued rows raises
            requests = [(plans[i], 10 + i) for i in range(4)]
            blocker, *answers = behind_blocker(server, pipeline, requests)
            assert blocker.status is ResponseStatus.OK
            # one failure for the whole batch: below the threshold of two
            assert server.breaker.state is BreakerState.CLOSED
            alone = server.request(plans[4], 13)
            assert server.breaker.state is BreakerState.OPEN
        assert pipeline.calls == [1, 3, 1]
        assert [(a.status, a.reason) for a in answers] == [
            (ResponseStatus.FALLBACK, "model_error")
        ] * 3
        assert alone.reason == "model_error"
        counters = server.metrics.snapshot()["counters"]
        assert counters["model_errors"] == 2
        assert counters["fallback_model_error"] == 4

    def test_worker_survives_unexpected_exception(self, plans, capsys):
        """A non-ReproError from a batch is a fallback, not a dead worker."""

        class CrashOncePipeline(StubPipeline):
            def score_batch(self, batch_plans, requested_tokens, features=None):
                if not self.calls:
                    self.calls.append(len(batch_plans))
                    raise ValueError("unexpected scoring bug")
                return super().score_batch(
                    batch_plans, requested_tokens, features
                )

        pipeline = CrashOncePipeline()
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            crashed = server.submit(plans[0], 10).result(timeout=1.0)
            after = server.request(plans[1], 10, timeout=1.0)
            alive = all(worker.is_alive() for worker in server._workers)
        assert crashed.status is ResponseStatus.FALLBACK
        assert crashed.reason == "model_error"
        assert crashed.tokens == 10  # passthrough fallback
        assert after.status is ResponseStatus.OK
        assert alive
        counters = server.metrics.snapshot()["counters"]
        assert counters["worker_errors"] == 1
        assert counters["fallback_model_error"] == 1
        assert "ValueError: unexpected scoring bug" in capsys.readouterr().err

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


class TestUnusableCurves:
    """A plan whose predicted PCC increases falls back alone."""

    def test_one_call_per_batch_and_bad_rows_fall_back(self, plans):
        pipeline = GatedPipeline(StubPredictor(increasing={plans[2].job_id}))
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            responses = behind_blocker(
                server, pipeline, [(plans[i], 10) for i in range(4)]
            )
            state = server.breaker.state
        assert pipeline.calls == [1, 3]
        assert [(r.status, r.reason) for r in responses] == [
            (ResponseStatus.OK, None),
            (ResponseStatus.OK, None),
            (ResponseStatus.FALLBACK, "unusable_curve"),
            (ResponseStatus.OK, None),
        ]
        assert responses[2].tokens == 10  # passthrough fallback
        counters = server.metrics.snapshot()["counters"]
        assert counters["batches"] == 2
        assert counters["fallback_unusable_curve"] == 1
        assert counters.get("fallback_model_error", 0) == 0
        assert state is BreakerState.CLOSED

    def test_unusable_rows_never_open_the_breaker(self, plans):
        threshold = 3
        bad = {plan.job_id for plan in plans[1 : threshold + 4]}
        config = ServerConfig(workers=1, breaker_failure_threshold=threshold)
        pipeline = GatedPipeline(StubPredictor(increasing=bad))
        with AllocationServer(pipeline, config) as server:
            # one batch of threshold + 2 unusable rows, then one alone
            requests = [(plans[i], 10) for i in range(threshold + 3)]
            responses = behind_blocker(server, pipeline, requests)
            responses.append(server.request(plans[threshold + 3], 10))
            after = server.request(plans[threshold + 4], 10)
            state = server.breaker.state
            trips = server.breaker.trip_count
        assert pipeline.calls == [1, threshold + 2, 1, 1]
        assert [(r.status, r.reason) for r in responses[1:]] == [
            (ResponseStatus.FALLBACK, "unusable_curve")
        ] * (threshold + 3)
        assert after.status is ResponseStatus.OK
        assert state is BreakerState.CLOSED
        assert trips == 0


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
