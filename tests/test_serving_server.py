"""Behavioural tests for the AllocationServer.

A stub scoring pipeline (instant, deterministic, optionally failing or
gated on an event) isolates the server mechanics — micro-batching,
caching, shedding, circuit breaking, fallback, feedback, hot swap —
from model quality and training cost.
"""

import sys
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
    ResponseStatus,
    ServerConfig,
    build_server,
)
from repro.serving import fallback as fallback_module
from repro.serving import server as server_module
from repro.serving.admission import HALF_OPEN_PROBES, RECOVERY_S
from repro.serving.server import MAX_QUEUE
from repro.tasq import ScoringPipeline, TokenRecommendation


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


class CountingPipeline(ScoringPipeline):
    """A real scoring pipeline that logs the job id of every scored row."""

    def __init__(self, model, **kwargs):
        super().__init__(model, **kwargs)
        self.rows: list[str] = []

    def score_batch(self, plans, requested_tokens, features=None):
        self.rows.extend(plan.job_id for plan in plans)
        return super().score_batch(plans, requested_tokens, features)


def behind_blocker(server, pipeline, requests):
    """Answers to ``requests`` queued while a first request is scored."""
    (plan, tokens), *rest = requests
    blocker = server.submit(plan, tokens)
    assert wait_until(lambda: len(pipeline.calls) == 1)
    queued = [server.submit(plan, tokens) for plan, tokens in rest]
    pipeline.gate.set()
    return [future.result(timeout=5.0) for future in [blocker, *queued]]


class FakeClock:
    """A clock that moves only when a test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


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

    @pytest.mark.parametrize("deadline", [np.nan, np.inf, 0.0, -1.0])
    def test_set_deadline_must_be_finite_and_positive(self, deadline):
        with pytest.raises(ServingError, match="deadline"):
            ServerConfig(deadline_s=deadline)

    def test_requested_tokens_must_be_positive(self, plans):
        with AllocationServer(StubPipeline()) as server:
            with pytest.raises(ServingError, match="positive"):
                server.submit(plans[0], 0)

    @pytest.mark.parametrize("tokens", [np.nan, np.inf, 2.5])
    def test_requested_tokens_must_be_an_integer(self, plans, tokens):
        pipeline = StubPipeline()
        with AllocationServer(pipeline) as server:
            with pytest.raises(ServingError, match="integer"):
                server.submit(plans[0], tokens)
        assert pipeline.calls == []

    def test_numpy_integer_tokens_are_served(self, plans):
        pipeline = StubPipeline()
        with AllocationServer(pipeline) as server:
            response = server.request(plans[0], np.int64(10))
        assert response.status is ResponseStatus.OK
        assert response.recommendation.requested_tokens == 10

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
        config = ServerConfig(workers=1, max_batch_size=1)
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

    def test_stop_answers_a_stalled_workers_batch(self, plans):
        """A worker that never returns from its batch does not leave the
        batch unanswered; its late answer changes nothing."""
        gate = threading.Event()
        pipeline = StubPipeline(gate=gate)
        server = AllocationServer(pipeline, ServerConfig(workers=1)).start()
        (worker,) = server._workers
        stalled = server.submit(plans[0], 10)
        assert wait_until(lambda: len(pipeline.calls) == 1)
        server.stop()  # waits out one join timeout
        answered = stalled.result(timeout=0)
        gate.set()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert (answered.status, answered.reason) == (
            ResponseStatus.REJECTED, "shutdown"
        )
        assert stalled.result(timeout=0) is answered
        counters = server.metrics.snapshot()["counters"]
        assert counters["responses_rejected"] == counters["requests_total"]
        assert counters["requests_total"] == 1
        assert "responses_ok" not in counters


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
        config = ServerConfig(workers=1, max_batch_size=3)
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
        config = ServerConfig(workers=1, max_batch_size=1)
        with AllocationServer(pipeline, config) as server:
            blocker = server.submit(plans[0], 10)
            assert wait_until(lambda: len(pipeline.calls) == 1)
            fits = [
                server.submit(plans[i % len(plans)], 10)
                for i in range(1, MAX_QUEUE + 1)
            ]
            shed = server.submit(plans[1], 10)
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
        """Four client threads, two rounds of 160 requests, two workers:
        none hangs.

        In the first round both workers are held on their first batch,
        so the queue fills and sheds; once released, the first two
        scoring calls raise. The second round repeats the first round's
        (plan, tokens) pairs, which hit the cache. The answers mix
        statuses; the counters must account for each one.
        """
        futures = []
        lock = threading.Lock()
        per_round, batch = 160, 4

        def client(server, first):
            for i in range(first, per_round, 4):
                future = server.submit(plans[i % 20], 10 + i % 3)
                with lock:
                    futures.append(future)

        def send_round(server):
            clients = [
                threading.Thread(target=client, args=(server, k))
                for k in range(4)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in clients)

        gate = threading.Event()
        pipeline = StubPipeline(fail_times=2, gate=gate)
        config = ServerConfig(workers=2, max_batch_size=batch)
        with AllocationServer(pipeline, config) as server:
            send_round(server)
            gate.set()
            for future in list(futures):
                future.result(timeout=5.0)
            send_round(server)
            responses = [future.result(timeout=5.0) for future in futures]
        assert len(responses) == 2 * per_round
        assert all(isinstance(r.status, ResponseStatus) for r in responses)
        # the held workers took at most one batch each off the queue
        shed = [r for r in responses if r.reason == "queue_full"]
        assert len(shed) >= per_round - MAX_QUEUE - 2 * batch
        assert any(r.status is ResponseStatus.CACHED for r in responses)
        counters = server.metrics.snapshot()["counters"]
        answered = {
            status: counters.get(f"responses_{status.value}", 0)
            for status in ResponseStatus
        }
        assert sum(answered.values()) == counters["requests_total"] == len(
            responses
        )
        assert answered == {
            status: sum(r.status is status for r in responses)
            for status in ResponseStatus
        }


class TestFailureContainment:
    def test_breaker_opens_and_serves_fallback(self, plans):
        """Forced model failures must never surface as exceptions."""
        pipeline = StubPipeline(fail_times=1000)
        config = ServerConfig(
            workers=1, breaker_failure_threshold=3, max_batch_size=1
        )
        # a clock that stands still keeps the breaker open
        with AllocationServer(pipeline, config, clock=FakeClock()) as server:
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
        config = ServerConfig(workers=1)
        with AllocationServer(pipeline, config, clock=FakeClock()) as server:
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
            workers=1, breaker_failure_threshold=3, max_batch_size=1
        )
        clock = FakeClock()
        with AllocationServer(pipeline, config, clock=clock) as server:
            for i in range(3):
                assert (
                    server.request(plans[i], 10).status
                    is ResponseStatus.FALLBACK
                )
            assert server.breaker.state is BreakerState.OPEN
            clock.now += RECOVERY_S  # recovery window elapses → probes
            for i in range(3, 3 + HALF_OPEN_PROBES):
                probe = server.request(plans[i], 10)
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

    def test_degraded_answers_are_not_cached(self, plans):
        pipeline = StubPipeline(fail_times=1)
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            failed = server.request(plans[0], 10)
            retried = server.request(plans[0], 10)
        assert (failed.status, failed.reason) == (
            ResponseStatus.FALLBACK, "model_error"
        )
        assert retried.status is ResponseStatus.OK
        assert pipeline.calls == [1, 1]

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


    def test_scored_once_per_model_version(self, plans):
        bad = plans[0].job_id
        pipeline = CountingPipeline(StubPredictor(increasing={bad}))
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            before = [server.request(plans[0], 10) for _ in range(3)]
            assert server.deploy(StubPredictor(increasing={bad})) == 2
            after = server.request(plans[0], 10)
            again = server.request(plans[0], 10)
        for response in (*before, after, again):
            assert (response.status, response.reason) == (
                ResponseStatus.FALLBACK, "unusable_curve"
            )
            assert response.tokens == 10  # passthrough fallback
        assert pipeline.rows == [bad, bad]
        counters = server.metrics.snapshot()["counters"]
        assert counters["fallback_unusable_curve"] == 5
        assert counters["batches"] == 2

    def test_recurring_twin_of_an_unusable_instance_is_scored(
        self, workload_jobs
    ):
        """Instances of one signature differ in their estimates, so the
        mark is per instance: the twin gets its own curve."""
        first, twin = recurring_pair(workload_jobs)
        pipeline = CountingPipeline(StubPredictor(increasing={first.job_id}))
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            unusable = server.request(first.plan, 10)
            scored = server.request(twin.plan, 10)
            repeat = server.request(first.plan, 10)
        assert unusable.reason == "unusable_curve"
        assert scored.status is ResponseStatus.OK
        # the twin's answer now serves the whole signature
        assert repeat.status is ResponseStatus.CACHED
        assert pipeline.rows == [first.job_id, twin.job_id]


def recurring_pair(jobs):
    """Two instances of one recurring template (one plan signature)."""
    seen = {}
    for job in jobs:
        signature = plan_signature(job.plan)
        if signature in seen:
            return seen[signature], job
        seen[signature] = job
    raise AssertionError("the workload should hold recurring instances")


class TestFallbackPolicies:
    def test_passthrough_preserves_request(self, plans):
        """Without a repository every request passes through."""
        fallback = HistoricalMedianFallback(None)
        response = fallback.recommend(
            plans[0], 37, plan_signature(plans[0])
        )
        assert response.optimal_tokens == 37
        assert response.job_id == plans[0].job_id

    def test_historical_median_uses_signature_history(self, repository):
        fallback = HistoricalMedianFallback(repository)
        record = repository.records()[0]
        signature = plan_signature(record.plan)
        peaks = [
            float(r.peak_tokens)
            for r in repository
            if plan_signature(r.plan) == signature
        ]
        expected = max(1, int(round(float(np.median(peaks)))))
        rec = fallback.recommend(record.plan, 10_000, signature)
        assert rec.optimal_tokens == expected

    def test_historical_median_caps_at_request(self, repository):
        record = repository.records()[0]
        fallback = HistoricalMedianFallback(repository)
        rec = fallback.recommend(record.plan, 1, plan_signature(record.plan))
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
        rec = fallback.recommend(fresh_plan, 123, plan_signature(fresh_plan))
        assert rec.optimal_tokens == 123

    def test_server_uses_repository_fallback(self, plans, repository):
        pipeline = StubPipeline(fail_times=1000)
        config = ServerConfig(workers=1, breaker_failure_threshold=1)
        record = repository.records()[0]
        with AllocationServer(pipeline, config, repository=repository) as server:
            response = server.request(record.plan, 10_000)
        assert response.status is ResponseStatus.FALLBACK
        assert response.tokens < 10_000  # historical median, not passthrough

    def test_breaker_open_fallback_hashes_the_plan_once(
        self, repository, monkeypatch
    ):
        """The fallback looks up the signature submit computed."""
        hashed = []

        def counting_signature(plan):
            hashed.append(plan.job_id)
            return plan_signature(plan)

        record = repository.records()[0]
        config = ServerConfig(workers=1)
        with AllocationServer(
            StubPipeline(), config, repository=repository, clock=FakeClock()
        ) as server:
            for _ in range(config.breaker_failure_threshold):
                server.breaker.record_failure()
            monkeypatch.setattr(
                server_module, "plan_signature", counting_signature
            )
            monkeypatch.setattr(
                fallback_module, "plan_signature", counting_signature
            )
            response = server.request(record.plan, 10_000)
        assert (response.status, response.reason) == (
            ResponseStatus.FALLBACK, "breaker_open"
        )
        assert response.tokens < 10_000  # the signature's history answered
        assert hashed == [record.job_id]


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
        pipeline = ScoringPipeline(StubPredictor(a=-0.5, log_b=6.0))
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            assert server.model_version == 1
            first = server.request(plans[0], 500)
            assert server.deploy(StubPredictor(a=-0.99, log_b=6.0)) == 2
            assert server.model_version == 2
            second = server.request(plans[1], 500)
        assert first.status is ResponseStatus.OK
        assert second.status is ResponseStatus.OK
        # steeper PCC → the swapped-in model recommends more tokens
        assert second.recommendation.pcc.a == pytest.approx(-0.99)
        # one deploy, one swap: the pipeline's own model is no swap
        assert server.metrics.snapshot()["counters"]["model_swaps"] == 1

    def test_swap_retires_the_old_versions_answers(self, plans):
        """The same plan, asked before and after a swap, gets the new
        model's answer, not the old version's cached one."""
        pipeline = ScoringPipeline(StubPredictor(a=-0.5, log_b=6.0))
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            first = server.request(plans[0], 100)
            cached = server.request(plans[0], 100)
            assert server.deploy(StubPredictor(a=-0.99, log_b=6.0)) == 2
            after = server.request(plans[0], 100)
            cached_after = server.request(plans[0], 100)
        assert (first.status, first.tokens) == (ResponseStatus.OK, 50)
        assert (cached.status, cached.tokens) == (ResponseStatus.CACHED, 50)
        assert (after.status, after.tokens) == (ResponseStatus.OK, 99)
        assert after.recommendation.pcc.a == pytest.approx(-0.99)
        assert cached_after.status is ResponseStatus.CACHED
        assert cached_after.tokens == 99

    def test_answer_scored_before_a_swap_is_not_served_after_it(
        self, plans
    ):
        class HoldFirstAnswers(ScoringPipeline):
            """Holds the first batch's answers until ``release`` is set."""

            def __init__(self, model):
                super().__init__(model)
                self.scored = threading.Event()
                self.release = threading.Event()

            def score_batch(self, plans, requested_tokens, features=None):
                answers = super().score_batch(
                    plans, requested_tokens, features
                )
                if not self.scored.is_set():
                    self.scored.set()
                    self.release.wait(timeout=10.0)
                return answers

        pipeline = HoldFirstAnswers(StubPredictor(a=-0.5, log_b=6.0))
        with AllocationServer(pipeline, ServerConfig(workers=1)) as server:
            held = server.submit(plans[0], 100)
            assert pipeline.scored.wait(timeout=5.0)
            assert server.deploy(StubPredictor(a=-0.99, log_b=6.0)) == 2
            pipeline.release.set()
            # scored by version 1, cached after the swap
            assert held.result(timeout=5.0).tokens == 50
            after = server.request(plans[0], 100)
        assert (after.status, after.tokens) == (ResponseStatus.OK, 99)

    def test_no_answer_predates_the_version_deployed_at_submit(self, plans):
        """Four workers and four clients on two cores while versions are
        swapped in: every model answer comes from the version deployed
        when its request was submitted, or from a newer one."""
        step = 0.05  # version v predicts a = -step * v

        def version_of(response):
            return round(-response.recommendation.pcc.a / step)

        answers = []
        lock = threading.Lock()
        swapped = threading.Event()

        def client(server):
            i = 0
            while not swapped.is_set():
                deployed = server.model_version
                response = server.request(plans[i % 3], 100, timeout=5.0)
                with lock:
                    answers.append((deployed, response))
                i += 1
                time.sleep(0.0002)

        config = ServerConfig(workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AllocationServer(
                ScoringPipeline(StubPredictor(a=-step)), config
            ) as server:
                clients = [
                    threading.Thread(target=client, args=(server,))
                    for _ in range(4)
                ]
                for thread in clients:
                    thread.start()
                for version in range(2, 12):
                    time.sleep(0.01)
                    model = StubPredictor(a=-step * version)
                    assert server.deploy(model) == version
                time.sleep(0.01)
                swapped.set()
                for thread in clients:
                    thread.join(timeout=10.0)
        finally:
            swapped.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        served = [
            (deployed, response) for deployed, response in answers
            if response.status in (ResponseStatus.OK, ResponseStatus.CACHED)
        ]
        assert any(r.status is ResponseStatus.CACHED for _, r in served)
        for deployed, response in served:
            assert version_of(response) >= deployed
