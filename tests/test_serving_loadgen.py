"""Tests for the serving load generator."""

import time

import pytest

from repro.exceptions import ServingError
from repro.serving import (
    AllocationServer,
    LoadGenerator,
    LoadgenConfig,
    ServerConfig,
)
from tests.test_serving_server import StubPipeline


def make_server(workers=1):
    return AllocationServer(StubPipeline(), ServerConfig(workers=workers))


class StallingServer:
    """Wraps a real server but stalls every ``submit`` call.

    Models the coordinated-omission scenario: the server admits work
    slowly enough that the open-loop generator falls behind its own
    arrival schedule, while each request's *server-measured* latency
    stays tiny (the stall happens before the server's clock starts).
    """

    def __init__(self, inner, stall_s):
        self._inner = inner
        self._stall_s = stall_s

    def submit(self, plan, requested_tokens):
        time.sleep(self._stall_s)
        return self._inner.submit(plan, requested_tokens)

    def __enter__(self):
        self._inner.start()
        return self

    def __exit__(self, *exc_info):
        self._inner.stop()


class TestSchedule:
    def test_deterministic_under_fixed_seed(self, workload_jobs):
        config = LoadgenConfig(requests=200, seed=42)
        first = LoadGenerator(workload_jobs, config).schedule()
        second = LoadGenerator(workload_jobs, config).schedule()
        assert [j.job_id for j in first] == [j.job_id for j in second]

    def test_seed_changes_schedule(self, workload_jobs):
        a = LoadGenerator(workload_jobs, LoadgenConfig(requests=200, seed=1))
        b = LoadGenerator(workload_jobs, LoadgenConfig(requests=200, seed=2))
        ids_a = [j.job_id for j in a.schedule()]
        ids_b = [j.job_id for j in b.schedule()]
        assert ids_a != ids_b

    def test_skew_concentrates_traffic(self, workload_jobs):
        skewed = LoadGenerator(
            workload_jobs, LoadgenConfig(requests=400, popularity_skew=1.5, seed=0)
        ).schedule()
        uniform = LoadGenerator(
            workload_jobs, LoadgenConfig(requests=400, popularity_skew=0.0, seed=0)
        ).schedule()
        assert len({j.job_id for j in skewed}) < len({j.job_id for j in uniform})

    def test_validation(self, workload_jobs):
        with pytest.raises(ServingError):
            LoadgenConfig(requests=0)
        with pytest.raises(ServingError):
            LoadgenConfig(clients=0)
        with pytest.raises(ServingError):
            LoadGenerator([], LoadgenConfig())


class TestClosedLoop:
    def test_results_deterministic_with_one_client(self, workload_jobs):
        """Single client + single worker: identical count statistics."""
        config = LoadgenConfig(requests=120, clients=1, seed=7)
        reports = []
        for _ in range(2):
            with make_server(workers=1) as server:
                reports.append(
                    LoadGenerator(workload_jobs, config).run(server)
                )
        first, second = reports
        assert first.requests == second.requests == 120
        assert first.ok == second.ok
        assert first.cached == second.cached
        assert first.fallback == second.fallback == 0
        assert first.rejected == second.rejected == 0
        assert first.cache_hit_rate == second.cache_hit_rate
        assert first.throughput_rps > 0

    def test_warm_rerun_improves_hit_rate_and_latency(self, workload_jobs):
        config = LoadgenConfig(requests=150, clients=2, seed=3)
        loadgen = LoadGenerator(workload_jobs, config)
        with make_server(workers=2) as server:
            cold = loadgen.run(server)
            warm = loadgen.run(server)
        assert warm.cache_hit_rate > cold.cache_hit_rate
        assert warm.cache_hit_rate == pytest.approx(1.0)
        # Most cold requests already hit the cache, so both p50s are hits;
        # the cold p95 falls on a miss and the warm one on a hit.
        assert warm.latency_p95_s <= cold.latency_p95_s

    def test_all_requests_answered(self, workload_jobs):
        config = LoadgenConfig(requests=100, clients=4, seed=0)
        with make_server(workers=2) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        assert report.ok + report.cached + report.fallback + report.rejected == 100


class TestOpenLoop:
    def test_open_loop_completes(self, workload_jobs):
        config = LoadgenConfig(requests=60, arrival_rate=5000.0, seed=0)
        with make_server(workers=2) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        assert report.requests == 60
        assert report.ok + report.cached + report.fallback + report.rejected == 60

    def test_overload_sheds_instead_of_queueing(self, workload_jobs):
        """An open-loop flood against a tiny queue must shed, not hang."""
        gate_free = StubPipeline()
        config = ServerConfig(workers=1, max_queue=4, max_batch_size=1)
        server = AllocationServer(gate_free, config)
        loadgen = LoadGenerator(
            workload_jobs,
            LoadgenConfig(requests=300, arrival_rate=100_000.0, seed=0),
        )
        with server:
            report = loadgen.run(server)
        assert report.requests == 300
        counters = server.metrics.snapshot()["counters"]
        assert report.rejected == counters.get("rejected_queue_full", 0)


class TestCoordinatedOmission:
    def test_send_lag_is_charged_to_latency(self, workload_jobs):
        """A stalled generator must not report rosy percentiles.

        The arrival schedule asks for 1000 req/s but every submit stalls
        5 ms, so the generator drifts further behind with each request.
        Naive server-side latency stays sub-millisecond; the corrected
        p99 must include the accumulated schedule lag.
        """
        stall = 0.005
        config = LoadgenConfig(requests=40, arrival_rate=1000.0, seed=0)
        with StallingServer(make_server(workers=2), stall) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        # 40 requests at 1 ms spacing with 5 ms stalls: the last request
        # leaves ~40 * (5-1) ms late. The lag must be visible...
        assert report.max_send_lag_s > 0.05
        # ...and charged into the percentiles, not just reported beside
        # them (the classic coordinated-omission mistake).
        assert report.latency_p99_s >= report.max_send_lag_s * 0.5

    def test_no_lag_when_generator_keeps_up(self, workload_jobs):
        config = LoadgenConfig(requests=30, arrival_rate=50.0, seed=0)
        with make_server(workers=2) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        # 20 ms between arrivals against an instant stub: no meaningful
        # lag, so CO correction leaves the percentiles alone.
        assert report.max_send_lag_s < 0.01

    def test_closed_loop_reports_zero_lag(self, workload_jobs):
        config = LoadgenConfig(requests=30, clients=2, seed=0)
        with make_server(workers=2) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        assert report.max_send_lag_s == 0.0


class TestSLOAssertions:
    def test_violation_recorded_and_raised(self, workload_jobs):
        config = LoadgenConfig(
            requests=40,
            arrival_rate=1000.0,
            seed=0,
            slo_p99_s=1e-9,  # impossible: everything violates
        )
        with make_server(workers=2) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        assert report.slo_violations
        assert any("p99" in v for v in report.slo_violations)
        with pytest.raises(ServingError, match="SLO"):
            report.assert_slo()
        assert "SLO VIOLATION" in report.render()

    def test_generous_slo_passes(self, workload_jobs):
        config = LoadgenConfig(
            requests=40, clients=2, seed=0, slo_p95_s=60.0, slo_p99_s=60.0
        )
        with make_server(workers=2) as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        assert report.slo_violations == ()
        assert report.assert_slo() is report

    def test_slo_must_be_positive(self):
        with pytest.raises(ServingError):
            LoadgenConfig(slo_p95_s=0.0)
        with pytest.raises(ServingError):
            LoadgenConfig(slo_p99_s=-1.0)


class TestReport:
    def test_render_mentions_required_stats(self, workload_jobs):
        config = LoadgenConfig(requests=50, clients=1, seed=0)
        with make_server() as server:
            report = LoadGenerator(workload_jobs, config).run(server)
        text = report.render()
        for needle in (
            "throughput", "p50", "p95", "p99", "cache hit rate", "shed rate",
        ):
            assert needle in text
