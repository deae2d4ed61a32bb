"""Unit tests for FCFS admission of fixed-grant jobs.

A :meth:`FleetJob.fixed` job holds exactly its request, so these pin
the plain FCFS queue semantics of :class:`FleetScheduler` that the
motivation benchmark and the Default/Peak/TASQ baselines rely on.
"""

import numpy as np
import pytest

from repro.exceptions import ExecutionError
from repro.fleet import FleetJob, FleetScheduler


def _job(job_id, arrival, tokens, runtime):
    return FleetJob.fixed(
        job_id=job_id, arrival_time=arrival, tokens=tokens, runtime=runtime
    )


class TestQueuedJob:
    def test_validation(self):
        with pytest.raises(ExecutionError):
            _job("a", 0, 0, 10)
        with pytest.raises(ExecutionError):
            _job("a", 0, 1, 0)
        with pytest.raises(ExecutionError):
            _job("a", -1, 1, 10)


class TestClusterQueue:
    def test_no_contention_no_wait(self):
        queue = FleetScheduler(capacity=100)
        report = queue.run(
            [_job("a", 0, 30, 10), _job("b", 0, 30, 10), _job("c", 0, 30, 10)]
        )
        assert report.mean_wait == 0.0
        assert report.makespan == 10.0

    def test_contention_serialises(self):
        queue = FleetScheduler(capacity=50)
        report = queue.run([_job("a", 0, 50, 10), _job("b", 0, 50, 10)])
        waits = {o.job_id: o.wait_time for o in report.outcomes}
        assert waits["a"] == 0.0
        assert waits["b"] == 10.0
        assert report.makespan == 20.0

    def test_partial_overlap(self):
        queue = FleetScheduler(capacity=100)
        report = queue.run(
            [_job("a", 0, 60, 10), _job("b", 0, 60, 10), _job("c", 0, 40, 10)]
        )
        by_id = {o.job_id: o for o in report.outcomes}
        assert by_id["a"].start_time == 0.0
        # FCFS: b must wait for a even though c would fit — and c waits
        # behind b (no backfilling).
        assert by_id["b"].start_time == 10.0
        assert by_id["c"].start_time == 10.0

    def test_arrivals_respected(self):
        queue = FleetScheduler(capacity=10)
        report = queue.run([_job("a", 5.0, 10, 2)])
        assert report.outcomes[0].start_time == 5.0
        assert report.outcomes[0].wait_time == 0.0

    def test_smaller_requests_reduce_wait(self):
        """The paper's motivating claim, in miniature."""
        arrivals = [(f"j{i}", float(i), 5.0) for i in range(20)]
        fat = [_job(j, t, 50, d) for j, t, d in arrivals]
        slim = [_job(j, t, 25, d * 1.1) for j, t, d in arrivals]  # 10% slower
        queue = FleetScheduler(capacity=100)
        assert queue.run(slim).mean_wait < queue.run(fat).mean_wait

    def test_rejects_oversized_job(self):
        with pytest.raises(ExecutionError):
            FleetScheduler(capacity=10).run([_job("a", 0, 11, 5)])

    def test_rejects_empty_stream(self):
        with pytest.raises(ExecutionError):
            FleetScheduler(capacity=10).run([])

    def test_rejects_bad_capacity(self):
        with pytest.raises(ExecutionError):
            FleetScheduler(capacity=0)

    def test_report_statistics(self):
        queue = FleetScheduler(capacity=10)
        report = queue.run(
            [_job("a", 0, 10, 4), _job("b", 0, 10, 4), _job("c", 0, 10, 4)]
        )
        assert report.mean_wait == pytest.approx((0 + 4 + 8) / 3)
        assert report.median_wait == 4.0
        # Linear-interpolated 95th percentile of [0, 4, 8].
        assert report.p95_wait == pytest.approx(7.6)
        assert report.mean_turnaround == pytest.approx((4 + 8 + 12) / 3)

    def test_conservation(self):
        """Token-time used never exceeds capacity * makespan."""
        rng = np.random.default_rng(1)
        jobs = [
            _job(f"j{i}", float(rng.uniform(0, 50)),
                 int(rng.integers(1, 40)), float(rng.uniform(1, 30)))
            for i in range(40)
        ]
        queue = FleetScheduler(capacity=40)
        report = queue.run(jobs)
        used = sum(
            j.demand.min_tokens * j.runtime_at(j.demand.min_tokens)
            for j in jobs
        )
        assert used <= queue.capacity * report.makespan + 1e-6
        # Starts never precede arrivals, finishes follow starts.
        for outcome, job in zip(
            sorted(report.outcomes, key=lambda o: o.job_id),
            sorted(jobs, key=lambda j: j.job_id),
        ):
            assert outcome.start_time >= job.arrival_time - 1e-12
            assert outcome.finish_time > outcome.start_time


class TestReportPercentiles:
    """p50/p95 wait and slowdown surfaces added for replay reporting."""

    def report(self):
        # Serial pool: waits 0/4/8/12, runtimes all 4 → turnarounds
        # 4/8/12/16 and slowdowns 1/2/3/4.
        return FleetScheduler(capacity=10).run(
            [_job(f"j{i}", 0, 10, 4) for i in range(4)]
        )

    def test_outcome_runtime_and_slowdown(self):
        outcomes = sorted(
            self.report().outcomes, key=lambda o: o.start_time
        )
        assert [o.runtime for o in outcomes] == [4.0] * 4
        assert [o.slowdown for o in outcomes] == [1.0, 2.0, 3.0, 4.0]

    def test_wait_percentiles(self):
        report = self.report()
        assert report.p50_wait == pytest.approx(6.0)
        assert report.p95_wait == pytest.approx(
            np.percentile([0.0, 4.0, 8.0, 12.0], 95)
        )
        assert report.wait_percentile(0) == 0.0
        assert report.wait_percentile(100) == 12.0

    def test_slowdown_percentiles(self):
        report = self.report()
        assert report.p50_slowdown == pytest.approx(2.5)
        assert report.p95_slowdown == pytest.approx(
            np.percentile([1.0, 2.0, 3.0, 4.0], 95)
        )

    def test_immediate_job_has_unit_slowdown(self):
        report = FleetScheduler(capacity=10).run([_job("solo", 0, 10, 5)])
        assert report.p50_slowdown == 1.0
        assert report.p95_slowdown == 1.0
        assert report.p95_wait == 0.0
