"""Tests for repro.fleet: global allocation, scheduling, evaluation.

The allocator's promise is simple — never exceed the cap, never leave a
demand outside its bounds, and spend spare tokens where the predicted
PCCs say they buy the most run time. These tests check that promise on
the water-filling rule itself, then through the scheduler and the
evaluation harness.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutionError, FleetError
from repro.fleet import (
    BASELINE_NAMES,
    FleetJob,
    FleetReport,
    FleetScheduler,
    GlobalAllocator,
    JobDemand,
    build_demands,
    compare_policies,
    score_usable,
    water_fill,
)
from repro.pcc.curve import PowerLawPCC
from repro.pcc.optimal import tokens_for_slowdown
from repro.scope.cluster import QueueOutcome, QueueReport
from repro.tasq.pipeline import TokenRecommendation


def demand(job_id, a=-0.8, b=500.0, lo=1, hi=256):
    return JobDemand(
        job_id=job_id,
        pcc=PowerLawPCC(a=a, b=b),
        min_tokens=lo,
        max_tokens=hi,
    )


def total_runtime(demands, grants):
    return float(
        sum(d.pcc.runtime(int(g)) for d, g in zip(demands, grants))
    )


def brute_force_optimum(demands, cap):
    """Exhaustive integer optimum — only for tiny instances."""
    grids = np.meshgrid(
        *[np.arange(d.min_tokens, d.max_tokens + 1) for d in demands],
        indexing="ij",
    )
    runtime = sum(
        d.pcc.b * g.astype(float) ** d.pcc.a
        for d, g in zip(demands, grids)
    )
    return float(runtime[sum(grids) <= cap].min())


@st.composite
def tiny_instances(draw):
    """Up to four jobs, each with at most eleven feasible grants."""
    demands = []
    for i in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(1, 8))
        demands.append(
            demand(
                f"j{i}",
                a=draw(st.floats(-1.5, 0.0)),
                b=draw(st.floats(1.0, 1000.0)),
                lo=lo,
                hi=lo + draw(st.integers(0, 10)),
            )
        )
    floors = sum(d.min_tokens for d in demands)
    ceilings = sum(d.max_tokens for d in demands)
    return demands, draw(st.integers(floors, ceilings))


class TestJobDemand:
    def test_validation(self):
        with pytest.raises(FleetError):
            demand("a", lo=0)
        with pytest.raises(FleetError):
            demand("a", lo=10, hi=5)
        with pytest.raises(FleetError):
            demand("a", a=0.3)  # increasing PCC


class TestWaterFilling:
    def test_symmetric_jobs_split_evenly(self):
        demands = [demand(f"j{i}", a=-0.8, hi=100) for i in range(4)]
        grants = water_fill(demands, cap=120)
        assert list(grants) == [30, 30, 30, 30]

    def test_ample_cap_grants_maximums(self):
        demands = [demand("a", hi=40), demand("b", hi=60)]
        grants = water_fill(demands, cap=500)
        assert list(grants) == [40, 60]

    def test_contended_cap_is_fully_spent(self):
        demands = [demand(f"j{i}", a=-0.5 - 0.1 * i) for i in range(3)]
        grants = water_fill(demands, cap=100)
        assert int(np.sum(grants)) == 100

    @given(case=tiny_instances())
    @example(
        case=(
            [
                demand("steep", a=-0.9, b=300.0, lo=1, hi=12),
                demand("mid", a=-0.5, b=500.0, lo=2, hi=12),
                demand("shallow", a=-0.2, b=800.0, lo=1, hi=12),
            ],
            18,
        )
    )
    @example(
        case=(
            [
                demand("steep", a=-0.9, b=300.0, lo=1, hi=12),
                demand("shallow", a=-0.2, b=800.0, lo=1, hi=12),
            ],
            16,
        )
    )
    @settings(deadline=None)
    def test_near_optimal_on_concave_curves(self, case):
        demands, cap = case
        grants = water_fill(demands, cap)
        achieved = total_runtime(demands, grants)
        optimum = brute_force_optimum(demands, cap)
        assert achieved <= optimum * 1.01

    def test_marginal_gains_equalized_at_interior_solution(self):
        # KKT: interior grants share one multiplier, so the marginal
        # run-time gain of the next token is (nearly) equal across jobs.
        demands = [
            demand("a", a=-0.9, b=300.0, hi=10_000),
            demand("b", a=-0.6, b=900.0, hi=10_000),
        ]
        grants = water_fill(demands, cap=400)
        gains = [
            d.pcc.runtime(g) - d.pcc.runtime(g + 1)
            for d, g in zip(demands, grants)
        ]
        assert gains[0] == pytest.approx(gains[1], rel=0.05)

    def test_flat_curves_get_minimums(self):
        demands = [demand(f"j{i}", a=0.0, lo=3, hi=50) for i in range(3)]
        grants = water_fill(demands, cap=60)
        assert list(grants) == [3, 3, 3]

    def test_respects_bounds(self):
        demands = [demand("tiny", lo=2, hi=4), demand("big", lo=5, hi=90)]
        grants = water_fill(demands, cap=50)
        for d, g in zip(demands, grants):
            assert d.min_tokens <= g <= d.max_tokens


class TestGlobalAllocator:
    def test_validates_inputs(self):
        allocator = GlobalAllocator(100)
        with pytest.raises(FleetError):
            allocator.allocate([])
        with pytest.raises(FleetError):
            allocator.allocate([demand("dup"), demand("dup")])
        with pytest.raises(FleetError):
            allocator.allocate([demand("a", lo=80), demand("b", lo=80)])

    def test_allocation_accounting(self):
        allocator = GlobalAllocator(100)
        allocation = allocator.allocate(
            [demand("a", hi=30), demand("b", hi=30)]
        )
        assert allocation.total_tokens == 60
        assert allocation.spare_tokens == 40
        by_job = allocation.by_job()
        assert set(by_job) == {"a", "b"}
        for grant in allocation.grants:
            d = next(
                x for x in [demand("a", hi=30), demand("b", hi=30)]
                if x.job_id == grant.job_id
            )
            assert grant.predicted_runtime == pytest.approx(
                d.pcc.runtime(grant.tokens)
            )

@st.composite
def demand_sets(draw):
    n = draw(st.integers(1, 6))
    demands = []
    for i in range(n):
        a = draw(
            st.floats(-1.5, -0.05, allow_nan=False, allow_infinity=False)
        )
        b = draw(
            st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False)
        )
        lo = draw(st.integers(1, 8))
        hi = lo + draw(st.integers(0, 64))
        demands.append(
            JobDemand(
                job_id=f"j{i}",
                pcc=PowerLawPCC(a=a, b=b),
                min_tokens=lo,
                max_tokens=hi,
            )
        )
    cap = sum(d.min_tokens for d in demands) + draw(st.integers(0, 128))
    return demands, cap


class TestPolicyProperties:
    @given(case=demand_sets())
    @settings(max_examples=60, deadline=None)
    def test_no_policy_exceeds_cap_or_bounds(self, case):
        demands, cap = case
        # GlobalAllocator.allocate post-validates every grant against
        # the demand bounds and the cap, raising FleetError on any
        # violation — so surviving the call IS the assertion.
        allocation = GlobalAllocator(cap).allocate(demands)
        assert allocation.total_tokens <= cap


def fleet_job(job_id, arrival, lo=1, hi=64, runtime=None, a=-0.8, b=500.0):
    return FleetJob(
        job_id=job_id,
        arrival_time=arrival,
        demand=demand(job_id, a=a, b=b, lo=lo, hi=hi),
        runtime_fn=(None if runtime is None else (lambda tokens: runtime)),
    )


class TestFleetScheduler:
    def test_validation(self):
        scheduler = FleetScheduler(capacity=10)
        with pytest.raises(ExecutionError):
            scheduler.run([])
        with pytest.raises(ExecutionError):
            scheduler.run([fleet_job("big", 0, lo=11)])
        # A NaN arrival never comes due, so the stream used to leave it,
        # and everything queued behind it, unadmitted without a word.
        with pytest.raises(ExecutionError, match="arrival time"):
            scheduler.run(
                [
                    FleetJob.fixed("a", 0.0, tokens=5, runtime=1.0),
                    FleetJob.fixed("b", math.nan, tokens=5, runtime=1.0),
                    FleetJob.fixed("c", 1.0, tokens=5, runtime=1.0),
                ]
            )
        with pytest.raises(ExecutionError, match="arrival time"):
            fleet_job("inf", math.inf)
        for runtime in (math.nan, math.inf):
            with pytest.raises(ExecutionError, match="run time"):
                FleetJob.fixed("d", 0.0, tokens=5, runtime=runtime)
        with pytest.raises(ExecutionError, match="run time"):
            scheduler.run([fleet_job("e", 0.0, runtime=math.nan)])

    def test_uncontended_jobs_get_maximums(self):
        scheduler = FleetScheduler(capacity=1000)
        report = scheduler.run(
            [fleet_job("a", 0, hi=64), fleet_job("b", 0, hi=32)]
        )
        grants = {o.job_id: o.tokens for o in report.outcomes}
        assert grants == {"a": 64, "b": 32}
        assert report.mean_wait == 0.0

    def test_contended_admission_squeezes_grants(self):
        scheduler = FleetScheduler(capacity=40)
        report = scheduler.run(
            [fleet_job("a", 0, hi=64), fleet_job("b", 0, hi=64)]
        )
        assert sum(o.tokens for o in report.outcomes) <= 40
        assert report.mean_wait == 0.0  # both admitted immediately
        assert report.peak_committed_tokens <= 40

    def test_fcfs_order_preserved(self):
        # The first waiting job's floor does not fit, so the later
        # small job must NOT jump the queue (no backfilling).
        scheduler = FleetScheduler(capacity=10)
        report = scheduler.run(
            [
                fleet_job("hog", 0.0, lo=10, hi=10, runtime=100.0),
                fleet_job("big", 1.0, lo=8, hi=10, runtime=10.0),
                fleet_job("small", 2.0, lo=1, hi=2, runtime=10.0),
            ]
        )
        starts = {o.job_id: o.start_time for o in report.outcomes}
        assert starts["big"] == 100.0
        assert starts["small"] >= starts["big"]

    def test_reallocation_conserves_budget(self):
        scheduler = FleetScheduler(
            capacity=100, reallocate_running=True
        )
        jobs = [
            fleet_job(f"j{i}", float(5 * i), lo=5, hi=80)
            for i in range(8)
        ]
        report = scheduler.run(jobs)
        assert report.reallocations > 0
        assert report.peak_committed_tokens <= 100
        assert 0.0 < report.utilization <= 1.0

    def test_reallocation_never_slows_the_cluster(self):
        jobs = [
            fleet_job(f"j{i}", float(3 * i), lo=4, hi=90)
            for i in range(10)
        ]
        static = FleetScheduler(capacity=120).run(jobs)
        adaptive = FleetScheduler(
            capacity=120, reallocate_running=True
        ).run(jobs)
        assert adaptive.makespan <= static.makespan + 1e-9

    def test_runtime_fn_drives_durations(self):
        scheduler = FleetScheduler(capacity=50)
        report = scheduler.run([fleet_job("a", 0.0, runtime=42.0)])
        outcome = report.outcomes[0]
        assert outcome.finish_time - outcome.start_time == 42.0

    def test_report_carries_fleet_metadata(self):
        report = FleetScheduler(capacity=50).run([fleet_job("a", 0.0)])
        assert isinstance(report, FleetReport)
        assert isinstance(report, QueueReport)
        assert report.peak_committed_tokens == 50
        assert report.admission == "fcfs"


class TestTokenSecondsAccounting:
    def test_outcome_defaults_to_full_run_holding(self):
        outcome = QueueOutcome(
            job_id="a",
            arrival_time=0.0,
            start_time=2.0,
            finish_time=12.0,
            tokens=5,
        )
        assert outcome.token_seconds == 50.0

    def test_outcome_accepts_integrated_holdings(self):
        outcome = QueueOutcome(
            job_id="a",
            arrival_time=0.0,
            start_time=0.0,
            finish_time=10.0,
            tokens=8,
            token_seconds=35.0,
        )
        assert outcome.token_seconds == 35.0

    def test_report_totals_and_utilization(self):
        report = QueueReport(
            outcomes=(
                QueueOutcome("a", 0.0, 0.0, 10.0, tokens=5),
                QueueOutcome("b", 0.0, 0.0, 10.0, tokens=5),
            ),
            capacity=20,
        )
        assert report.total_token_seconds == 100.0
        assert report.utilization == pytest.approx(0.5)

    def test_scheduler_utilization_stays_physical_under_topups(self):
        # Re-allocation raises grants mid-run; the integrated holdings
        # must never exceed what the pool could physically supply.
        scheduler = FleetScheduler(
            capacity=60, reallocate_running=True
        )
        jobs = [
            fleet_job(f"j{i}", float(2 * i), lo=3, hi=60)
            for i in range(6)
        ]
        report = scheduler.run(jobs)
        assert report.total_token_seconds <= (
            report.capacity * report.makespan
        ) * (1 + 1e-9)


def recommendation(job_id, requested, optimal, a=-0.8, b=500.0):
    pcc = PowerLawPCC(a=a, b=b)
    return TokenRecommendation(
        job_id=job_id,
        pcc=pcc,
        requested_tokens=requested,
        optimal_tokens=optimal,
        predicted_runtime_at_requested=float(pcc.runtime(requested)),
        predicted_runtime_at_optimal=float(pcc.runtime(optimal)),
    )


class FlakyScorer:
    """Answers ``None`` for marked plans, as for an increasing PCC."""

    def __init__(self, bad_ids):
        self.bad_ids = set(bad_ids)
        self.calls = 0

    def score_batch(self, plans, requested_tokens, features=None):
        self.calls += 1
        return [
            None
            if plan.job_id in self.bad_ids
            else recommendation(plan.job_id, int(tokens), 10)
            for plan, tokens in zip(plans, requested_tokens)
        ]


class TestEvaluation:
    @pytest.fixture(scope="class")
    def records(self, repository):
        return [
            r
            for r in repository.records()
            if 2 <= r.requested_tokens <= 600
        ][:24]

    @pytest.fixture(scope="class")
    def recommendations(self, records):
        return [
            recommendation(
                r.job_id,
                r.requested_tokens,
                max(1, r.requested_tokens // 2),
                a=-0.7,
                b=float(
                    r.runtime / r.requested_tokens ** (-0.7)
                ),
            )
            for r in records
        ]

    def test_score_usable_drops_unscorable_records(self, records):
        bad = {records[1].job_id, records[3].job_id}
        scorer = FlakyScorer(bad)
        kept, recs = score_usable(scorer, records)
        assert scorer.calls == 1
        assert len(kept) == len(records) - 2
        assert [r.job_id for r in kept] == [r.job_id for r in recs]
        assert not bad.intersection(r.job_id for r in kept)

    def test_build_demands_floors_and_ceilings(
        self, records, recommendations
    ):
        demands = build_demands(records, recommendations)
        for record, rec, d in zip(records, recommendations, demands):
            floor = tokens_for_slowdown(rec.pcc, record.requested_tokens, 0.25)
            assert d.min_tokens == max(
                1, min(floor, record.requested_tokens)
            )
            assert d.max_tokens == record.requested_tokens

    def test_compare_policies_covers_all_regimes(
        self, records, recommendations
    ):
        comparison = compare_policies(records, recommendations, seed=11)
        names = [o.name for o in comparison.outcomes]
        assert names == [*BASELINE_NAMES, "fleet/water_filling"]
        for outcome in comparison.outcomes:
            assert outcome.makespan > 0
            assert 0.0 < outcome.utilization <= 1.0
        payload = comparison.to_json()
        assert payload["jobs"] == len(records)
        assert sorted(payload["policies"]) == sorted(names)
        assert "makespan" in comparison.render()

    def test_comparison_get_unknown_name(
        self, records, recommendations
    ):
        comparison = compare_policies(records, recommendations)
        with pytest.raises(FleetError):
            comparison.get("nonexistent")


class TestFleetStream:
    def job(self, job_id, arrival, lo, hi, a=-0.5, b=100.0):
        return FleetJob(
            job_id=job_id,
            arrival_time=arrival,
            demand=JobDemand(
                job_id=job_id,
                pcc=PowerLawPCC(a=a, b=b),
                min_tokens=lo,
                max_tokens=hi,
            ),
        )

    def test_stream_matches_batch_run(self):
        jobs = [
            self.job(f"j{i}", float(i * 3), 10 + i, 40 + i)
            for i in range(12)
        ]
        scheduler = FleetScheduler(120, reallocate_running=True)
        batch = scheduler.run(jobs)
        stream = scheduler.stream()
        for job in jobs:
            stream.advance(job.arrival_time)
            stream.submit(job)
        stream.drain()
        incremental = stream.report()
        assert incremental.outcomes == batch.outcomes
        assert (
            incremental.peak_committed_tokens
            == batch.peak_committed_tokens
        )
        assert incremental.reallocations == batch.reallocations

    def test_advance_returns_new_completions_in_finish_order(self):
        stream = FleetScheduler(100).stream()
        stream.submit(self.job("a", 0.0, 50, 50))
        stream.submit(self.job("b", 0.0, 50, 50))
        assert stream.advance(0.0) == []
        assert stream.in_flight == 2
        done = stream.advance(1e9)
        assert [o.job_id for o in done] == ["a", "b"]
        # Already-delivered outcomes are not replayed.
        assert stream.advance(2e9) == []

    def test_submissions_must_be_time_ordered(self):
        stream = FleetScheduler(100).stream()
        stream.submit(self.job("late", 10.0, 5, 5))
        with pytest.raises(ExecutionError, match="time order"):
            stream.submit(self.job("early", 5.0, 5, 5))

    def test_oversized_floor_rejected_at_submit(self):
        stream = FleetScheduler(10).stream()
        with pytest.raises(ExecutionError, match="only has 10"):
            stream.submit(self.job("big", 0.0, 11, 20))

    def test_drain_runs_the_tail_out(self):
        stream = FleetScheduler(10).stream()
        stream.submit(self.job("ok", 0.0, 10, 10))
        stream.submit(self.job("next", 1.0, 10, 10))
        assert len(stream.drain()) == 2
        assert stream.committed_tokens == 0

    def test_report_requires_completions(self):
        stream = FleetScheduler(10).stream()
        with pytest.raises(ExecutionError, match="no jobs"):
            stream.report()


class TestBackfillAdmission:
    """EASY backfill: small jobs slip past a blocked head-of-line job
    without ever delaying the head's earliest possible start."""

    def scenario(self):
        slow = PowerLawPCC(a=-0.5, b=100.0)
        fast = PowerLawPCC(a=-0.5, b=4.0)
        jobs = [
            # Fills 80 of the 100-token pool for ~11.2s.
            FleetJob("big", 0.0, JobDemand("big", slow, 80, 80)),
            # Blocked head: needs the whole pool.
            FleetJob("head", 1.0, JobDemand("head", slow, 100, 100)),
        ] + [
            # Short jobs that fit the 20 spare tokens right now.
            FleetJob(f"s{i}", 2.0, JobDemand(f"s{i}", fast, 5, 5))
            for i in range(4)
        ]
        return jobs

    def test_backfill_improves_mean_wait(self):
        jobs = self.scenario()
        fcfs = FleetScheduler(100, admission="fcfs").run(jobs)
        easy = FleetScheduler(100, admission="backfill").run(jobs)
        assert easy.mean_wait < fcfs.mean_wait
        assert easy.backfills == 4
        assert fcfs.backfills == 0
        assert easy.admission == "backfill"

    def test_head_start_is_not_delayed(self):
        jobs = self.scenario()
        start = {
            report_kind: {
                o.job_id: o.start_time
                for o in FleetScheduler(
                    100, admission=report_kind
                ).run(jobs).outcomes
            }
            for report_kind in ("fcfs", "backfill")
        }
        assert (
            start["backfill"]["head"] == start["fcfs"]["head"]
        )

    def test_long_candidates_are_not_backfilled(self):
        # Candidates whose own predicted run time crosses the shadow
        # time and exceed the head's spare tokens must keep waiting.
        slow = PowerLawPCC(a=-0.5, b=100.0)
        jobs = [
            FleetJob("big", 0.0, JobDemand("big", slow, 80, 80)),
            FleetJob("head", 1.0, JobDemand("head", slow, 100, 100)),
            FleetJob("laggard", 2.0, JobDemand("laggard", slow, 5, 5)),
        ]
        report = FleetScheduler(100, admission="backfill").run(jobs)
        assert report.backfills == 0

    def test_spare_tokens_admit_past_shadow_candidates(self):
        # Head leaves spare capacity at its shadow time; a long-running
        # small job may occupy exactly that spare without delaying it.
        slow = PowerLawPCC(a=-0.5, b=100.0)
        jobs = [
            FleetJob("big", 0.0, JobDemand("big", slow, 80, 80)),
            FleetJob("head", 1.0, JobDemand("head", slow, 90, 90)),
            FleetJob("laggard", 2.0, JobDemand("laggard", slow, 5, 5)),
        ]
        report = FleetScheduler(100, admission="backfill").run(jobs)
        assert report.backfills == 1
        start = {o.job_id: o.start_time for o in report.outcomes}
        assert start["laggard"] == 2.0

    def test_unknown_admission_order(self):
        with pytest.raises(FleetError, match="admission order"):
            FleetScheduler(100, admission="sjf")
