"""Tests for the closed-loop replay engine.

The expensive property — one seed, one report, bit for bit — is checked
on a deliberately small replay (tiny bootstrap, short window) so the
whole file stays CI-friendly. Pool-safety and job-conservation are
additionally property-tested at the FleetStream layer, where thousands
of synthetic streams are cheap.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReplayError
from repro.fleet import FleetJob, FleetScheduler, JobDemand
from repro.pcc.curve import PowerLawPCC
from repro.replay import (
    ArrivalSpec,
    ReplayConfig,
    ReplayEngine,
    TenantSpec,
    default_tenants,
    run_replay,
)
from repro.scope import execution

SMALL = dict(duration_s=150.0, bootstrap_jobs=15, seed=11)


@pytest.fixture(scope="module")
def small_report():
    return run_replay(ReplayConfig(**SMALL, policy="water_filling"))


class TestDeterminism:
    def test_same_seed_same_report(self, small_report):
        again = run_replay(ReplayConfig(**SMALL, policy="water_filling"))
        assert again.signature() == small_report.signature()
        assert again.to_json() == small_report.to_json()

    def test_workers_do_not_change_the_report(self, small_report):
        parallel = run_replay(
            ReplayConfig(**SMALL, policy="water_filling", workers=4)
        )
        assert parallel.signature() == small_report.signature()

    def test_different_seed_changes_the_report(self, small_report):
        other = run_replay(
            ReplayConfig(
                duration_s=150.0, bootstrap_jobs=15, seed=12,
                policy="water_filling",
            )
        )
        assert other.signature() != small_report.signature()

    def test_arrival_timeline_identical_across_workers(self):
        # Timestamps, tenant assignments, and generated plans — checked
        # below the bootstrap so the probe is fast.
        def timeline(workers):
            engine = ReplayEngine(
                ReplayConfig(**SMALL, workers=workers)
            )
            return [
                (e.time, e.tenant_index, e.job.job_id, e.exec_seed,
                 len(e.job.plan.nodes), e.job.requested_tokens)
                for e in engine._arrivals()
            ]
        assert timeline(1) == timeline(3)


class TestConservation:
    def test_arrived_equals_completed_plus_rejected(self, small_report):
        assert small_report.arrived > 0
        assert (
            small_report.arrived
            == small_report.completed + small_report.rejected
        )

    def test_per_tenant_conservation(self, small_report):
        for tenant in small_report.tenants:
            assert tenant.arrived == tenant.completed + tenant.rejected

    def test_every_response_counted(self, small_report):
        assert (
            sum(count for _, count in small_report.response_mix)
            == small_report.arrived
        )

    def test_pool_never_exceeded(self, small_report):
        assert (
            small_report.peak_committed_tokens <= small_report.capacity
        )

    def test_tight_capacity_rejects_but_conserves(self):
        report = run_replay(
            ReplayConfig(**SMALL, policy="default", capacity=40)
        )
        assert report.rejected > 0
        assert report.arrived == report.completed + report.rejected
        assert report.peak_committed_tokens <= 40


class TestPolicies:
    @pytest.mark.parametrize("policy", ["default", "peak", "tasq"])
    def test_baselines_run(self, policy):
        report = run_replay(ReplayConfig(**SMALL, policy=policy))
        assert report.completed > 0
        assert report.policy == policy
        # Baselines are fixed-grant: the allocator never tops them up.
        assert report.reallocations == 0

    def test_unknown_policy(self):
        with pytest.raises(ReplayError, match="unknown replay policy"):
            ReplayConfig(policy="lottery")

    def test_backfill_admission_is_reported(self):
        report = run_replay(
            ReplayConfig(
                **SMALL, policy="water_filling", admission="backfill"
            )
        )
        assert report.admission == "backfill"


class TestClosedLoop:
    def test_drift_is_tracked_per_completion(self, small_report):
        assert len(small_report.drift_timeline) > 0
        observed = [
            d for d in small_report.drift_timeline if d is not None
        ]
        assert all(d >= 0 for d in observed)

    def test_retraining_fires_and_stays_deterministic(self):
        config = ReplayConfig(
            duration_s=400.0,
            bootstrap_jobs=15,
            seed=11,
            policy="water_filling",
            retrain=True,
            drift_window=10,
            drift_min_observations=5,
            drift_patience=2,
        )
        first = run_replay(config)
        assert first.retrain_events > 0
        assert run_replay(config).signature() == first.signature()

    def test_default_replay_records_no_telemetry(self, monkeypatch):
        """Without retraining nothing reads a replayed job's skyline, so
        none is kept and none is integrated: the only integrations are
        the bootstrap history's, one per job."""
        kept: list[dict] = []
        admit = ReplayEngine._admit

        def spy(self, event, response, capacity, executions):
            kept.append(executions)
            return admit(self, event, response, capacity, executions)

        integrated = []
        integrate = execution._intervals_to_skyline

        def counting(*args):
            integrated.append(1)
            return integrate(*args)

        monkeypatch.setattr(ReplayEngine, "_admit", spy)
        monkeypatch.setattr(execution, "_intervals_to_skyline", counting)
        report = run_replay(ReplayConfig(**SMALL, policy="water_filling"))
        assert report.completed > 0
        assert kept and all(not executions for executions in kept)
        assert len(integrated) == SMALL["bootstrap_jobs"]

    @pytest.mark.parametrize(
        "policy, expected",
        [
            ("water_filling", "93689a8b2840f0cd361f5fba6d932870"
                              "8d136a4d61019cc9e421f5983826d63f"),
            ("peak", "5f4288b835cb8ecc5d8aae8fe6a5c548"
                     "8f671f531f3c5b0b7b02e380891eaf1d"),
        ],
    )
    def test_bursty_retraining_replay_matches_pinned_signature(
        self, policy, expected
    ):
        """Retraining reads the replayed skylines: pinned from a build
        that integrated and kept every execution's skyline, and whose
        cached answers are scoped to the model version that computed
        them."""
        report = run_replay(
            ReplayConfig(
                duration_s=250.0,
                bootstrap_jobs=12,
                seed=5,
                policy=policy,
                retrain=True,
                drift_window=10,
                drift_min_observations=5,
                drift_patience=2,
            ),
            default_tenants(3, ArrivalSpec(kind="bursty")),
        )
        assert report.retrain_events > 0
        assert report.signature() == expected

    def test_tenant_slo_attainment_in_unit_range(self, small_report):
        for tenant in small_report.tenants:
            assert 0.0 <= tenant.slo_attainment <= 1.0


class TestEngineValidation:
    def test_duplicate_tenant_names(self):
        tenants = (
            TenantSpec(name="a"),
            TenantSpec(name="a", family="streaming"),
        )
        with pytest.raises(ReplayError, match="unique"):
            ReplayEngine(ReplayConfig(), tenants)

    def test_no_arrivals_raises(self):
        tenants = (
            TenantSpec(
                name="quiet",
                arrival=ArrivalSpec(kind="trace", trace=(1e9,)),
            ),
        )
        engine = ReplayEngine(ReplayConfig(**SMALL), tenants)
        with pytest.raises(ReplayError, match="no arrivals"):
            engine._arrivals()

    def test_bootstrap_floor(self):
        with pytest.raises(ReplayError, match="at least 10"):
            ReplayConfig(bootstrap_jobs=3)

    def test_timeline_needs_a_bin(self):
        for bins in (0, -1):
            with pytest.raises(ReplayError, match="at least one bin"):
                ReplayConfig(timeline_bins=bins)


# ----------------------------------------------------------------------
# Stream-level replay properties (cheap enough for hypothesis).
# ----------------------------------------------------------------------
@st.composite
def job_stream(draw):
    capacity = draw(st.integers(min_value=10, max_value=200))
    n = draw(st.integers(min_value=1, max_value=25))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
        )
        lo = draw(st.integers(min_value=1, max_value=capacity))
        hi = draw(st.integers(min_value=lo, max_value=capacity))
        jobs.append(
            FleetJob(
                job_id=f"j{i:03d}",
                arrival_time=clock,
                demand=JobDemand(
                    job_id=f"j{i:03d}",
                    pcc=PowerLawPCC(
                        a=-draw(
                            st.floats(min_value=0.1, max_value=0.95)
                        ),
                        b=draw(
                            st.floats(min_value=10.0, max_value=2000.0)
                        ),
                    ),
                    min_tokens=lo,
                    max_tokens=hi,
                ),
            )
        )
    return capacity, jobs


class TestStreamProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=job_stream(), admission=st.sampled_from(["fcfs", "backfill"]))
    def test_replay_conserves_jobs_and_respects_cap(self, data, admission):
        capacity, jobs = data
        stream = FleetScheduler(
            capacity, admission=admission
        ).stream()
        submitted = 0
        completed = []
        for job in jobs:
            completed.extend(stream.advance(job.arrival_time))
            stream.submit(job)
            submitted += 1
        completed.extend(stream.drain())
        # Conservation: everything submitted eventually completes
        # (floors always fit the pool by construction, so no rejects).
        assert len(completed) == submitted
        assert sorted(o.job_id for o in completed) == sorted(
            j.job_id for j in jobs
        )
        report = stream.report()
        # Cap safety, and grants within each job's declared bounds.
        assert report.peak_committed_tokens <= capacity
        bounds = {j.job_id: j.demand for j in jobs}
        for outcome in report.outcomes:
            demand = bounds[outcome.job_id]
            assert (
                demand.min_tokens
                <= outcome.tokens
                <= demand.max_tokens
            )
            assert outcome.start_time >= outcome.arrival_time
            assert outcome.finish_time > outcome.start_time

    @settings(max_examples=40, deadline=None)
    @given(data=job_stream())
    def test_committed_tokens_bounded_at_every_event(self, data):
        capacity, jobs = data
        stream = FleetScheduler(capacity).stream()
        for job in jobs:
            stream.advance(job.arrival_time)
            stream.submit(job)
            assert 0 <= stream.committed_tokens <= capacity
        stream.drain()
        assert stream.committed_tokens == 0
        assert stream.in_flight == 0
