"""Property-based tests: cluster queue and GBM invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetJob, FleetScheduler
from repro.ml.gbm import BoosterParams, GradientBoostingRegressor

job_streams = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100),  # arrival
        st.integers(min_value=1, max_value=20),  # tokens
        st.floats(min_value=0.5, max_value=30),  # runtime
    ),
    min_size=1,
    max_size=25,
)


def _make_jobs(raw):
    return [
        FleetJob.fixed(job_id=f"j{i}", arrival_time=a, tokens=t, runtime=r)
        for i, (a, t, r) in enumerate(raw)
    ]


class TestQueueProperties:
    @given(job_streams)
    @settings(max_examples=60)
    def test_fcfs_invariants(self, raw):
        jobs = _make_jobs(raw)
        report = FleetScheduler(capacity=20).run(jobs)
        outcomes = {o.job_id: o for o in report.outcomes}
        for job, (_, _, runtime) in zip(jobs, raw):
            outcome = outcomes[job.job_id]
            # No job starts before arriving, and runs exactly its runtime.
            assert outcome.start_time >= job.arrival_time - 1e-9
            assert outcome.finish_time == outcome.start_time + runtime
            assert outcome.wait_time >= -1e-9

    @given(job_streams)
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, raw):
        jobs = _make_jobs(raw)
        capacity = 20
        report = FleetScheduler(capacity=capacity).run(jobs)
        outcomes = {o.job_id: o for o in report.outcomes}
        # Check concurrent token usage at every start instant.
        for probe in report.outcomes:
            t = probe.start_time
            used = sum(
                job.demand.min_tokens
                for job in jobs
                if outcomes[job.job_id].start_time <= t
                < outcomes[job.job_id].finish_time
            )
            assert used <= capacity

    @given(job_streams)
    @settings(max_examples=40)
    def test_more_capacity_never_hurts(self, raw):
        jobs = _make_jobs(raw)
        small = FleetScheduler(capacity=20).run(jobs)
        large = FleetScheduler(capacity=40).run(jobs)
        assert large.mean_wait <= small.mean_wait + 1e-9
        assert large.makespan <= small.makespan + 1e-9

    @given(job_streams)
    @settings(max_examples=40)
    def test_fcfs_order_preserved(self, raw):
        """Start times follow arrival order (no backfilling)."""
        jobs = _make_jobs(raw)
        report = FleetScheduler(capacity=20).run(jobs)
        ordered = sorted(
            report.outcomes, key=lambda o: (o.arrival_time, o.job_id)
        )
        starts = [o.start_time for o in ordered]
        assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))


class TestGBMProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_gamma_predictions_always_positive(self, seed, spread):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0, 10, size=(200, 3))
        targets = np.exp(rng.normal(2, spread, size=200)) + 0.1
        model = GradientBoostingRegressor(
            BoosterParams(n_estimators=15, max_depth=3), seed=seed
        )
        model.fit(features, targets)
        predictions = model.predict(features)
        assert np.all(predictions > 0)
        assert np.all(np.isfinite(predictions))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_constant_target_recovered(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0, 1, size=(100, 2))
        targets = np.full(100, 7.0)
        model = GradientBoostingRegressor(
            BoosterParams(n_estimators=20), seed=seed
        )
        model.fit(features, targets)
        assert np.allclose(model.predict(features), 7.0, atol=0.1)
