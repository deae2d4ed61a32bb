"""Tests for repro.replay arrival processes, tenants, and reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReplayError
from repro.replay import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    TenantSpec,
    arrival_times,
    default_tenants,
    load_trace,
    split_round_robin,
)
from repro.replay.report import downsample, utilization_timeline
from repro.scope.cluster import QueueOutcome


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArrivalSpec:
    def test_unknown_kind(self):
        with pytest.raises(ReplayError, match="unknown arrival kind"):
            ArrivalSpec(kind="weibull")

    def test_gap_must_be_positive(self):
        with pytest.raises(ReplayError, match="gap"):
            ArrivalSpec(mean_gap_s=0.0)

    def test_amplitude_bounds(self):
        with pytest.raises(ReplayError, match="amplitude"):
            ArrivalSpec(kind="diurnal", amplitude=1.0)

    def test_trace_needs_timestamps(self):
        with pytest.raises(ReplayError, match="timestamps"):
            ArrivalSpec(kind="trace")

    def test_trace_must_be_sorted(self):
        # A NaN or infinite timestamp used to be dropped silently, so
        # the replay saw fewer arrivals than the caller passed.
        inputs = ((3.0, 1.0), (0.0, 5.0, np.nan, 7.0), (0.0, 5.0, np.inf))
        for trace in inputs:
            with pytest.raises(ReplayError, match="finite.*sorted"):
                ArrivalSpec(kind="trace", trace=trace)


class TestArrivalTimes:
    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_deterministic_given_seed(self, kind):
        spec = ArrivalSpec(kind=kind, mean_gap_s=5.0)
        a = arrival_times(spec, 500.0, rng(42))
        b = arrival_times(spec, 500.0, rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_sorted_within_window(self, kind):
        spec = ArrivalSpec(kind=kind, mean_gap_s=3.0)
        times = arrival_times(spec, 300.0, rng(7))
        assert times.size > 0
        assert (times >= 0).all() and (times < 300.0).all()
        assert (np.diff(times) >= 0).all()

    def test_different_seeds_differ(self):
        spec = ArrivalSpec(mean_gap_s=5.0)
        a = arrival_times(spec, 500.0, rng(1))
        b = arrival_times(spec, 500.0, rng(2))
        assert a.size != b.size or not np.array_equal(a, b)

    def test_poisson_rate_roughly_respected(self):
        spec = ArrivalSpec(mean_gap_s=2.0)
        times = arrival_times(spec, 10_000.0, rng(0))
        assert times.size == pytest.approx(5000, rel=0.1)

    def test_bursty_is_burstier_than_poisson(self):
        # Dispersion of per-window counts: MMPP > Poisson.
        window = 50.0
        def dispersion(kind):
            spec = ArrivalSpec(kind=kind, mean_gap_s=5.0)
            times = arrival_times(spec, 20_000.0, rng(3))
            counts = np.bincount((times // window).astype(int))
            return counts.var() / counts.mean()
        assert dispersion("bursty") > 2 * dispersion("poisson")

    def test_trace_is_clipped_to_duration(self):
        spec = ArrivalSpec(kind="trace", trace=(1.0, 2.0, 99.0))
        times = arrival_times(spec, 10.0, rng(0))
        np.testing.assert_array_equal(times, [1.0, 2.0])

    def test_duration_must_be_positive(self):
        with pytest.raises(ReplayError, match="duration"):
            arrival_times(ArrivalSpec(), 0.0, rng(0))

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from([k for k in ARRIVAL_KINDS if k != "trace"]),
        gap=st.floats(min_value=0.5, max_value=60.0),
        duration=st.floats(min_value=10.0, max_value=2_000.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_sorted_and_bounded(self, kind, gap, duration, seed):
        spec = ArrivalSpec(kind=kind, mean_gap_s=gap)
        times = arrival_times(spec, duration, rng(seed))
        assert (times >= 0).all()
        assert (times < duration).all()
        assert (np.diff(times) >= 0).all()


class TestTraceFiles:
    def test_load_trace(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("5.0\n# comment\n1.5\n\n3 # inline\n")
        assert load_trace(path) == (1.5, 3.0, 5.0)

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1.0\nnope\n")
        with pytest.raises(ReplayError, match="not a timestamp"):
            load_trace(path)

    def test_load_trace_rejects_empty(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ReplayError, match="no timestamps"):
            load_trace(path)

    def test_split_round_robin(self):
        parts = split_round_robin((1.0, 2.0, 3.0, 4.0, 5.0), 2)
        assert parts == [(1.0, 3.0, 5.0), (2.0, 4.0)]

    def test_split_preserves_every_timestamp(self):
        times = tuple(float(t) for t in range(17))
        parts = split_round_robin(times, 5)
        assert sorted(t for p in parts for t in p) == list(times)


class TestTenants:
    def test_default_tenants_rotate_families(self):
        tenants = default_tenants(5)
        assert [t.family for t in tenants] == [
            "tpch", "streaming", "ml_training", "etl_skew", "tpch",
        ]
        assert len({t.name for t in tenants}) == 5

    def test_unknown_family(self):
        with pytest.raises(ReplayError, match="unknown workload family"):
            TenantSpec(name="t", family="graph")

    def test_unattainable_slo(self):
        with pytest.raises(ReplayError, match="unattainable"):
            TenantSpec(name="t", slo_slowdown=0.5)

    def test_need_at_least_one(self):
        with pytest.raises(ReplayError):
            default_tenants(0)


class TestReportHelpers:
    def outcome(self, job_id, start, finish, tokens):
        return QueueOutcome(
            job_id=job_id,
            arrival_time=start,
            start_time=start,
            finish_time=finish,
            tokens=tokens,
        )

    def test_utilization_timeline_full_pool(self):
        # One job holding the whole pool for the whole makespan.
        outs = [self.outcome("a", 0.0, 100.0, 10)]
        timeline = utilization_timeline(outs, capacity=10, bins=4)
        assert timeline == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_utilization_timeline_integrates_overlap(self):
        # One busy job plus an idle-pool tail: bins span [0, makespan].
        outs = [
            self.outcome("a", 0.0, 50.0, 10),
            self.outcome("b", 75.0, 100.0, 5),
        ]
        timeline = utilization_timeline(outs, capacity=10, bins=4)
        assert timeline == pytest.approx((1.0, 1.0, 0.0, 0.5))

    def test_downsample_keeps_endpoints(self):
        series = list(range(1000))
        thinned = downsample(series, points=10)
        assert len(thinned) <= 10
        assert thinned[0] == 0 and thinned[-1] == 999

    def test_downsample_short_series_untouched(self):
        assert downsample([1.0, None, 3.0]) == (1.0, None, 3.0)
