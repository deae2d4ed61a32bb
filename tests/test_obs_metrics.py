"""Tests for the unified metrics registry, including quantile exactness.

The histogram satellite of the observability PR: p50/p95/p99 estimates
interpolate inside log-spaced buckets, so the property checked here is
*bucket-exactness* — the estimate must fall inside the bucket that
contains the exact nearest-rank quantile (and is clamped into
``[min, max]`` of the observed values). A float-fuzz off-by-one at
bucket boundaries (``0.3 * 10 == 3.0000000000000004`` selecting rank 4
instead of 3) is covered by an explicit regression test.
"""

import bisect
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ObservabilityError
from repro.obs.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    get_registry,
    state_delta,
)


def exact_nearest_rank(values: list[float], q: float) -> float:
    """The inverted-CDF q-quantile: value of rank ceil(q*n) (1-based)."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


def bucket_of(bounds: list[float], value: float) -> tuple[float, float]:
    """The (lower, upper) edges of the bucket holding ``value``."""
    index = bisect.bisect_left(bounds, value)
    if index >= len(bounds):
        return bounds[-1], math.inf
    lower = bounds[index - 1] if index else 0.0
    return lower, bounds[index]


class TestCounter:
    def test_thread_safety(self):
        counter = Counter("x")

        def spin():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert counter.value == 8000


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram("latency")
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p99"] is None

    def test_snapshot_fields(self):
        hist = LatencyHistogram("latency")
        hist.record(0.010)
        hist.record(0.030)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(0.040)
        assert snap["mean"] == pytest.approx(0.020)
        assert snap["min"] == pytest.approx(0.010)
        assert snap["max"] == pytest.approx(0.030)

    def test_rejects_bad_values(self):
        hist = LatencyHistogram("latency")
        with pytest.raises(ObservabilityError):
            hist.record(-1.0)
        with pytest.raises(ObservabilityError):
            hist.quantile(0.0)


class TestQuantileExactness:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=200.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=120,
        ),
        st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
    )
    def test_estimate_within_bucket_of_exact_quantile(self, values, q):
        hist = LatencyHistogram("h")
        for v in values:
            hist.record(v)
        estimate = hist.quantile(q)
        exact = exact_nearest_rank(values, q)
        lower, upper = bucket_of(hist._bounds, exact)
        # Clamping into [min, max] can only move the estimate *towards*
        # the data, never out of the exact quantile's bucket beyond the
        # observed extremes.
        assert min(lower, min(values)) <= estimate
        assert estimate <= min(upper, max(values)) or math.isinf(upper)
        assert min(values) <= estimate <= max(values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-5, max_value=99.0,
                      allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=60,
        )
    )
    def test_quantiles_monotone_in_q(self, values):
        hist = LatencyHistogram("h")
        for v in values:
            hist.record(v)
        qs = [0.1, 0.5, 0.9, 0.95, 0.99, 1.0]
        estimates = [hist.quantile(q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_float_fuzz_rank_boundary_regression(self):
        # 10 observations, one per visibly distinct bucket. q=0.3 must
        # select the 3rd smallest (nearest rank ceil(0.3*10)=3), but
        # 0.3*10 == 3.0000000000000004 in floating point — the naive
        # cumulative>=q*n rule skips to the 4th observation's bucket.
        values = [0.001 * (4**i) for i in range(10)]
        hist = LatencyHistogram("h", bounds=[v * 1.5 for v in values])
        for v in values:
            hist.record(v)
        estimate = hist.quantile(0.3)
        exact = exact_nearest_rank(values, 0.3)
        lower, upper = bucket_of(hist._bounds, exact)
        assert lower <= estimate <= upper

    def test_p99_against_exact_on_dense_data(self):
        values = [i / 1000.0 for i in range(1, 1001)]
        hist = LatencyHistogram("h")
        for v in values:
            hist.record(v)
        exact = exact_nearest_rank(values, 0.99)
        lower, upper = bucket_of(hist._bounds, exact)
        assert lower <= hist.quantile(0.99) <= upper

    def test_bucket_boundary_values_land_upper_inclusive(self):
        hist = LatencyHistogram("h", bounds=[1.0, 2.0, 4.0])
        for v in (1.0, 2.0, 4.0):
            hist.record(v)
        # Each value sits exactly on a bound: bucket i is (b[i-1], b[i]].
        assert hist.quantile(1.0) == 4.0
        assert 1.0 <= hist.quantile(0.34) <= 2.0

    def test_overflow_bucket_reports_max(self):
        hist = LatencyHistogram("h", bounds=[0.1, 1.0])
        hist.record(50.0)
        hist.record(80.0)
        assert hist.quantile(0.99) == 80.0


class TestLabels:
    def test_labeled_counters_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("responses", status="ok").increment(2)
        registry.counter("responses", status="error").increment()
        registry.counter("responses").increment(5)
        counters = registry.snapshot()["counters"]
        assert counters["responses{status=ok}"] == 2
        assert counters["responses{status=error}"] == 1
        assert counters["responses"] == 5

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", b=1, a=2).increment()
        registry.counter("c", a=2, b=1).increment()
        counters = registry.snapshot()["counters"]
        assert counters == {"c{a=2,b=1}": 2}

    def test_labeled_histograms_and_gauges(self):
        registry = MetricsRegistry()
        registry.histogram("lat_s", model="nn").record(0.5)
        registry.register_gauge("depth", lambda: 3, queue="main")
        snap = registry.snapshot()
        assert snap["histograms"]["lat_s{model=nn}"]["count"] == 1
        assert snap["gauges"]["depth{queue=main}"] == 3


class TestRegistry:
    def test_process_wide_registry_is_shared(self):
        assert get_registry() is get_registry()

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        registry.histogram("h_s").record(0.1)
        registry.register_gauge("g", lambda: 1)
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": {}, "histograms": {}, "gauges": {}}

    def test_validation_errors(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("c").increment(-1)
        with pytest.raises(ObservabilityError):
            registry.histogram("h").record(float("nan"))
        with pytest.raises(ObservabilityError):
            registry.histogram("h").quantile(1.5)
        with pytest.raises(ObservabilityError):
            LatencyHistogram("h", bounds=[])

    def test_gauge_evaluated_lazily(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.register_gauge("g", lambda: state["value"])
        assert registry.snapshot()["gauges"]["g"] == 1
        state["value"] = 2
        assert registry.snapshot()["gauges"]["g"] == 2


class TestStateDelta:
    """``state_delta`` turns two cumulative dumps into a mergeable window.

    Recorded values are powers of two so histogram sums are exact and
    states compare with ``==``.
    """

    def test_merging_delta_onto_previous_reproduces_current(self):
        registry = MetricsRegistry()
        registry.counter("requests").increment(3)
        registry.histogram("latency_s").record(0.5)
        previous = registry.dump_state()
        registry.counter("requests").increment(2)
        registry.counter("errors", kind="model").increment()
        registry.histogram("latency_s").record(0.25)
        registry.histogram("latency_s").record(4.0)
        registry.histogram("queue_s").record(0.125)
        current = registry.dump_state()

        replica = MetricsRegistry()
        replica.merge_state(previous)
        replica.merge_state(state_delta(current, previous))
        assert replica.dump_state() == current

    def test_unchanged_metrics_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("idle").increment(4)
        registry.counter("busy").increment()
        registry.histogram("idle_s").record(1.0)
        registry.histogram("busy_s").record(1.0)
        previous = registry.dump_state()
        assert state_delta(previous, previous) == {
            "counters": {},
            "histograms": {},
        }
        registry.counter("busy").increment(2)
        registry.histogram("busy_s").record(2.0)
        delta = state_delta(registry.dump_state(), previous)
        assert delta["counters"] == {"busy": 2}
        assert list(delta["histograms"]) == ["busy_s"]
        assert delta["histograms"]["busy_s"]["count"] == 1
        assert delta["histograms"]["busy_s"]["sum"] == 2.0

    def test_metric_absent_from_previous_ships_whole(self):
        registry = MetricsRegistry()
        previous = registry.dump_state()
        registry.counter("requests").increment(7)
        registry.histogram("latency_s").record(0.5)
        registry.histogram("latency_s").record(2.0)
        current = registry.dump_state()
        delta = state_delta(current, previous)
        assert delta["counters"] == {"requests": 7}
        assert delta["histograms"]["latency_s"] == (
            current["histograms"]["latency_s"]
        )

    def test_mismatched_histogram_bounds_raise(self):
        before = MetricsRegistry()
        before.histogram("h", bounds=[1.0, 2.0]).record(1.0)
        after = MetricsRegistry()
        after.histogram("h", bounds=[1.0, 4.0]).record(1.0)
        after.histogram("h").record(3.0)
        with pytest.raises(ObservabilityError, match="bounds differ"):
            state_delta(after.dump_state(), before.dump_state())


class TestNumpyCrossCheck:
    def test_matches_numpy_inverted_cdf_bucketwise(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(-4.0, 1.0, size=500)
        hist = LatencyHistogram("h")
        for v in values:
            hist.record(float(v))
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            lower, upper = bucket_of(hist._bounds, exact)
            assert lower <= hist.quantile(q) <= upper
