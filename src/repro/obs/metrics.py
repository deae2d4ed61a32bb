"""Unified process-wide metrics: counters, gauges, labeled histograms.

The simulator, the training pipeline, and the serving layer all record
into this one metric vocabulary. A deliberately small, dependency-free
stand-in for a Prometheus client:

* :class:`Counter` — monotone, thread-safe;
* :class:`LatencyHistogram` — fixed log-spaced buckets, so recording is
  O(log buckets) with constant memory regardless of traffic volume, and
  quantiles (p50/p95/p99) are estimated by interpolating within the
  bucket that brackets the target rank — the same trade-off a production
  histogram makes;
* callback gauges — evaluated lazily at snapshot time;
* **labels** — ``registry.counter("responses", status="ok")`` creates
  one child per label set, rendered Prometheus-style as
  ``responses{status=ok}`` in snapshots.

Quantile convention: the nearest-rank (inverted-CDF) definition — the
q-quantile of n observations is the value of rank ``ceil(q * n)``. The
rank is computed with a small tolerance because ``q * n`` in floating
point can land just above an integer (``0.3 * 10 == 3.0000000000000004``),
which previously pushed boundary quantiles one observation — and
potentially one whole bucket — too high. ``tests/test_obs_metrics.py``
property-checks the estimate against exact nearest-rank quantiles.

One process-wide :class:`MetricsRegistry` is exposed via
:func:`get_registry`; components may still construct private registries
(each :class:`~repro.serving.server.AllocationServer` does, so its
gauges and lifetime rates stay per-instance) and share them explicitly.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections.abc import Callable, Iterable

from repro.exceptions import ObservabilityError

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "state_delta",
]


class Counter:
    """A monotonically increasing, thread-safe counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError("counters only move forward")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


def _default_bounds() -> list[float]:
    """Log-spaced bucket upper bounds from 10 microseconds to ~100 s."""
    bounds = []
    edge = 1e-5
    while edge <= 100.0:
        bounds.append(edge)
        edge *= 1.25
    return bounds


class LatencyHistogram:
    """Streaming histogram with interpolated quantile estimates.

    Values are clamped into ``[bounds[0], +inf)``; anything beyond the
    last bound lands in an overflow bucket whose quantile estimate is
    the observed maximum. Bucket ``i`` covers ``(bounds[i-1], bounds[i]]``
    (lower-exclusive, upper-inclusive), matching ``bisect_left``.
    """

    def __init__(self, name: str, bounds: Iterable[float] | None = None) -> None:
        self.name = name
        self._bounds = sorted(bounds) if bounds is not None else _default_bounds()
        if not self._bounds:
            raise ObservabilityError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self._bounds) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        if value < 0 or not math.isfinite(value):
            raise ObservabilityError(
                "latency observations must be finite and >= 0"
            )
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float | None:
        with self._lock:
            return self._sum / self._count if self._count else None

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (``0 < q <= 1``), None when empty.

        Uses the nearest-rank definition: the target is the observation
        of rank ``ceil(q * count)`` (with a tolerance against float
        fuzz), located in its bucket and linearly interpolated inside
        it. The estimate therefore always falls within the bucket that
        contains the exact nearest-rank quantile.
        """
        if not 0.0 < q <= 1.0:
            raise ObservabilityError("quantile must be in (0, 1]")
        with self._lock:
            if not self._count:
                return None
            # Nearest rank with tolerance: 0.3 * 10 must select rank 3,
            # not 4, even though it evaluates to 3.0000000000000004.
            rank = min(self._count, max(1, math.ceil(q * self._count - 1e-9)))
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if not bucket_count:
                    continue
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= rank:
                    if index >= len(self._bounds):
                        return self._max
                    upper = self._bounds[index]
                    lower = self._bounds[index - 1] if index else 0.0
                    fraction = (rank - previous) / bucket_count
                    estimate = lower + fraction * (upper - lower)
                    return min(max(estimate, self._min), self._max)
            return self._max  # pragma: no cover - rank <= count always hits

    def state(self) -> dict:
        """Raw, mergeable histogram state (bounds + bucket counts).

        Unlike :meth:`snapshot` (which reduces to quantile estimates),
        this is lossless up to the bucket resolution: merging two states
        recorded separately equals recording every observation into one
        histogram. Used to ship worker-process histograms back to the
        parent (``repro.parallel``).
        """
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one."""
        if list(state["bounds"]) != self._bounds:
            raise ObservabilityError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        with self._lock:
            for i, bucket_count in enumerate(state["counts"]):
                self._counts[i] += bucket_count
            self._count += state["count"]
            self._sum += state["sum"]
            self._min = min(self._min, state["min"])
            self._max = max(self._max, state["max"])

    def snapshot(self) -> dict[str, float | int | None]:
        p50, p95, p99 = (self.quantile(q) for q in (0.50, 0.95, 0.99))
        with self._lock:
            count, total = self._count, self._sum
            minimum = self._min if count else None
            maximum = self._max if count else None
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else None,
            "min": minimum,
            "max": maximum,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


def _labeled_name(name: str, labels: dict[str, object]) -> str:
    """Prometheus-flavoured rendering: ``name{key=value,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named counters, histograms, and callback gauges behind one lock.

    ``counter``/``histogram`` create on first use so call sites don't
    need a central declaration list, and accept optional labels that
    address one child per label set (``counter("responses",
    status="ok")``); ``register_gauge`` takes a callable evaluated
    lazily at snapshot time (used e.g. to surface queue depth,
    circuit-breaker state, and the :class:`PredictionMonitor`'s rolling
    error without polling threads).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._gauges: dict[str, Callable[[], float | int | bool | None]] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels) -> Counter:
        key = _labeled_name(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(key)
            return self._counters[key]

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None, **labels
    ) -> LatencyHistogram:
        key = _labeled_name(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = LatencyHistogram(key, bounds)
            return self._histograms[key]

    def register_gauge(
        self, name: str, read: Callable[[], float | int | bool | None], **labels
    ) -> None:
        with self._lock:
            self._gauges[_labeled_name(name, labels)] = read

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """A structured, point-in-time view of every metric."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "counters": {name: c.value for name, c in counters.items()},
            "histograms": {name: h.snapshot() for name, h in histograms.items()},
            "gauges": {name: read() for name, read in gauges.items()},
        }

    def dump_state(self) -> dict[str, dict]:
        """Transferable registry state: counter values + histogram states.

        Gauges are lazily evaluated callables bound to process-local
        objects, so they are deliberately excluded — a worker's gauges
        are meaningless in the parent. Pair with :meth:`merge_state`.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in counters.items()},
            "histograms": {name: h.state() for name, h in histograms.items()},
        }

    def merge_state(self, state: dict[str, dict]) -> None:
        """Fold a :meth:`dump_state` payload (e.g. from a worker) in.

        Counter values add; histograms merge bucket-by-bucket (created
        here with the worker's bounds if absent). Keys arrive already
        label-rendered (``name{k=v}``), so they address the same child
        metrics they came from.
        """
        for name, value in state.get("counters", {}).items():
            if value:
                self.counter(name).increment(value)
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name, bounds=hist_state["bounds"]).merge_state(
                hist_state
            )

    def reset(self) -> None:
        """Drop every registered metric (mainly for tests / CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()


def state_delta(current: dict[str, dict], previous: dict[str, dict]) -> dict:
    """What changed between two :meth:`MetricsRegistry.dump_state` calls.

    Registries are cumulative, so the activity of one window (e.g. one
    benchmark probe) is the difference of the states taken at its ends.
    The result is itself a valid ``merge_state`` payload: merged onto a
    registry holding ``previous`` it reproduces ``current`` (histogram
    sums up to float rounding). Metrics absent from ``previous`` ship
    whole; unchanged metrics are omitted.

    Histogram ``min``/``max`` are lifetime extrema (per-window extrema
    are not recoverable from two cumulative states) — safe under
    repeated merging because min/max folding is idempotent.
    """
    counters: dict[str, int] = {}
    previous_counters = previous.get("counters", {})
    for name, value in current.get("counters", {}).items():
        delta = value - previous_counters.get(name, 0)
        if delta:
            counters[name] = delta
    histograms: dict[str, dict] = {}
    previous_histograms = previous.get("histograms", {})
    for name, state in current.get("histograms", {}).items():
        before = previous_histograms.get(name)
        if before is None:
            if state["count"]:
                histograms[name] = state
            continue
        if list(before["bounds"]) != list(state["bounds"]):
            raise ObservabilityError(
                f"cannot diff histogram {name!r}: bucket bounds differ"
            )
        count = state["count"] - before["count"]
        if not count:
            continue
        histograms[name] = {
            "bounds": list(state["bounds"]),
            "counts": [
                now - then
                for now, then in zip(state["counts"], before["counts"])
            ],
            "count": count,
            "sum": state["sum"] - before["sum"],
            "min": state["min"],
            "max": state["max"],
        }
    return {"counters": counters, "histograms": histograms}


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry shared by all instrumented modules."""
    return _global_registry


def reset_registry() -> None:
    """Clear the process-wide registry (between traced CLI runs/tests)."""
    _global_registry.reset()
