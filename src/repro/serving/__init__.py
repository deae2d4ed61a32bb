"""The allocation-serving layer: concurrent, cached, admission-controlled.

Models the production deployment path of Figure 4 — the always-on
endpoint that answers every incoming job's "how many tokens?" at
compile time — as an in-process system: a bounded queue and worker
pool with micro-batching (:mod:`~repro.serving.server`), signature-keyed
recommendation/feature caches (:mod:`~repro.serving.cache`), a circuit
breaker (:mod:`~repro.serving.admission`) and a degraded-mode fallback
(:mod:`~repro.serving.fallback`). Metrics go to a
:class:`repro.obs.metrics.MetricsRegistry`.
"""

from repro.serving.admission import BreakerState, CircuitBreaker
from repro.serving.cache import FeatureCache, LRUCache, RecommendationCache
from repro.serving.fallback import (
    HistoricalMedianFallback,
    degraded_recommendation,
)
from repro.serving.server import (
    AllocationServer,
    ResponseStatus,
    ServeFuture,
    ServeResponse,
    ServerConfig,
)

# The end-to-end benchmark harness (benchmarks/e2e/harness/workloads.py)
# builds the endpoint under this name, and that harness only changes
# together with its committed baseline.
build_server = AllocationServer

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "LRUCache",
    "RecommendationCache",
    "FeatureCache",
    "HistoricalMedianFallback",
    "degraded_recommendation",
    "ServerConfig",
    "ResponseStatus",
    "ServeResponse",
    "ServeFuture",
    "AllocationServer",
    "build_server",
]
