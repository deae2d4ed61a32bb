"""The allocation-serving layer: concurrent, cached, admission-controlled.

Models the production deployment path of Figure 4 — the always-on
endpoint that answers every incoming job's "how many tokens?" at
compile time — as an in-process system: a bounded queue and worker
pool with micro-batching (:mod:`~repro.serving.server`), signature-keyed
recommendation/feature caches (:mod:`~repro.serving.cache`), token-bucket
rate limiting plus a circuit breaker (:mod:`~repro.serving.admission`),
degraded-mode fallbacks (:mod:`~repro.serving.fallback`),
champion-challenger shadow scoring with a coverage-gated promotion rule
(:mod:`~repro.serving.shadow`), and a seeded load generator
(:mod:`~repro.serving.loadgen`). Metrics go to a
:class:`repro.obs.metrics.MetricsRegistry`.
"""

from repro.serving.admission import BreakerState, CircuitBreaker, TokenBucket
from repro.serving.cache import FeatureCache, LRUCache, RecommendationCache
from repro.serving.fallback import (
    FallbackPolicy,
    HistoricalMedianFallback,
    PassthroughFallback,
    degraded_recommendation,
)
from repro.serving.loadgen import LoadGenerator, LoadgenConfig, LoadReport
from repro.serving.shadow import PromotionGate, ShadowDecision, ShadowState
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
    "TokenBucket",
    "BreakerState",
    "CircuitBreaker",
    "LRUCache",
    "RecommendationCache",
    "FeatureCache",
    "FallbackPolicy",
    "PassthroughFallback",
    "HistoricalMedianFallback",
    "degraded_recommendation",
    "ServerConfig",
    "ResponseStatus",
    "ServeResponse",
    "ServeFuture",
    "AllocationServer",
    "build_server",
    "PromotionGate",
    "ShadowDecision",
    "ShadowState",
    "LoadgenConfig",
    "LoadReport",
    "LoadGenerator",
]
