"""Thread-safe LRU caches for the serving hot path.

Two cache roles sit in front of the scoring pipeline:

* :class:`RecommendationCache` — full token recommendations, keyed on
  the plan's *structural signature* plus the requested token count.
  Recurring instances of a SCOPE pipeline share a signature by
  construction (`repro.scope.signatures`), so the daily re-submission of
  a recurring job is answered without touching the model — exactly the
  production observation (AutoToken, §6.2) that recurring jobs dominate
  traffic and barely drift.
* :class:`FeatureCache` — per-plan :class:`~repro.tasq.pipeline.PlanFeatures`,
  keyed on the exact job identity. Featurization is the expensive
  CPU-bound step of scoring; retries and duplicate submissions of the
  *same* instance skip it entirely.

Both are thin domain wrappers over one :class:`LRUCache` with hit/miss
accounting that the server exports through its metrics registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from repro.exceptions import ServingError
from repro.scope.plan import QueryPlan
from repro.tasq.pipeline import PlanFeatures, TokenRecommendation, featurize

__all__ = ["LRUCache", "RecommendationCache", "FeatureCache"]

_MISSING = object()


class LRUCache:
    """A bounded, thread-safe least-recently-used map.

    ``get`` refreshes recency; ``put`` evicts the stalest entry once
    ``capacity`` is exceeded. Hits and misses are counted so serving
    metrics can report hit rates without wrapping every call site.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServingError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not refresh recency or count a hit."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[Hashable]:
        """Keys from least- to most-recently used (for tests/debugging)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    @property
    def hit_rate(self) -> float | None:
        """Hits / lookups, or None before any lookup."""
        with self._lock:
            lookups = self._hits + self._misses
            return self._hits / lookups if lookups else None

    def stats(self) -> dict[str, float | int | None]:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self._hits / lookups if lookups else None,
            }


class RecommendationCache:
    """Token recommendations keyed on (plan signature, requested tokens)."""

    def __init__(self, capacity: int = 1024) -> None:
        self._cache = LRUCache(capacity)

    @staticmethod
    def key(signature: str, requested_tokens: int) -> tuple[str, int]:
        return (signature, int(requested_tokens))

    def get(
        self, signature: str, requested_tokens: int
    ) -> TokenRecommendation | None:
        return self._cache.get(self.key(signature, requested_tokens))

    def put(
        self,
        signature: str,
        requested_tokens: int,
        recommendation: TokenRecommendation,
    ) -> None:
        self._cache.put(self.key(signature, requested_tokens), recommendation)

    def stats(self) -> dict[str, float | int | None]:
        return self._cache.stats()

    @property
    def hit_rate(self) -> float | None:
        return self._cache.hit_rate

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()


class FeatureCache:
    """Memoized :func:`repro.tasq.pipeline.featurize`, keyed per instance.

    Keys include the job id, not just the signature: two instances of a
    recurring template share structure but *not* compile-time estimates
    (input sizes drift day to day), so features must never be shared
    across instances.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._cache = LRUCache(capacity)

    @staticmethod
    def key(plan: QueryPlan, signature: str) -> tuple[str, str]:
        return (plan.job_id, signature)

    def features_for(self, plan: QueryPlan, signature: str) -> PlanFeatures:
        """Cached features for ``plan``, computing and storing on miss.

        ``signature`` is ``plan_signature(plan)``, which the caller has
        already computed (the server hashes each plan once, at submit).
        """
        key = self.key(plan, signature)
        features = self._cache.get(key)
        if features is None:
            features = featurize(plan)
            self._cache.put(key, features)
        return features

    def stats(self) -> dict[str, float | int | None]:
        return self._cache.stats()

    @property
    def hit_rate(self) -> float | None:
        return self._cache.hit_rate

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
