"""Unit tests for the serving LRU caches."""

import threading

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.scope.signatures import plan_signature
from repro.serving import FeatureCache, LRUCache, RecommendationCache
from repro.serving.fallback import degraded_recommendation
from repro.tasq import featurize


class TestLRUCache:
    def test_basic_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("ghost") is None
        assert cache.get("ghost", default=-1) == -1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # refresh: "b" is now least recently used
        cache.put("d", 4)
        assert "b" not in cache
        assert cache.keys() == ["c", "a", "d"]
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_hit_miss_accounting(self):
        cache = LRUCache(2)
        assert cache.hit_rate is None
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["capacity"] == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ServingError):
            LRUCache(0)

    def test_concurrent_access(self):
        cache = LRUCache(64)

        def spin(offset):
            for i in range(500):
                cache.put((offset, i % 100), i)
                cache.get((offset, (i * 7) % 100))

        threads = [threading.Thread(target=spin, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 64


class TestRecommendationCache:
    def test_keyed_on_signature_and_tokens(self, workload_jobs):
        job = workload_jobs[0]
        signature = plan_signature(job.plan)
        rec = degraded_recommendation(job.plan, 100, 50)
        cache = RecommendationCache(8)
        cache.put(signature, 100, rec)
        assert cache.get(signature, 100) is rec
        assert cache.get(signature, 200) is None  # different request size
        assert cache.get("other-signature", 100) is None

    def test_shared_across_recurring_instances(self, workload_jobs):
        by_signature = {}
        pair = None
        for job in workload_jobs:
            signature = plan_signature(job.plan)
            if signature in by_signature:
                pair = (by_signature[signature], job)
                break
            by_signature[signature] = job
        assert pair is not None, "workload should contain recurring instances"
        first, second = pair
        cache = RecommendationCache(8)
        rec = degraded_recommendation(first.plan, 64, 32)
        cache.put(plan_signature(first.plan), 64, rec)
        # the recurring twin hits the same entry despite a different job id
        assert cache.get(plan_signature(second.plan), 64) is rec


class TestFeatureCache:
    def test_matches_direct_featurization(self, workload_jobs):
        plan = workload_jobs[0].plan
        cache = FeatureCache(8)
        cached = cache.features_for(plan, plan_signature(plan))
        direct = featurize(plan)
        np.testing.assert_allclose(cached.job_vector, direct.job_vector)
        np.testing.assert_allclose(
            cached.graph.node_features, direct.graph.node_features
        )
        np.testing.assert_allclose(cached.graph.adjacency, direct.graph.adjacency)

    def test_second_lookup_hits(self, workload_jobs):
        plan = workload_jobs[0].plan
        cache = FeatureCache(8)
        first = cache.features_for(plan, plan_signature(plan))
        second = cache.features_for(plan, plan_signature(plan))
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_instances_are_not_shared(self, workload_jobs):
        """Recurring twins share a signature but must not share features."""
        by_signature = {}
        pair = None
        for job in workload_jobs:
            signature = plan_signature(job.plan)
            if signature in by_signature:
                pair = (by_signature[signature], job)
                break
            by_signature[signature] = job
        assert pair is not None
        cache = FeatureCache(8)
        cache.features_for(pair[0].plan, plan_signature(pair[0].plan))
        cache.features_for(pair[1].plan, plan_signature(pair[1].plan))
        assert len(cache) == 2
