"""repro.parallel: deterministic pmap, seed spawning, obs propagation."""

import multiprocessing
import os
import warnings
from functools import partial

import numpy as np
import pytest

from repro.models.dataset import build_dataset
from repro.obs import get_registry, reset_registry, trace
from repro.parallel import START_METHOD, pmap, resolve_workers, spawn_seeds
from repro.scope.generator import WorkloadGenerator
from repro.scope.repository import run_workload


def _square(x):
    return x * x


def _traced_square(x):
    with trace.span("test.work", item=x):
        get_registry().counter("test_items").increment()
        get_registry().histogram("test_values", bounds=[1, 10, 100]).record(x)
    return x * x


def _record_then_open(item, log, missing_item):
    """Log the call; the ``missing_item`` call raises FileNotFoundError."""
    with open(log, "a") as handle:
        handle.write(f"{item}\n")
    if item == missing_item:
        open(f"{log}.missing").close()
    return item


def _count_or_die(item, last):
    """Count the call; a pool worker dies on the ``last`` item."""
    get_registry().counter("test_items").increment()
    if item == last and multiprocessing.parent_process() is not None:
        os._exit(1)
    return item


def _plans_equal(a, b):
    if set(a.nodes) != set(b.nodes):
        return False
    fields = (
        "kind", "children", "partitioning", "output_cardinality",
        "leaf_input_cardinality", "children_input_cardinality",
        "average_row_length", "cost_subtree", "cost_exclusive",
        "cost_total", "num_partitions", "num_partitioning_columns",
        "num_sort_columns", "true_cost",
    )
    return all(
        getattr(a.nodes[k], f) == getattr(b.nodes[k], f)
        for k in a.nodes
        for f in fields
    )


class TestPmap:
    def test_serial_path_matches_list_comprehension(self):
        items = list(range(17))
        assert pmap(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_preserves_input_order(self):
        items = list(range(53))
        assert pmap(_square, items, workers=4) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        assert pmap(_square, items, workers=3) == pmap(_square, items, workers=1)

    def test_empty_and_single_item(self):
        assert pmap(_square, [], workers=4) == []
        assert pmap(_square, [7], workers=4) == [49]

    def test_explicit_chunk_size(self):
        items = list(range(19))
        assert pmap(_square, items, workers=2, chunk_size=3) == [
            x * x for x in items
        ]

    def test_start_method_is_supported(self):
        assert START_METHOD in multiprocessing.get_all_start_methods()


class TestPmapFailures:
    """A task's own error propagates; only a broken pool falls back."""

    def teardown_method(self):
        reset_registry()

    def test_task_error_raises_without_serial_rerun(self, tmp_path):
        log = tmp_path / "calls.log"
        task = partial(_record_then_open, log=str(log), missing_item=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FileNotFoundError):
                pmap(task, range(8), workers=2)
        assert not [w for w in caught if w.category is RuntimeWarning]
        calls = log.read_text().split()
        assert "5" in calls
        assert len(calls) == len(set(calls))  # every item ran at most once

    def test_broken_pool_falls_back_and_counts_each_item_once(self):
        reset_registry()
        items = list(range(8))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = pmap(partial(_count_or_die, last=7), items, workers=2)
        assert results == items
        counters = get_registry().snapshot()["counters"]
        assert counters["test_items"] == len(items)


class TestWorkers:
    def test_resolve_defaults_to_cpu_count(self):
        assert resolve_workers(None) == multiprocessing.cpu_count()
        assert resolve_workers(0) == multiprocessing.cpu_count()
        assert resolve_workers(-3) == multiprocessing.cpu_count()

    def test_resolve_passes_positive_through(self):
        assert resolve_workers(5) == 5


class TestSpawnSeeds:
    def test_deterministic_and_independent_of_batching(self):
        a = spawn_seeds(42, 8)
        b = spawn_seeds(42, 8)
        assert len(a) == 8
        for left, right in zip(a, b):
            assert np.array_equal(
                left.generate_state(4), right.generate_state(4)
            )

    def test_distinct_children(self):
        states = {tuple(s.generate_state(4)) for s in spawn_seeds(0, 16)}
        assert len(states) == 16

    def test_tuple_entropy(self):
        a = spawn_seeds((3, 7), 2)
        b = spawn_seeds((3, 8), 2)
        assert not np.array_equal(
            a[0].generate_state(4), b[0].generate_state(4)
        )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestPipelineDeterminism:
    """Parallel offline stages must be bit-identical to serial ones."""

    def test_generate_parallel_equals_serial(self):
        serial = WorkloadGenerator(seed=11).generate(24)
        parallel = WorkloadGenerator(seed=11).generate(24, workers=4)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.job_id == b.job_id
            assert a.requested_tokens == b.requested_tokens
            assert a.recurring == b.recurring
            assert _plans_equal(a.plan, b.plan)

    def test_generate_job_consistent_with_generate(self):
        batch = WorkloadGenerator(seed=11).generate(4)
        one_gen = WorkloadGenerator(seed=11)
        singles = [one_gen.generate_job(0) for _ in range(4)]
        for a, b in zip(batch, singles):
            assert a.job_id == b.job_id
            assert _plans_equal(a.plan, b.plan)

    def test_run_workload_parallel_equals_serial(self):
        jobs = WorkloadGenerator(seed=5).generate(16)
        serial = run_workload(jobs, seed=2)
        parallel = run_workload(jobs, seed=2, workers=4)
        for a, b in zip(serial.records(), parallel.records()):
            assert a.job_id == b.job_id
            assert np.array_equal(a.skyline.usage, b.skyline.usage)

    def test_build_dataset_parallel_equals_serial(self):
        jobs = WorkloadGenerator(seed=5).generate(16)
        repo = run_workload(jobs, seed=2)
        serial = build_dataset(repo)
        parallel = build_dataset(repo, workers=4)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.job_id == b.job_id
            assert a.target_pcc == b.target_pcc
            assert np.array_equal(a.job_features, b.job_features)
            assert np.array_equal(
                a.graph.node_features, b.graph.node_features
            )
            assert a.point_observations == b.point_observations


class TestObsPropagation:
    """Satellite: span/metric emission must be safe under fork/spawn."""

    def teardown_method(self):
        trace.disable()
        trace.reset()
        reset_registry()

    def test_worker_spans_merge_into_parent(self):
        trace.reset()
        reset_registry()
        trace.enable()
        with trace.span("test.parent"):
            results = pmap(_traced_square, list(range(8)), workers=2)
        assert results == [x * x for x in range(8)]

        spans = trace.spans()
        work = [s for s in spans if s.name == "test.work"]
        parent = next(s for s in spans if s.name == "test.parent")
        assert len(work) == 8
        # Worker roots re-attach under the parent's open span, and every
        # remapped id is unique within the merged buffer.
        assert all(s.parent_id == parent.span_id for s in work)
        assert len({s.span_id for s in spans}) == len(spans)

    def test_worker_metrics_merge_into_parent_registry(self):
        trace.reset()
        reset_registry()
        pmap(_traced_square, list(range(10)), workers=2)
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["test_items"] == 10
        assert snapshot["histograms"]["test_values"]["count"] == 10

    def test_parallel_metrics_equal_serial_metrics(self):
        reset_registry()
        pmap(_traced_square, list(range(12)), workers=1)
        serial = get_registry().snapshot()
        reset_registry()
        pmap(_traced_square, list(range(12)), workers=3)
        parallel = get_registry().snapshot()
        assert serial["counters"] == parallel["counters"]
        assert (
            serial["histograms"]["test_values"]["count"]
            == parallel["histograms"]["test_values"]["count"]
        )

    def test_disabled_trace_stays_disabled_in_workers(self):
        trace.disable()
        trace.reset()
        pmap(_traced_square, list(range(6)), workers=2)
        assert trace.spans() == []
