"""Self time over nested spans, and the per-layer table."""

import pytest

from repro.obs.tracing import Span

from harness.catalog import LAYER_METRICS
from harness.probes import SpanTree, layer_metrics


def span(span_id, parent_id, name, start, end, **attrs):
    return Span(
        name=name, span_id=span_id, parent_id=parent_id, thread_id=1,
        thread_name="main", start_s=start, end_s=end, attrs=attrs,
    )


def test_self_time_subtracts_nearest_child_probes_through_program_spans():
    spans = [
        span(1, None, "bench.outer", 0.0, 10.0),
        span(2, 1, "bench.child", 1.0, 3.0),
        # A program span between two probes is looked through ...
        span(3, 1, "serving.process_batch", 2.5, 6.0),
        span(4, 3, "bench.grandchild", 4.0, 5.0),
        # ... and its own time stays in the outer probe's self time.
        span(5, 4, "bench.leaf", 4.2, 4.4),
    ]
    tree = SpanTree(spans)
    by_id = {s.span_id: s for s in spans}
    assert tree.self_s(by_id[1]) == pytest.approx(10.0 - 2.0 - 1.0)
    assert tree.self_s(by_id[4]) == pytest.approx(1.0 - 0.2)
    assert tree.self_s(by_id[5]) == pytest.approx(0.2)
    assert tree.has_descendant(by_id[1], "bench.leaf")
    assert not tree.has_descendant(by_id[2], "bench.leaf")


def test_overlapping_children_are_covered_once_and_clipped():
    # Pool workers run children in parallel; a child may also outlive a
    # parent whose clock is another process's.
    spans = [
        span(1, None, "bench.pool.pmap", 0.0, 4.0, workers=2, items=4),
        span(2, 1, "bench.fit.nn", 0.5, 2.5),
        span(3, 1, "bench.fit.gnn", 1.5, 3.0),
        span(4, 1, "bench.fit.xgboost_pl", 3.5, 5.0),
    ]
    tree = SpanTree(spans)
    assert tree.self_s(spans[0]) == pytest.approx(4.0 - 2.5 - 0.5)


def test_virtual_and_open_spans_are_ignored():
    simulated = span(2, 1, "bench.exec.execute", 0.0, 500.0)
    simulated.virtual = True
    spans = [
        span(1, None, "bench.replay.run", 0.0, 2.0),
        simulated,
        span(3, 1, "bench.fleet.advance", 0.5, None),
    ]
    tree = SpanTree(spans)
    assert tree.self_s(spans[0]) == pytest.approx(2.0)


def test_every_layer_metric_is_reported_and_zero_when_its_layer_never_ran():
    values = layer_metrics(
        SpanTree([]), wall_s=1.0, server_counters={}, server_histograms={},
        breaker_trips=0, registry_counters={}, reallocations=0,
    )
    assert list(values) == list(LAYER_METRICS)
    assert set(values.values()) == {0.0}
