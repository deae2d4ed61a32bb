"""BENCHMARK.json registers exactly what the runner reports."""

import json
from pathlib import Path

from harness.catalog import (
    LAYER_METRICS,
    METRICS,
    REGISTERED_METRICS,
    WORKLOAD_METRICS,
    WORKLOADS,
)

REGISTRY = json.loads(
    (Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text()
)


def test_workloads_match():
    assert [w["name"] for w in REGISTRY["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_and_map_onto_every_workload():
    registered = {m["name"]: m for m in REGISTRY["end_to_end"]}
    assert set(registered) == set(REGISTERED_METRICS)
    for name, (unit, sources) in REGISTERED_METRICS.items():
        assert registered[name]["unit"] == unit
        assert set(sources) == set(WORKLOADS)
        for workload, (source, _) in sources.items():
            assert source in WORKLOAD_METRICS[workload]
            assert registered[name]["better"] == METRICS[source][1]
    setup = registered["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in registered.values())


def test_per_layer_metrics_match():
    assert {
        m["name"]: (m["unit"], m["better"]) for m in REGISTRY["per_layer"]
    } == LAYER_METRICS
