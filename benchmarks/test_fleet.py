"""Fleet benchmark: global allocation vs. per-job TASQ and defaults.

The cluster-level extension of the Section 1 motivation study: instead
of right-sizing each job in isolation, a :class:`GlobalAllocator`
divides the shared token pool across concurrent jobs from their
predicted PCCs. One seeded arrival stream is replayed under every
regime — user defaults, clairvoyant peak, per-job TASQ, and global
water-filling — and the cluster-wide makespan / wait / token-hours are
compared.

Unlike the reproduction benchmarks, this study runs on its own
fixed-size workload (independent of ``REPRO_BENCH_SCALE``) so its
acceptance assertions are stable across CI scales. Results land in
``benchmarks/results/BENCH_fleet.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fleet import compare_policies, score_usable
from repro.models import build_dataset
from repro.scope import WorkloadGenerator, run_workload
from repro.tasq import ScoringPipeline
from repro.tasq.pipeline import fit_serving_model

_RESULTS_DIR = Path(__file__).parent / "results"

#: Fixed study shape — deliberately NOT scaled by REPRO_BENCH_SCALE.
_JOBS = 150
_SEED = 7
_ARRIVAL_MEAN_S = 15.0


@pytest.fixture(scope="module")
def fleet_records():
    """A self-contained 150-job workload plus usable recommendations."""
    generator = WorkloadGenerator(seed=2022)
    repository = run_workload(generator.generate(_JOBS), seed=0)
    model = fit_serving_model(build_dataset(repository), 0)
    scorer = ScoringPipeline(
        model, improvement_threshold=10.0, max_slowdown=0.10
    )
    records = [
        r
        for r in repository.records()
        if 2 <= r.requested_tokens <= 600
    ]
    return score_usable(scorer, records)


def test_fleet_policies_beat_baselines(benchmark, fleet_records, report):
    records, recommendations = fleet_records
    assert len(records) >= 100  # the study must not silently shrink

    comparison = benchmark.pedantic(
        compare_policies,
        args=(records, recommendations),
        kwargs={"arrival_mean_s": _ARRIVAL_MEAN_S, "seed": _SEED},
        rounds=1,
        iterations=1,
    )

    _RESULTS_DIR.mkdir(exist_ok=True)
    out = _RESULTS_DIR / "BENCH_fleet.json"
    out.write_text(
        json.dumps(comparison.to_json(), indent=2, sort_keys=True) + "\n"
    )

    report.add(
        "Fleet global allocation",
        f"{comparison.jobs} jobs, cluster cap {comparison.capacity} "
        f"tokens, seed {comparison.seed}\n" + comparison.render(),
    )

    default = comparison.get("default")
    peak = comparison.get("peak")
    tasq = comparison.get("tasq")
    fleet = comparison.get("fleet/water_filling")

    # Acceptance: global allocation beats BOTH the Default and Peak
    # baselines on makespan AND mean wait ...
    assert fleet.makespan < min(default.makespan, peak.makespan)
    assert fleet.mean_wait < min(default.mean_wait, peak.mean_wait)

    # ... and beats per-job TASQ on at least one of the two.
    assert (
        fleet.makespan < tasq.makespan or fleet.mean_wait < tasq.mean_wait
    ), "global allocation did not improve on per-job TASQ"

    # Sanity: the pool is never over-committed in any regime.
    for outcome in comparison.outcomes:
        assert outcome.utilization <= 1.0 + 1e-9
