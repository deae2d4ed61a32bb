"""Capacity planning: cluster-level impact of TASQ allocations.

The paper's introduction argues that right-sizing token requests "reduces
job wait time and improves the overall resource availability for other
jobs in the cluster". This study quantifies that on a simulated
fixed-capacity cluster:

1. build a day of history and train TASQ,
2. compute recommendations for the next day's jobs (10% slowdown budget),
3. replay the same arrival stream through an FCFS admission queue twice —
   once with the user-requested allocations, once with TASQ's — and
   compare queueing statistics.

Run:
    python examples/capacity_planning.py
"""

from __future__ import annotations

import numpy as np

from repro import WorkloadGenerator, run_workload
from repro.arepas import AREPAS
from repro.fleet import FleetJob, FleetScheduler
from repro.models import TrainConfig
from repro.tasq import ScoringPipeline, TasqConfig, TrainingPipeline


def main() -> None:
    generator = WorkloadGenerator(seed=13)
    print("Building history and training TASQ ...")
    history = run_workload(generator.generate(250), seed=0)
    config = TasqConfig(train_gnn=False,
                        nn_train_config=TrainConfig(epochs=60))
    trained = TrainingPipeline(config).run(history)

    print("Executing tomorrow's jobs ...")
    tomorrow = run_workload(generator.generate(120, start_day=1), seed=1)
    # Keep the study to the virtual cluster's job class: huge-request
    # jobs run on dedicated capacity and would dwarf the shared queue.
    records = [
        r for r in tomorrow.records() if 2 <= r.requested_tokens <= 600
    ]

    # TASQ recommendations: cheapest allocation within a 10% predicted
    # slowdown budget.
    scorer = ScoringPipeline(
        trained.get("nn"), improvement_threshold=10.0, max_slowdown=0.10
    )
    recommendations = scorer.score_batch(
        [r.plan for r in records], [r.requested_tokens for r in records]
    )

    # Arrival stream: a burst of submissions (one every 20 seconds).
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(20.0, size=len(records)))
    simulator = AREPAS()

    default_stream = []
    tasq_stream = []
    for record, recommendation, arrival in zip(records, recommendations,
                                               arrivals):
        default_stream.append(
            FleetJob.fixed(
                job_id=record.job_id,
                arrival_time=float(arrival),
                tokens=record.requested_tokens,
                runtime=float(record.runtime),
            )
        )
        tokens = recommendation.optimal_tokens
        tasq_stream.append(
            FleetJob.fixed(
                job_id=record.job_id,
                arrival_time=float(arrival),
                tokens=tokens,
                runtime=float(simulator.runtime(record.skyline, tokens)),
            )
        )

    # The pool must fit the largest request; size it tightly at that.
    capacity = max(r.requested_tokens for r in records)
    queue = FleetScheduler(capacity)
    default_report = queue.run(default_stream)
    tasq_report = queue.run(tasq_stream)

    total_default = sum(r.requested_tokens for r in records)
    total_tasq = sum(rec.optimal_tokens for rec in recommendations)
    print(f"\nCluster capacity: {capacity} tokens; "
          f"{len(records)} jobs over ~{arrivals[-1] / 60:.0f} minutes")
    print(f"Token requests: {total_default:,} (default) -> "
          f"{total_tasq:,} (TASQ, {1 - total_tasq / total_default:.0%} saved)")
    print(f"\n{'metric':<22} {'default':>12} {'TASQ':>12}")
    print("-" * 48)
    rows = [
        ("mean wait (s)", default_report.mean_wait, tasq_report.mean_wait),
        ("median wait (s)", default_report.median_wait,
         tasq_report.median_wait),
        ("p95 wait (s)", default_report.p95_wait, tasq_report.p95_wait),
        ("mean turnaround (s)", default_report.mean_turnaround,
         tasq_report.mean_turnaround),
        ("makespan (s)", default_report.makespan, tasq_report.makespan),
    ]
    for name, before, after in rows:
        print(f"{name:<22} {before:>12,.0f} {after:>12,.0f}")
    print(
        "\nSmaller requests queue less: TASQ trades a bounded per-job "
        "slowdown for\nmuch shorter waits — the paper's cluster-level "
        "motivation (Section 1)."
    )


if __name__ == "__main__":
    main()
