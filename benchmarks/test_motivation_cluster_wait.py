"""Section 1 motivation: fewer tokens reduce cluster wait times.

"Utilizing fewer tokens reduces job wait time and improves the overall
resource availability for other jobs in the cluster [34]." We replay the
benchmark's next-day arrival stream through a fixed-capacity FCFS queue
under (a) the user-requested default allocations and (b) TASQ's
budgeted recommendations, and compare queueing statistics.
"""

from __future__ import annotations

import numpy as np

from repro.arepas import AREPAS
from repro.fleet import FleetJob, FleetScheduler
from repro.tasq import ScoringPipeline


def test_motivation_tasq_reduces_wait(
    benchmark, test_repo, nn_by_loss, report
):
    records = [
        r for r in test_repo.records() if 2 <= r.requested_tokens <= 600
    ]
    scorer = ScoringPipeline(
        nn_by_loss["LF2"], improvement_threshold=10.0, max_slowdown=0.10
    )
    recommendations = scorer.score_batch(
        [r.plan for r in records], [r.requested_tokens for r in records]
    )

    rng = np.random.default_rng(7)
    arrivals = np.cumsum(rng.exponential(15.0, size=len(records)))
    simulator = AREPAS()

    default_stream = [
        FleetJob.fixed(
            job_id=r.job_id,
            arrival_time=float(t),
            tokens=r.requested_tokens,
            runtime=float(r.runtime),
        )
        for r, t in zip(records, arrivals)
    ]
    tasq_stream = [
        FleetJob.fixed(
            job_id=r.job_id,
            arrival_time=float(t),
            tokens=rec.optimal_tokens,
            runtime=float(simulator.runtime(r.skyline, rec.optimal_tokens)),
        )
        for r, rec, t in zip(records, recommendations, arrivals)
    ]

    capacity = max(r.requested_tokens for r in records)
    queue = FleetScheduler(capacity)

    def run_both():
        return queue.run(default_stream), queue.run(tasq_stream)

    default_report, tasq_report = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    # The motivating claim: right-sizing reduces waiting and turnaround.
    assert tasq_report.mean_wait < default_report.mean_wait
    assert tasq_report.mean_turnaround < default_report.mean_turnaround

    savings = 1.0 - (
        sum(rec.optimal_tokens for rec in recommendations)
        / sum(r.requested_tokens for r in records)
    )
    lines = [
        f"{len(records)} jobs, capacity {capacity} tokens, "
        f"token requests cut by {savings:.0%}",
        f"{'metric':<20} {'default':>10} {'TASQ':>10}",
        "-" * 42,
        f"{'mean wait (s)':<20} {default_report.mean_wait:>10,.0f} "
        f"{tasq_report.mean_wait:>10,.0f}",
        f"{'p95 wait (s)':<20} {default_report.p95_wait:>10,.0f} "
        f"{tasq_report.p95_wait:>10,.0f}",
        f"{'mean turnaround (s)':<20} "
        f"{default_report.mean_turnaround:>10,.0f} "
        f"{tasq_report.mean_turnaround:>10,.0f}",
        "",
        "paper (Section 1, qualitative): utilizing fewer tokens reduces",
        "job wait time and improves availability for other jobs.",
    ]
    report.add("Motivation cluster wait times", "\n".join(lines))
