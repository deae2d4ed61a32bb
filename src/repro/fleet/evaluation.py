"""Cluster-wide evaluation: global allocation vs. per-job baselines.

Replays one arrival stream of historical jobs through the shared token
pool under every allocation regime the repo knows:

* **default** — jobs hold their user-requested tokens (the paper's
  over-allocation status quo);
* **peak** — jobs hold exactly their observed peak usage (a clairvoyant
  per-job baseline: no slowdown, minimal holding);
* **tasq** — per-job TASQ recommendations, each job optimized in
  isolation (the motivation benchmark's treatment arm);
* **fleet/water_filling** — the
  :class:`~repro.fleet.scheduler.FleetScheduler` grants tokens globally
  from the predicted PCCs under the cap, topping up running jobs from
  idle tokens.

Granted allocations are replayed against each job's *observed* skyline
through AREPAS, so every regime pays its true run-time cost while the
allocator only ever sees predictions — the same information asymmetry
the production system faces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.arepas.simulator import AREPAS
from repro.exceptions import FleetError
from repro.fleet.demand import JobDemand
from repro.fleet.scheduler import FleetJob, FleetScheduler
from repro.pcc.optimal import tokens_for_slowdown
from repro.scope.cluster import QueueReport
from repro.scope.repository import TelemetryRecord
from repro.tasq.pipeline import TokenRecommendation

__all__ = [
    "PolicyOutcome",
    "FleetComparison",
    "build_demands",
    "score_usable",
    "compare_policies",
    "BASELINE_NAMES",
]

BASELINE_NAMES = ("default", "peak", "tasq")


@dataclass(frozen=True)
class PolicyOutcome:
    """Cluster-level metrics for one allocation regime."""

    name: str
    makespan: float
    mean_wait: float
    p95_wait: float
    mean_turnaround: float
    total_token_seconds: float
    utilization: float

    @classmethod
    def from_report(cls, name: str, report: QueueReport) -> "PolicyOutcome":
        return cls(
            name=name,
            makespan=report.makespan,
            mean_wait=report.mean_wait,
            p95_wait=report.p95_wait,
            mean_turnaround=report.mean_turnaround,
            total_token_seconds=report.total_token_seconds,
            utilization=report.utilization,
        )

    def to_json(self) -> dict[str, float]:
        return {
            "makespan_s": self.makespan,
            "mean_wait_s": self.mean_wait,
            "p95_wait_s": self.p95_wait,
            "mean_turnaround_s": self.mean_turnaround,
            "total_token_seconds": self.total_token_seconds,
            "utilization": self.utilization,
        }


@dataclass(frozen=True)
class FleetComparison:
    """Every regime's outcome on one seeded arrival stream."""

    outcomes: tuple[PolicyOutcome, ...]
    capacity: int
    jobs: int
    seed: int

    def get(self, name: str) -> PolicyOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise FleetError(f"no outcome named {name!r}")

    def to_json(self) -> dict:
        return {
            "capacity_tokens": self.capacity,
            "jobs": self.jobs,
            "seed": self.seed,
            "policies": {o.name: o.to_json() for o in self.outcomes},
        }

    def render(self) -> str:
        header = (
            f"{'policy':<22} {'makespan':>10} {'mean wait':>10} "
            f"{'p95 wait':>10} {'tok-sec':>12} {'util':>6}"
        )
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            lines.append(
                f"{o.name:<22} {o.makespan:>10,.0f} {o.mean_wait:>10,.0f} "
                f"{o.p95_wait:>10,.0f} {o.total_token_seconds:>12,.0f} "
                f"{o.utilization:>6.0%}"
            )
        return "\n".join(lines)


def build_demands(
    records: list[TelemetryRecord],
    recommendations: list[TokenRecommendation],
    slowdown_floor: float = 0.25,
) -> list[JobDemand]:
    """Fleet demands from predicted PCCs, floored by a slowdown SLO.

    Each job may be squeezed down to the smallest allocation whose
    *predicted* slowdown versus the requested tokens stays within
    ``slowdown_floor``, and never granted more than it requested.
    """
    demands = []
    for record, rec in zip(records, recommendations):
        floor = tokens_for_slowdown(
            rec.pcc, record.requested_tokens, slowdown_floor
        )
        floor = min(floor, record.requested_tokens)
        demands.append(
            JobDemand(
                job_id=record.job_id,
                pcc=rec.pcc,
                min_tokens=max(1, floor),
                max_tokens=record.requested_tokens,
            )
        )
    return demands


def score_usable(scorer, records):
    """Score records in one call, dropping jobs whose predicted PCC increases.

    Some model families (notably the XGBoost power-law refit) can emit
    an *increasing* PCC for an odd job. Such a curve has no optimal
    allocation, so the scoring pipeline answers that row ``None``.

    Returns the kept records and their recommendations, aligned.
    """
    recommendations = scorer.score_batch(
        [r.plan for r in records], [r.requested_tokens for r in records]
    )
    usable = [
        (record, rec)
        for record, rec in zip(records, recommendations)
        if rec is not None
    ]
    return [record for record, _ in usable], [rec for _, rec in usable]


def compare_policies(
    records: list[TelemetryRecord],
    recommendations: list[TokenRecommendation],
    capacity: int | None = None,
    arrival_mean_s: float = 15.0,
    seed: int = 7,
    slowdown_floor: float = 0.25,
) -> FleetComparison:
    """Run every regime over one seeded Poisson arrival stream."""
    if len(records) != len(recommendations):
        raise FleetError("records and recommendations must align")
    if not records:
        raise FleetError("nothing to compare")
    if not arrival_mean_s > 0:
        raise FleetError(
            f"mean inter-arrival gap must be positive, got {arrival_mean_s}"
        )
    if capacity is None:
        capacity = max(r.requested_tokens for r in records)

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(
        rng.exponential(arrival_mean_s, size=len(records))
    )
    simulator = AREPAS()

    def baseline_stream(tokens_for):
        return [
            FleetJob.fixed(
                job_id=r.job_id,
                arrival_time=float(t),
                tokens=min(capacity, max(1, tokens_for(r))),
                runtime=float(r.runtime),
            )
            for r, t in zip(records, arrivals)
        ]

    queue = FleetScheduler(capacity)
    outcomes = [
        PolicyOutcome.from_report(
            "default",
            queue.run(baseline_stream(lambda r: r.requested_tokens)),
        ),
        PolicyOutcome.from_report(
            "peak",
            queue.run(
                baseline_stream(lambda r: int(np.ceil(r.peak_tokens)))
            ),
        ),
    ]

    tasq_stream = [
        FleetJob.fixed(
            job_id=r.job_id,
            arrival_time=float(t),
            tokens=min(capacity, rec.optimal_tokens),
            runtime=float(
                simulator.runtime(
                    r.skyline, min(capacity, rec.optimal_tokens)
                )
            ),
        )
        for r, rec, t in zip(records, recommendations, arrivals)
    ]
    outcomes.append(
        PolicyOutcome.from_report("tasq", queue.run(tasq_stream))
    )

    demands = build_demands(
        records, recommendations, slowdown_floor=slowdown_floor
    )
    demands = [
        dataclasses.replace(
            d,
            min_tokens=min(d.min_tokens, capacity),
            max_tokens=min(d.max_tokens, capacity),
        )
        for d in demands
    ]
    skylines = {r.job_id: r.skyline for r in records}
    fleet_jobs = [
        FleetJob(
            job_id=demand.job_id,
            arrival_time=float(t),
            demand=demand,
            runtime_fn=(
                lambda tokens, sky=skylines[demand.job_id]: float(
                    simulator.runtime(sky, tokens)
                )
            ),
        )
        for demand, t in zip(demands, arrivals)
    ]
    scheduler = FleetScheduler(capacity, reallocate_running=True)
    outcomes.append(
        PolicyOutcome.from_report(
            "fleet/water_filling", scheduler.run(fleet_jobs)
        )
    )

    return FleetComparison(
        outcomes=tuple(outcomes),
        capacity=capacity,
        jobs=len(records),
        seed=seed,
    )
