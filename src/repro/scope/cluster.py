"""Per-job outcomes and aggregate statistics of a queueing study.

The paper's introduction argues that "utilizing fewer tokens reduces job
wait time and improves the overall resource availability for other jobs
in the cluster". The repo measures that claim with one event loop,
:class:`repro.fleet.scheduler.FleetStream`, which admits jobs FCFS into a
fixed pool of guaranteed tokens. A fixed request (the user default, the
observed peak, a per-job TASQ recommendation) enters it as
:meth:`FleetJob.fixed <repro.fleet.scheduler.FleetJob.fixed>`, whose
grant bounds collapse to the request.

The motivation benchmark, the fleet evaluation and the replay engine all
summarize their runs with the two types defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QueueOutcome", "QueueReport"]


@dataclass(frozen=True)
class QueueOutcome:
    """When one job started and finished, and what it was granted.

    ``tokens`` is the job's final grant: the request itself for a
    fixed-grant job, otherwise the allocator's last decision.
    ``token_seconds`` defaults to ``tokens`` held for the whole run;
    schedulers whose grants change mid-run pass the exactly integrated
    holdings instead.
    """

    job_id: str
    arrival_time: float
    start_time: float
    finish_time: float
    tokens: int
    #: Tokens held x seconds held: the job's slice of the pool.
    token_seconds: float = -1.0

    def __post_init__(self) -> None:
        if self.token_seconds < 0:
            object.__setattr__(
                self,
                "token_seconds",
                self.tokens * (self.finish_time - self.start_time),
            )

    @property
    def wait_time(self) -> float:
        return self.start_time - self.arrival_time

    @property
    def turnaround(self) -> float:
        """Arrival-to-completion latency (wait + run)."""
        return self.finish_time - self.arrival_time

    @property
    def runtime(self) -> float:
        """Time actually spent running (start to finish)."""
        return self.finish_time - self.start_time

    @property
    def slowdown(self) -> float:
        """Turnaround normalized by run time (1.0 = no queueing delay)."""
        return self.turnaround / self.runtime


@dataclass(frozen=True)
class QueueReport:
    """Aggregate queueing statistics for one simulated stream.

    ``capacity`` is denominated in *tokens* (the guaranteed-token pool of
    the paper's Section 1), not job slots: a job occupies ``tokens`` of
    it for its whole run.
    """

    outcomes: tuple[QueueOutcome, ...]
    capacity: int

    @property
    def mean_wait(self) -> float:
        return float(np.mean([o.wait_time for o in self.outcomes]))

    @property
    def median_wait(self) -> float:
        return float(np.median([o.wait_time for o in self.outcomes]))

    @property
    def p95_wait(self) -> float:
        return self.wait_percentile(95)

    @property
    def p50_wait(self) -> float:
        return self.wait_percentile(50)

    def wait_percentile(self, q: float) -> float:
        """The ``q``-th percentile of per-job wait times."""
        return float(
            np.percentile([o.wait_time for o in self.outcomes], q)
        )

    @property
    def p50_slowdown(self) -> float:
        return self.slowdown_percentile(50)

    @property
    def p95_slowdown(self) -> float:
        return self.slowdown_percentile(95)

    def slowdown_percentile(self, q: float) -> float:
        """The ``q``-th percentile of per-job slowdowns (turnaround /
        run time; 1.0 means the job never waited)."""
        return float(
            np.percentile([o.slowdown for o in self.outcomes], q)
        )

    @property
    def mean_turnaround(self) -> float:
        return float(np.mean([o.turnaround for o in self.outcomes]))

    @property
    def makespan(self) -> float:
        return float(max(o.finish_time for o in self.outcomes))

    @property
    def total_token_seconds(self) -> float:
        """Token-seconds held across the stream (the paper's cost unit)."""
        return float(sum(o.token_seconds for o in self.outcomes))

    @property
    def utilization(self) -> float:
        """Fraction of the pool's token-seconds actually held by jobs."""
        return self.total_token_seconds / (self.capacity * self.makespan)

