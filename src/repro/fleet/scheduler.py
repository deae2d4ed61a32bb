"""Admission scheduling with allocator-chosen token grants.

This is the repo's one FCFS event loop over a pool of guaranteed
tokens. Jobs arrive with a *demand* (predicted PCC plus grant bounds)
and the :class:`~repro.fleet.allocator.GlobalAllocator` decides, at
admission time, how many tokens each admitted job actually gets —
squeezing grants when the pool is contended and spending spare tokens on
faster run times when it is not. A job whose bounds collapse to one
value (:meth:`FleetJob.fixed`) is granted exactly its request, so plain
FCFS admission of fixed requests — the Default/Peak/per-job-TASQ
baselines and the §1 motivation study — runs through the same loop.

Re-allocation: whenever a completion releases tokens, the freed budget
is first offered to the queued jobs (FCFS, order-preserving) and — with
``reallocate_running=True`` — any still idle tokens top up *running*
jobs, shortening their remaining run time proportionally to their PCC's
predicted speed-up.

Admission order: the default is an order-preserving FCFS prefix.
``admission="backfill"`` adds EASY backfilling — when the
head-of-line job is blocked, later jobs may start at their *floor*
grant provided they cannot delay the head's earliest possible start
(they either finish, by their own PCC's estimate, before the head's
shadow time, or they fit in tokens the head will not need then). The
head is therefore never starved by design, only by optimistic run-time
estimates — the same guarantee real EASY schedulers give.

The simulation itself is exposed incrementally as :class:`FleetStream`
(submit arrivals in time order, advance virtual time, collect
completions); :meth:`FleetScheduler.run` is the batch wrapper. The
arrival-driven replay harness (``repro.replay``) drives the stream form
directly so recommendations, admissions, executions, and feedback can
interleave in virtual-time order.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.exceptions import ExecutionError, FleetError
from repro.fleet.allocator import GlobalAllocator
from repro.fleet.demand import JobDemand
from repro.obs import trace
from repro.pcc.curve import PowerLawPCC
from repro.scope.cluster import QueueOutcome, QueueReport

__all__ = [
    "FleetJob",
    "FleetReport",
    "FleetStream",
    "FleetScheduler",
    "ADMISSION_ORDERS",
]

ADMISSION_ORDERS = ("fcfs", "backfill")


@dataclass(frozen=True)
class FleetJob:
    """One job submitted to the fleet scheduler.

    ``runtime_fn`` maps a granted token count to the job's *actual* run
    time (e.g. an AREPAS replay of the job's observed skyline). When
    omitted, the demand's predicted PCC stands in — useful for synthetic
    studies where prediction is taken to be perfect.
    """

    job_id: str
    arrival_time: float
    demand: JobDemand
    runtime_fn: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_time < math.inf:
            raise ExecutionError(
                f"job {self.job_id}: arrival time must be finite and "
                f"non-negative, got {self.arrival_time}"
            )

    @classmethod
    def fixed(
        cls, job_id: str, arrival_time: float, tokens: int, runtime: float
    ) -> "FleetJob":
        """A job that holds exactly ``tokens`` for exactly ``runtime``.

        Both grant bounds are ``tokens`` and the PCC is flat at
        ``runtime``, so the allocator grants the request unchanged and
        re-allocation never tops the job up.
        """
        if tokens < 1:
            raise ExecutionError("queued jobs need at least one token")
        if not 0 < runtime < math.inf:
            raise ExecutionError(
                f"job {job_id}: run time must be positive and finite, "
                f"got {runtime}"
            )
        return cls(
            job_id=job_id,
            arrival_time=arrival_time,
            demand=JobDemand(
                job_id=job_id,
                pcc=PowerLawPCC(a=0.0, b=runtime),
                min_tokens=tokens,
                max_tokens=tokens,
            ),
        )

    def runtime_at(self, tokens: int) -> float:
        runtime = (
            self.runtime_fn(tokens)
            if self.runtime_fn is not None
            else self.demand.pcc.runtime(tokens)
        )
        runtime = float(runtime)
        if not runtime > 0:
            raise ExecutionError(
                f"job {self.job_id} reported a non-positive run time"
            )
        return runtime


@dataclass(frozen=True)
class FleetReport(QueueReport):
    """Queue statistics plus fleet-level accounting."""

    #: Highest number of simultaneously committed tokens observed.
    peak_committed_tokens: int
    #: How many times running jobs were topped up from freed tokens.
    reallocations: int
    #: Jobs admitted past a blocked head-of-line job (EASY backfill).
    backfills: int = 0
    #: Admission order the stream ran under.
    admission: str = "fcfs"


@dataclass
class _Running:
    job: FleetJob
    tokens: int
    start: float
    finish: float
    version: int = 0
    #: Token-seconds accumulated at *previous* grant levels.
    held: float = 0.0
    #: When the current grant level took effect.
    last_change: float = 0.0


class FleetStream:
    """Incremental fleet simulation over virtual time.

    Usage contract:

    * :meth:`submit` arrivals in non-decreasing ``arrival_time`` order;
      submissions are buffered, not admitted immediately, so jobs
      sharing a timestamp are allocated *together* (exactly like the
      batch scheduler).
    * :meth:`advance` processes every arrival/completion event up to a
      virtual time and returns the newly completed outcomes in finish
      order — the feedback hook for closed-loop callers.
    * :meth:`drain` runs the simulation to completion; :meth:`report`
      then summarizes it.

    ``FleetScheduler.run`` is exactly ``submit* -> drain -> report``,
    and produces bit-identical results to the historical batch loop.
    """

    def __init__(self, scheduler: "FleetScheduler") -> None:
        self._scheduler = scheduler
        self.capacity = scheduler.capacity
        self._allocator = scheduler.allocator
        self._reallocate = scheduler.reallocate_running
        self._admission = scheduler.admission
        #: Submitted but not yet visible to admission.
        self._arrivals: deque[FleetJob] = deque()
        self._waiting: deque[FleetJob] = deque()
        self._running: dict[str, _Running] = {}
        # Lazy-deletion heap of (finish, version, job_id): re-allocation
        # shortens finish times, so stale entries are skipped on pop.
        self._finish_heap: list[tuple[float, int, str]] = []
        self._free = scheduler.capacity
        self._clock = 0.0
        self._outcomes: list[QueueOutcome] = []
        self._delivered = 0
        self._last_arrival = 0.0
        self._submitted = 0
        self._peak_committed = 0
        self._reallocations = 0
        self._backfills = 0

    # ------------------------------------------------------------------
    # caller API
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """Current virtual time (last processed event)."""
        return self._clock

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def in_flight(self) -> int:
        """Jobs submitted but not yet finished."""
        return self._submitted - len(self._outcomes)

    @property
    def committed_tokens(self) -> int:
        """Tokens currently held by running jobs."""
        return self.capacity - self._free

    def submit(self, job: FleetJob) -> None:
        """Buffer one arrival; admission happens on the next advance."""
        if job.demand.min_tokens > self.capacity:
            raise ExecutionError(
                f"job {job.job_id} needs at least "
                f"{job.demand.min_tokens} tokens but the cluster only "
                f"has {self.capacity}"
            )
        if job.arrival_time < self._last_arrival:
            raise ExecutionError(
                "fleet stream arrivals must be submitted in time order"
            )
        self._last_arrival = job.arrival_time
        self._arrivals.append(job)
        self._submitted += 1

    def advance(self, until: float) -> list[QueueOutcome]:
        """Process every event at or before ``until``; return the jobs
        that completed since the previous call, in finish order."""
        self._process(until)
        return self._collect()

    def drain(self) -> list[QueueOutcome]:
        """Run the simulation to completion."""
        self._process(math.inf)
        if self._waiting and not self._running:
            raise ExecutionError(
                "deadlock: insufficient capacity with no running jobs"
            )
        return self._collect()

    def report(self) -> FleetReport:
        """Summarize everything completed so far."""
        if not self._outcomes:
            raise ExecutionError("no jobs submitted")
        return FleetReport(
            outcomes=tuple(
                sorted(self._outcomes, key=lambda o: (o.start_time, o.job_id))
            ),
            capacity=self.capacity,
            peak_committed_tokens=self._peak_committed,
            reallocations=self._reallocations,
            backfills=self._backfills,
            admission=self._admission,
        )

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _process(self, until: float) -> None:
        while True:
            next_arrival = (
                self._arrivals[0].arrival_time if self._arrivals else None
            )
            next_finish = self._next_finish()
            event_times = [
                t
                for t in (next_arrival, next_finish)
                if t is not None and t <= until
            ]
            if not event_times:
                return
            self._clock = max(self._clock, min(event_times))
            while (
                self._arrivals
                and self._arrivals[0].arrival_time <= self._clock
            ):
                self._waiting.append(self._arrivals.popleft())
            self._release_finished(self._clock)
            self._admit()

    def _collect(self) -> list[QueueOutcome]:
        new = self._outcomes[self._delivered:]
        self._delivered = len(self._outcomes)
        return new

    def _next_finish(self) -> float | None:
        while self._finish_heap:
            finish, version, job_id = self._finish_heap[0]
            state = self._running.get(job_id)
            if state is None or state.version != version:
                heapq.heappop(self._finish_heap)
                continue
            return finish
        return None

    def _release_finished(self, until: float) -> None:
        while self._finish_heap and self._finish_heap[0][0] <= until:
            finish, version, job_id = heapq.heappop(self._finish_heap)
            state = self._running.get(job_id)
            if state is None or state.version != version:
                continue  # superseded by a re-allocation
            del self._running[job_id]
            self._free += state.tokens
            self._outcomes.append(
                QueueOutcome(
                    job_id=job_id,
                    arrival_time=state.job.arrival_time,
                    start_time=state.start,
                    finish_time=state.finish,
                    tokens=state.tokens,
                    token_seconds=state.held
                    + state.tokens * (state.finish - state.last_change),
                )
            )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        # Admit the longest FCFS prefix whose floors fit, and let the
        # allocator divide the free pool among exactly those jobs
        # (running jobs keep their guaranteed grants).
        admitted: list[FleetJob] = []
        needed = 0
        for job in self._waiting:
            if needed + job.demand.min_tokens > self._free:
                break
            admitted.append(job)
            needed += job.demand.min_tokens
        if admitted:
            allocation = self._allocator.allocate(
                [job.demand for job in admitted], cap=self._free
            )
            for job, grant in zip(admitted, allocation.grants):
                self._waiting.popleft()
                self._start(job, grant.tokens)
        if (
            self._admission == "backfill"
            and self._waiting
            and self._running
        ):
            self._backfill()
        elif (
            not admitted
            and self._reallocate
            and not self._waiting
            and self._running
            and self._free > 0
        ):
            self._reallocations += self._top_up_running()
            self._free = self.capacity - sum(
                s.tokens for s in self._running.values()
            )

        self._peak_committed = max(
            self._peak_committed, self.capacity - self._free
        )
        if self._free < 0:
            raise FleetError("scheduler over-committed the pool")

    def _start(self, job: FleetJob, tokens: int) -> None:
        runtime = job.runtime_at(tokens)
        state = _Running(
            job=job,
            tokens=tokens,
            start=self._clock,
            finish=self._clock + runtime,
            last_change=self._clock,
        )
        self._running[job.job_id] = state
        heapq.heappush(self._finish_heap, (state.finish, 0, job.job_id))
        self._free -= tokens

    def _backfill(self) -> None:
        """EASY backfill behind a blocked head-of-line job.

        The head's *shadow time* is its earliest possible start —
        when enough running jobs will have released tokens for its
        floor. A later job may start now, at its floor grant, only if
        its own PCC predicts it finishes by the shadow time, or it fits
        entirely in tokens the head will not need then. Either way the
        head's reservation is (estimate permitting) undisturbed.
        """
        head = self._waiting[0]
        free_future = self._free
        shadow = None
        for finish, tokens in sorted(
            (s.finish, s.tokens) for s in self._running.values()
        ):
            free_future += tokens
            if free_future >= head.demand.min_tokens:
                shadow = finish
                break
        if shadow is None:
            return  # head is blocked on future *arrivals*, not releases
        spare_at_shadow = free_future - head.demand.min_tokens
        started: list[FleetJob] = []
        for job in list(self._waiting)[1:]:
            floor = job.demand.min_tokens
            if floor > self._free:
                continue
            predicted = float(job.demand.pcc.runtime(floor))
            if self._clock + predicted <= shadow:
                pass  # releases its tokens before the head needs them
            elif floor <= spare_at_shadow:
                spare_at_shadow -= floor  # head-spare tokens only
            else:
                continue
            self._start(job, floor)
            started.append(job)
            self._backfills += 1
        for job in started:
            self._waiting.remove(job)

    def _top_up_running(self) -> int:
        """Grant idle tokens to running jobs; returns jobs re-granted.

        A job that has held ``g`` tokens and would finish at ``f`` keeps
        its elapsed progress; the *remaining* run time is rescaled by
        the PCC-predicted speed-up ``runtime(g') / runtime(g)`` of the
        bigger grant ``g'``.
        """
        states = list(self._running.values())
        demands = []
        for state in states:
            if state.tokens >= state.job.demand.max_tokens:
                continue
            demands.append(
                JobDemand(
                    job_id=state.job.job_id,
                    pcc=state.job.demand.pcc,
                    min_tokens=state.tokens,
                    max_tokens=state.job.demand.max_tokens,
                )
            )
        if not demands:
            return 0
        allocation = self._allocator.allocate(
            demands, cap=self._free + sum(d.min_tokens for d in demands)
        )
        regranted = 0
        for grant in allocation.grants:
            state = self._running[grant.job_id]
            if grant.tokens <= state.tokens:
                continue
            speedup = state.job.demand.pcc.runtime(grant.tokens) / (
                state.job.demand.pcc.runtime(state.tokens)
            )
            remaining = max(0.0, state.finish - self._clock) * float(speedup)
            state.held += state.tokens * (self._clock - state.last_change)
            state.last_change = self._clock
            state.tokens = grant.tokens
            state.finish = self._clock + remaining
            state.version += 1
            heapq.heappush(
                self._finish_heap,
                (state.finish, state.version, grant.job_id),
            )
            regranted += 1
        return regranted


class FleetScheduler:
    """FCFS admission where the *allocator* chooses every grant.

    Parameters
    ----------
    capacity:
        Cluster-wide guaranteed-token pool, in tokens (not job slots).
    reallocate_running:
        When True, tokens left idle after the queue drains are granted
        to running jobs, rescaling their remaining run time by the
        predicted speed-up of the bigger grant.
    admission:
        ``"fcfs"`` (order-preserving, the default) or ``"backfill"``
        (EASY backfill past a blocked head-of-line job).
    """

    def __init__(
        self,
        capacity: int,
        reallocate_running: bool = False,
        admission: str = "fcfs",
    ) -> None:
        if capacity < 1:
            raise ExecutionError("cluster capacity must be positive")
        if admission not in ADMISSION_ORDERS:
            raise FleetError(
                f"unknown admission order {admission!r}; "
                f"known: {', '.join(ADMISSION_ORDERS)}"
            )
        self.capacity = capacity
        self.allocator = GlobalAllocator(capacity)
        self.reallocate_running = reallocate_running
        self.admission = admission

    def stream(self) -> FleetStream:
        """Open an incremental simulation over this scheduler's pool."""
        return FleetStream(self)

    def run(self, jobs: list[FleetJob]) -> FleetReport:
        """Simulate the stream with allocator-chosen grants."""
        with trace.span("fleet.schedule", jobs=len(jobs)):
            stream = self.stream()
            for job in sorted(
                jobs, key=lambda j: (j.arrival_time, j.job_id)
            ):
                stream.submit(job)
            stream.drain()
            return stream.report()
