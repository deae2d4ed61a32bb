"""Simulated cluster executor.

This module stands in for the Cosmos cluster: it "runs" a job — i.e. a
:class:`~repro.scope.stages.StageGraph` — with a given token allocation and
produces the job's run time and its per-second resource skyline. Together
with the workload generator it replaces the proprietary production traces
the paper trains on, and it provides the re-execution ("flighting")
capability used for ground-truth PCCs.

Model:

* a token is a container that executes exactly one task at a time,
* a stage becomes *ready* when all stages it depends on have finished,
* tasks of ready stages are started greedily whenever a token is free,
  FIFO in the order the stages became ready (sources in topological
  order),
* task durations are the stage's nominal duration times an optional
  lognormal jitter plus a straggler tail, so repeated executions differ
  (which is what the paper's flight-anomaly filters react to).

Because tasks start strictly in queue order and a stage joins the queue no
earlier than the stages ahead of it, the schedule is list scheduling with
non-decreasing release times, and it is simulated one stage at a time. A
heap orders the ready stages by the key under which a FIFO queue fed by
task completions would hold them: sources first, in topological order;
every other stage by its ready time, then the start sequence number of the
dependency task whose completion made it ready (the latest by finish time,
then sequence), then its position in ``graph.stages``. Each task of the
popped stage, in index order, takes the earliest-free token from a heap of
token free times and starts at the later of that free time and the stage's
ready time. The start and end times are the same float additions that an
event loop over task completions performs, so the result is exact, not an
approximation.

The skyline is recovered exactly by integrating the tasks-running step
function over one-second bins. The result keeps the task intervals and
integrates them on the first read of ``skyline``, so a caller that only
needs the makespan (a replayed job's run time) never pays for it.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.exceptions import ExecutionError
from repro.obs import get_registry, trace
from repro.scope.stages import CostModel, StageGraph
from repro.skyline.skyline import Skyline

__all__ = ["ExecutionResult", "ClusterExecutor"]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one simulated job execution.

    ``task_starts`` and ``task_ends`` hold every task's interval in start
    order; ``skyline`` integrates them on first read and keeps the result.
    """

    job_id: str
    tokens: int
    makespan: float
    stage_finish_times: dict[int, float]
    task_starts: list[float] = field(repr=False)
    task_ends: list[float] = field(repr=False)

    @cached_property
    def skyline(self) -> Skyline:
        return _intervals_to_skyline(
            np.asarray(self.task_starts), np.asarray(self.task_ends),
            self.makespan,
        )

    @property
    def runtime(self) -> int:
        """Run time in whole seconds (the skyline's duration)."""
        return self.skyline.duration


class ClusterExecutor:
    """Executes stage graphs on a simulated token pool.

    Parameters
    ----------
    cost_model:
        Conversion from plan cost units to task seconds.
    noise_scale:
        Sigma of the lognormal per-task duration jitter. Zero gives a
        fully deterministic execution.
    straggler_rate, straggler_factor:
        Probability that a task is a straggler and the factor by which its
        duration is multiplied. Stragglers make skylines ragged and are a
        major source of run-to-run variance on real clusters.
    work_noise:
        Sigma of a lognormal *per-execution* factor applied to every task
        duration. Per-task jitter averages out over many tasks; this
        global factor models day-to-day cluster conditions (data drift,
        contention) and is what makes total token-seconds vary between
        re-executions of the same job — the variance the paper's
        area-conservation analysis (Figure 12) measures.
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        noise_scale: float = 0.0,
        straggler_rate: float = 0.0,
        straggler_factor: float = 3.0,
        work_noise: float = 0.0,
    ) -> None:
        if noise_scale < 0:
            raise ExecutionError("noise scale must be non-negative")
        if not 0 <= straggler_rate < 1:
            raise ExecutionError("straggler rate must be in [0, 1)")
        if straggler_factor < 1:
            raise ExecutionError("straggler factor must be >= 1")
        if work_noise < 0:
            raise ExecutionError("work noise must be non-negative")
        self.cost_model = cost_model or CostModel()
        self.noise_scale = noise_scale
        self.straggler_rate = straggler_rate
        self.straggler_factor = straggler_factor
        self.work_noise = work_noise

    # ------------------------------------------------------------------
    def execute(
        self,
        graph: StageGraph,
        tokens: int,
        rng: np.random.Generator | None = None,
    ) -> ExecutionResult:
        """Run ``graph`` with ``tokens`` guaranteed tokens.

        Raises
        ------
        ExecutionError
            If the token count is not a positive integer.
        """
        try:
            tokens = operator.index(tokens)
        except TypeError:
            raise ExecutionError(
                f"token allocation must be an integer, got {tokens!r}"
            ) from None
        if tokens < 1:
            raise ExecutionError("token allocation must be at least 1")
        noisy = (
            self.noise_scale > 0
            or self.straggler_rate > 0
            or self.work_noise > 0
        )
        if noisy and rng is None:
            raise ExecutionError("an rng is required when noise is enabled")
        with trace.span(
            "scope.execute_job", job=graph.job_id, tokens=tokens
        ) as span:
            result = self._execute(graph, tokens, rng)
            span.set("makespan_s", round(result.makespan, 3))
            span.set("stages", len(graph.stages))
        return result

    def _execute(
        self,
        graph: StageGraph,
        tokens: int,
        rng: np.random.Generator | None,
    ) -> ExecutionResult:
        if not graph.stages:
            raise ExecutionError(f"job {graph.job_id} has no runnable tasks")
        durations = self._draw_durations(graph, rng)

        position = {sid: i for i, sid in enumerate(graph.stages)}
        pending_deps = {
            sid: len(stage.dependencies) for sid, stage in graph.stages.items()
        }
        dependents: dict[int, list[int]] = {sid: [] for sid in graph.stages}
        for sid, stage in graph.stages.items():
            for dep in stage.dependencies:
                dependents[dep].append(sid)

        # Ready stages keyed (ready time, start sequence of the task whose
        # completion made the stage ready, position in graph.stages): the
        # order in which a FIFO queue fed by task completions would hold
        # them. Sources come first, in topological order.
        ready: list[tuple[float, int, int, int]] = [
            (0.0, -1, rank, sid)
            for rank, sid in enumerate(graph.topological_order())
            if pending_deps[sid] == 0
        ]
        # Latest (finish time, start sequence) over the finished
        # dependencies of each not-yet-ready stage.
        trigger: dict[int, tuple[float, int]] = {}
        # Free times of the tokens; more tokens than tasks never help.
        total_tasks = sum(stage.num_tasks for stage in graph.stages.values())
        free = [0.0] * min(tokens, total_tasks)
        heapreplace = heapq.heapreplace
        starts: list[float] = []
        ends: list[float] = []
        start_task = starts.append
        end_task = ends.append
        stage_finish: dict[int, float] = {}
        stage_start: dict[int, float] = {}

        while ready:
            ready_time, _trigger, _position, sid = heapq.heappop(ready)
            first = len(ends)
            for duration in durations[sid].tolist():
                free_at = free[0]
                start = free_at if free_at > ready_time else ready_time
                end = start + duration
                heapreplace(free, end)
                start_task(start)
                end_task(end)
            stage_ends = ends[first:]
            finish = max(stage_ends)
            stage_start[sid] = starts[first]
            stage_finish[sid] = finish
            # The stage's last completion: its latest-finishing task, the
            # later-started one on a tie.
            done = (finish, len(ends) - 1 - stage_ends[::-1].index(finish))
            for dependent in dependents[sid]:
                trigger[dependent] = max(trigger.get(dependent, done), done)
                pending_deps[dependent] -= 1
                if pending_deps[dependent] == 0:
                    ready_at, by = trigger.pop(dependent)
                    heapq.heappush(
                        ready, (ready_at, by, position[dependent], dependent)
                    )

        makespan = max(stage_finish.values())
        if trace.enabled:
            # Per-stage spans live on the simulated-time track (the
            # executor's clock is virtual seconds, not wall time), and
            # task/stage totals go to the process-wide registry.
            for sid, finish in stage_finish.items():
                trace.record_span(
                    "scope.stage",
                    stage_start[sid],
                    finish,
                    virtual=True,
                    job=graph.job_id,
                    stage=sid,
                    tasks=graph.stages[sid].num_tasks,
                )
            registry = get_registry()
            registry.counter("scope_jobs_executed").increment()
            registry.counter("scope_events_processed").increment(len(ends))
            registry.counter("scope_stages_completed").increment(
                len(stage_finish)
            )
        return ExecutionResult(
            job_id=graph.job_id,
            tokens=tokens,
            makespan=makespan,
            stage_finish_times=stage_finish,
            task_starts=starts,
            task_ends=ends,
        )

    # ------------------------------------------------------------------
    def _draw_durations(
        self, graph: StageGraph, rng: np.random.Generator | None
    ) -> dict[int, np.ndarray]:
        """Per-task durations for every stage (with jitter/stragglers)."""
        durations: dict[int, np.ndarray] = {}
        execution_factor = 1.0
        if self.work_noise > 0:
            assert rng is not None
            execution_factor = float(rng.lognormal(0.0, self.work_noise))
        for sid, stage in graph.stages.items():
            nominal = stage.task_duration(self.cost_model)
            values = np.full(stage.num_tasks, nominal)
            if self.noise_scale > 0:
                assert rng is not None
                values = values * rng.lognormal(
                    0.0, self.noise_scale, stage.num_tasks
                )
            if self.straggler_rate > 0:
                assert rng is not None
                stragglers = rng.random(stage.num_tasks) < self.straggler_rate
                values = np.where(
                    stragglers, values * self.straggler_factor, values
                )
            durations[sid] = values * execution_factor
        return durations


def _intervals_to_skyline(
    starts: np.ndarray, ends: np.ndarray, makespan: float
) -> Skyline:
    """Exact average token usage per one-second bin.

    The number of running tasks is a step function changing only at task
    starts/ends; integrating it over each second gives the (possibly
    fractional) average usage, which is the discretized skyline.
    """
    duration = max(1, int(np.ceil(makespan - 1e-9)))
    events = np.concatenate([starts, ends])
    deltas = np.concatenate(
        [np.ones_like(starts), -np.ones_like(ends)]
    )
    order = np.argsort(events, kind="stable")
    times = events[order]
    counts = np.cumsum(deltas[order])

    # Piecewise-constant usage: level counts[i] on [times[i], times[i+1]).
    boundaries = np.concatenate([[0.0], times, [float(duration)]])
    levels = np.concatenate([[0.0], counts])
    widths = np.diff(boundaries)
    # Cumulative integral of usage at each boundary.
    integral = np.concatenate([[0.0], np.cumsum(levels * widths)])

    # Integral evaluated at whole seconds via interpolation on the
    # cumulative curve (piecewise linear in between boundaries).
    seconds = np.arange(duration + 1, dtype=np.float64)
    cumulative = np.interp(seconds, boundaries, integral)
    usage = np.diff(cumulative)
    usage = np.clip(usage, 0.0, None)
    return Skyline(usage)
