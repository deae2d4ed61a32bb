"""Unit tests for the simulated cluster executor."""

import hashlib
import heapq
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutionError
from repro.scope import (
    ClusterExecutor,
    CostModel,
    OperatorNode,
    QueryPlan,
    Stage,
    StageGraph,
    WorkloadGenerator,
    decompose_stages,
)
from repro.scope.execution import _intervals_to_skyline

#: The executor settings the program runs: noise-free, then the noisy
#: ones of ``run_workload``, the replay engine and the flight harness.
EXECUTOR_SETTINGS = {
    "noise_free": {},
    "run_workload": dict(noise_scale=0.08, straggler_rate=0.02),
    "replay": dict(noise_scale=0.08, straggler_rate=0.02, work_noise=0.10),
    "flighting": dict(
        noise_scale=0.06,
        straggler_rate=0.01,
        straggler_factor=1.8,
        work_noise=0.08,
    ),
}

#: Cost models without a per-work term: every task lasts 0 s or 1 s, so
#: completions tie and only the scheduler's tie-breaks order the stages.
TIED_COST_MODELS = (CostModel(0.0, 0.0), CostModel(0.0, 1.0))


def _reference_execute(executor, graph, tokens, rng=None):
    """The executor's model as a per-task event loop: a heap of task
    completions drives a FIFO queue of ready stages.

    The reference ``ClusterExecutor`` must match bit for bit.
    """
    durations = executor._draw_durations(graph, rng)

    pending_deps = {
        sid: len(stage.dependencies) for sid, stage in graph.stages.items()
    }
    dependents: dict[int, list[int]] = {sid: [] for sid in graph.stages}
    for sid, stage in graph.stages.items():
        for dep in stage.dependencies:
            dependents[dep].append(sid)

    remaining_tasks = {
        sid: stage.num_tasks for sid, stage in graph.stages.items()
    }
    next_task_index = {sid: 0 for sid in graph.stages}

    # FIFO queue of ready stages, in topological order for determinism.
    ready: deque[int] = deque(
        sid for sid in graph.topological_order() if pending_deps[sid] == 0
    )

    free_tokens = tokens
    clock = 0.0
    # (finish_time, sequence, stage_id) — sequence breaks ties stably.
    running: list[tuple[float, int, int]] = []
    sequence = 0
    intervals_start: list[float] = []
    intervals_end: list[float] = []
    stage_finish: dict[int, float] = {}
    stage_start: dict[int, float] = {}

    def start_tasks() -> None:
        nonlocal free_tokens, sequence
        while free_tokens > 0 and ready:
            sid = ready[0]
            index = next_task_index[sid]
            duration = durations[sid][index]
            if index == 0:
                stage_start[sid] = clock
            next_task_index[sid] += 1
            if next_task_index[sid] == graph.stages[sid].num_tasks:
                ready.popleft()
            heapq.heappush(running, (clock + duration, sequence, sid))
            sequence += 1
            intervals_start.append(clock)
            intervals_end.append(clock + duration)
            free_tokens -= 1

    start_tasks()
    if not running:
        raise ExecutionError(f"job {graph.job_id} has no runnable tasks")

    while running:
        finish_time, _seq, sid = heapq.heappop(running)
        clock = finish_time
        free_tokens += 1
        remaining_tasks[sid] -= 1
        if remaining_tasks[sid] == 0:
            stage_finish[sid] = clock
            for dependent in dependents[sid]:
                pending_deps[dependent] -= 1
                if pending_deps[dependent] == 0:
                    ready.append(dependent)
        start_tasks()

    makespan = clock
    skyline = _intervals_to_skyline(
        np.asarray(intervals_start), np.asarray(intervals_end), makespan
    )
    return makespan, skyline, stage_finish


def _assert_matches_reference(executor, graph, tokens, seed):
    result = executor.execute(graph, tokens, rng=np.random.default_rng(seed))
    makespan, skyline, stage_finish = _reference_execute(
        executor, graph, tokens, rng=np.random.default_rng(seed)
    )
    assert result.makespan == makespan
    assert result.skyline.usage.tobytes() == skyline.usage.tobytes()
    assert result.stage_finish_times == stage_finish


def _graph(*stages, job_id="hand"):
    """A stage graph whose ``graph.stages`` order is the argument order.

    Each stage is ``(stage_id, num_tasks, dependencies)``.
    """
    graph = StageGraph(job_id=job_id)
    for sid, num_tasks, deps in stages:
        graph.stages[sid] = Stage(
            stage_id=sid,
            operator_ids=(sid,),
            num_tasks=num_tasks,
            work=1000.0,
            dependencies=tuple(deps),
        )
    return graph


def _simple_graph(partitions=8, cost=1000.0):
    nodes = {
        0: OperatorNode(op_id=0, kind="Extract", cost_exclusive=cost,
                        true_cost=cost, num_partitions=partitions),
        1: OperatorNode(op_id=1, kind="Output", children=(0,),
                        cost_exclusive=cost / 10, true_cost=cost / 10,
                        num_partitions=partitions),
    }
    return decompose_stages(QueryPlan(job_id="simple", nodes=nodes))


class TestExecutor:
    def test_rejects_zero_tokens(self):
        for tokens in (0, 2.5, 1.2, float("nan")):
            with pytest.raises(ExecutionError):
                ClusterExecutor().execute(_simple_graph(), tokens)

    def test_noise_requires_rng(self):
        executor = ClusterExecutor(noise_scale=0.1)
        with pytest.raises(ExecutionError):
            executor.execute(_simple_graph(), 4)

    def test_deterministic_without_noise(self):
        executor = ClusterExecutor()
        first = executor.execute(_simple_graph(), 4)
        second = executor.execute(_simple_graph(), 4)
        assert first.skyline == second.skyline

    def test_usage_never_exceeds_allocation(self):
        executor = ClusterExecutor()
        result = executor.execute(_simple_graph(partitions=32), 5)
        assert result.skyline.peak <= 5.0 + 1e-9

    def test_more_tokens_never_slower(self):
        executor = ClusterExecutor()
        graph = _simple_graph(partitions=32, cost=50_000.0)
        runtimes = [executor.execute(graph, t).makespan for t in (2, 4, 8, 16, 32)]
        assert all(a >= b - 1e-9 for a, b in zip(runtimes, runtimes[1:]))

    def test_amdahl_floor(self):
        """Beyond the parallelism limit, extra tokens stop helping."""
        executor = ClusterExecutor()
        graph = _simple_graph(partitions=8)
        at_parallelism = executor.execute(graph, 8).makespan
        beyond = executor.execute(graph, 64).makespan
        assert beyond == pytest.approx(at_parallelism)

    def test_all_stages_finish(self):
        executor = ClusterExecutor()
        graph = _simple_graph()
        result = executor.execute(graph, 4)
        assert set(result.stage_finish_times) == set(graph.stages)
        assert result.makespan == pytest.approx(
            max(result.stage_finish_times.values())
        )

    def test_work_is_conserved(self):
        """Skyline area equals the total task-seconds of the job."""
        executor = ClusterExecutor(cost_model=CostModel(
            seconds_per_cost_unit=1e-3, startup_seconds=1.0))
        graph = _simple_graph(partitions=4, cost=10_000.0)
        result = executor.execute(graph, 2)
        expected = sum(
            s.num_tasks * s.task_duration(executor.cost_model)
            for s in graph.stages.values()
        )
        assert result.skyline.area == pytest.approx(expected, rel=1e-6)

    def test_noise_changes_replicas(self):
        executor = ClusterExecutor(noise_scale=0.2)
        graph = _simple_graph()
        a = executor.execute(graph, 4, rng=np.random.default_rng(1))
        b = executor.execute(graph, 4, rng=np.random.default_rng(2))
        assert a.skyline != b.skyline

    def test_straggler_lengthens_runtime(self):
        graph = _simple_graph(partitions=16, cost=50_000.0)
        clean = ClusterExecutor().execute(graph, 16).makespan
        noisy = ClusterExecutor(
            straggler_rate=0.5, straggler_factor=4.0
        ).execute(graph, 16, rng=np.random.default_rng(0)).makespan
        assert noisy > clean

    def test_invalid_config(self):
        with pytest.raises(ExecutionError):
            ClusterExecutor(noise_scale=-1)
        with pytest.raises(ExecutionError):
            ClusterExecutor(straggler_rate=1.5)
        with pytest.raises(ExecutionError):
            ClusterExecutor(straggler_factor=0.5)


class TestIntervalsToSkyline:
    def test_single_task(self):
        sky = _intervals_to_skyline(
            np.array([0.0]), np.array([3.0]), makespan=3.0
        )
        assert list(sky.usage) == [1, 1, 1]

    def test_fractional_coverage(self):
        sky = _intervals_to_skyline(
            np.array([0.5]), np.array([1.5]), makespan=1.5
        )
        assert sky.usage[0] == pytest.approx(0.5)
        assert sky.usage[1] == pytest.approx(0.5)

    def test_overlapping_tasks(self):
        sky = _intervals_to_skyline(
            np.array([0.0, 0.0, 1.0]),
            np.array([2.0, 1.0, 2.0]),
            makespan=2.0,
        )
        assert list(sky.usage) == [2, 2]

    def test_area_equals_total_duration(self):
        rng = np.random.default_rng(3)
        starts = rng.uniform(0, 50, 200)
        ends = starts + rng.uniform(0.1, 10, 200)
        sky = _intervals_to_skyline(starts, ends, makespan=float(ends.max()))
        assert sky.area == pytest.approx((ends - starts).sum(), rel=1e-9)


@st.composite
def stage_graphs(draw):
    """Hand-built DAGs: ids out of topological order, shuffled insertion
    into ``graph.stages``, shared dependents, 1-40 tasks a stage."""
    n = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.permutations(range(n)))
    stages = []
    for k in range(n):
        deps = draw(
            st.sets(st.sampled_from(range(k)), max_size=3)
            if k
            else st.just(set())
        )
        stages.append(
            Stage(
                stage_id=ids[k],
                operator_ids=(k,),
                num_tasks=draw(st.integers(min_value=1, max_value=40)),
                # Few distinct works, so noise-free durations tie too.
                work=draw(st.sampled_from((0.0, 2_000.0, 10_000.0))),
                dependencies=tuple(sorted(ids[d] for d in deps)),
            )
        )
    graph = StageGraph(job_id="drawn")
    for k in draw(st.permutations(range(n))):
        graph.stages[stages[k].stage_id] = stages[k]
    return graph


class TestMatchesEventLoop:
    """The stage-at-a-time scheduler equals the per-task event loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        graph=stage_graphs(),
        tokens=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical_to_event_loop(self, graph, tokens, seed):
        executors = [
            ClusterExecutor(**kwargs) for kwargs in EXECUTOR_SETTINGS.values()
        ] + [ClusterExecutor(cost_model=cost) for cost in TIED_COST_MODELS]
        for executor in executors:
            _assert_matches_reference(executor, graph, tokens, seed)

    def test_trigger_sequence_breaks_ready_ties(self):
        """Stages 2 and 3 become ready at t=1 by different completions;
        stage 3's trigger (stage 0's task) started first, so stage 3
        queues first although stage 2 comes first in ``graph.stages``."""
        graph = _graph((0, 1, ()), (1, 1, ()), (2, 3, (1,)), (3, 1, (0,)))
        executor = ClusterExecutor(cost_model=CostModel(0.0, 1.0))
        result = executor.execute(graph, 2)
        assert result.stage_finish_times == {0: 1.0, 1: 1.0, 2: 3.0, 3: 2.0}
        _assert_matches_reference(executor, graph, 2, seed=0)

    def test_sources_follow_topological_order(self):
        """Sources queue in ``topological_order()`` (ascending id), not in
        ``graph.stages`` order."""
        graph = _graph((1, 2, ()), (0, 1, ()))
        executor = ClusterExecutor(cost_model=CostModel(0.0, 1.0))
        result = executor.execute(graph, 1)
        assert result.stage_finish_times == {0: 1.0, 1: 3.0}
        _assert_matches_reference(executor, graph, 1, seed=0)

    def test_more_tokens_than_tasks(self):
        graph = _graph((0, 3, ()), (1, 2, (0,)))
        executor = ClusterExecutor(cost_model=CostModel(0.0, 1.0))
        result = executor.execute(graph, 10**9)
        assert result.makespan == 2.0
        assert result.skyline.peak == 3.0

    def test_empty_graph_raises(self):
        with pytest.raises(ExecutionError, match="no runnable tasks"):
            ClusterExecutor().execute(StageGraph(job_id="empty"), 4)


class TestLazySkyline:
    """``ExecutionResult`` integrates its skyline on first read only."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=stage_graphs(),
        tokens=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_eager_integration(self, graph, tokens, seed):
        executor = ClusterExecutor(**EXECUTOR_SETTINGS["replay"])
        result = executor.execute(graph, tokens, rng=np.random.default_rng(seed))
        assert "skyline" not in vars(result)
        eager = _intervals_to_skyline(
            np.asarray(result.task_starts),
            np.asarray(result.task_ends),
            result.makespan,
        )
        assert result.skyline.usage.tobytes() == eager.usage.tobytes()
        assert result.skyline is result.skyline


#: sha256 over every (job, setting, tokens) execution's ``makespan.hex()``,
#: skyline bytes and stage finish times sorted by stage id, computed with
#: the per-task event loop. Catches a change that moves the scheduler and
#: ``_reference_execute`` together.
EXECUTION_PIN = (
    "2bbcae212b1b23759fc0639e8092f3ac4111f0ecc951b6853d398681e1eda47c"
)


class TestExecutionPin:
    def test_generated_jobs_match_pinned_hash(self):
        jobs = WorkloadGenerator(seed=2022).generate(8)
        digest = hashlib.sha256()
        for index, job in enumerate(jobs):
            graph = decompose_stages(job.plan)
            for name in sorted(EXECUTOR_SETTINGS):
                executor = ClusterExecutor(**EXECUTOR_SETTINGS[name])
                for tokens in (1, 3, 16, 64):
                    result = executor.execute(
                        graph, tokens, rng=np.random.default_rng([index, tokens])
                    )
                    digest.update(result.makespan.hex().encode())
                    digest.update(result.skyline.usage.tobytes())
                    finish = result.stage_finish_times
                    for sid in sorted(finish):
                        digest.update(f"{sid}:{finish[sid].hex()}".encode())
        assert digest.hexdigest() == EXECUTION_PIN
