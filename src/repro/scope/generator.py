"""Synthetic SCOPE-like workload generator.

The paper trains on 85K production SCOPE jobs whose statistics are heavily
right-skewed: run times from 33 seconds to 21 hours (median ~3 minutes),
peak token usage from 1 to 6,287 (median 54). Those traces are proprietary,
so this module generates a synthetic population with the same qualitative
properties:

* jobs are operator DAGs drawn from a TPC-H-flavoured grammar (scan ->
  filter/project chains -> join tree -> aggregates -> sort/top -> output),
* leaf input sizes and plan shapes are lognormally skewed, producing
  right-skewed run-time and token distributions,
* a configurable share of jobs is *recurring*: instances of a shared
  template that differ only in input size (day-to-day data drift), the
  rest are *ad-hoc* one-off plans — matching the 40-60% ad-hoc rate the
  paper reports,
* compile-time estimates (Table 1 features) are noisy versions of the true
  costs the executor runs on, so learned models face realistic estimation
  error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.exceptions import PlanError
from repro.obs import get_registry, trace
from repro.parallel import pmap
from repro.scope.operators import PartitioningMethod
from repro.scope.plan import OperatorNode, QueryPlan

__all__ = [
    "WorkloadConfig",
    "JobInstance",
    "WorkloadGenerator",
    "WORKLOAD_FAMILIES",
    "FAMILY_NAMES",
    "make_family_config",
]


_JOIN_KINDS = (
    "HashJoin",
    "MergeJoin",
    "BroadcastJoin",
    "SemiJoin",
    "NestedLoopJoin",
    "AntiSemiJoin",
    "UnionAll",
)
_JOIN_WEIGHTS = (0.35, 0.2, 0.15, 0.1, 0.05, 0.05, 0.1)
_SOURCE_KINDS = ("Extract", "TableScan", "IndexScan", "ExternalRead")
_SOURCE_WEIGHTS = (0.45, 0.3, 0.15, 0.1)
_CHAIN_KINDS = ("Filter", "RangeFilter", "Project", "ComputeScalar", "ProcessUDO")
_CHAIN_WEIGHTS = (0.35, 0.15, 0.25, 0.15, 0.1)
_POST_KINDS = (
    "HashAggregate",
    "StreamAggregate",
    "LocalHashAggregate",
    "WindowFunction",
    "ReduceUDO",
    "Sort",
    "TopSort",
    "Top",
)
_POST_WEIGHTS = (0.25, 0.1, 0.1, 0.1, 0.1, 0.15, 0.1, 0.1)
_EXCHANGE_KINDS = ("PartitionExchange", "FullMergeExchange", "BroadcastExchange")
_EXCHANGE_WEIGHTS = (0.7, 0.2, 0.1)
_EXCHANGE_METHODS = {
    "PartitionExchange": PartitioningMethod.HASH,
    "FullMergeExchange": PartitioningMethod.RANGE,
    "BroadcastExchange": PartitioningMethod.BROADCAST,
}
#: How far from 1 a weight vector may sum: the tolerance
#: ``Generator.choice`` applies to its ``p`` argument.
_WEIGHT_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class WorkloadConfig:
    """Tunable knobs of the workload population.

    The defaults are calibrated so that, with the default
    :class:`~repro.scope.stages.CostModel`, executing each job at its
    requested tokens yields run-time and peak-token distributions shaped
    like the paper's (right-skewed, median run time of a few minutes,
    median peak tokens a few dozen).

    Every structural distribution the template sampler draws from is a
    config field, so a workload *family* (streaming micro-batches, ML
    training pipelines, heavy-skew ETL, ...) is just a different
    configuration — see :data:`WORKLOAD_FAMILIES`.
    """

    #: Family label this configuration belongs to (informational).
    family: str = "tpch"
    #: Fraction of jobs instantiated from recurring templates.
    recurring_fraction: float = 0.55
    #: Number of distinct recurring templates in the population.
    num_templates: int = 40
    #: Lognormal parameters of leaf input cardinality (rows).
    leaf_rows_log_mean: float = 14.3  # median ~1.6M rows
    leaf_rows_log_sigma: float = 1.9
    #: Day-to-day input-size drift of recurring jobs (lognormal sigma).
    recurring_drift_sigma: float = 0.35
    #: Lognormal sigma of compile-time cost estimation error.
    estimation_error_sigma: float = 0.35
    #: Rows handled per partition when choosing operator parallelism.
    rows_per_partition: float = 60_000.0
    #: Cap on any operator's partition count.
    max_partitions: int = 6_400
    #: Token counts users typically request (cluster defaults).
    default_token_choices: tuple[int, ...] = (
        25, 50, 100, 150, 200, 300, 600, 1500, 4000,
    )
    default_token_weights: tuple[float, ...] = (
        0.08, 0.20, 0.30, 0.15, 0.12, 0.08, 0.04, 0.02, 0.01,
    )
    #: Distribution of join-tree width (sampled uniformly, so repeats
    #: act as weights — matching the historical hard-coded choice list).
    num_inputs_choices: tuple[int, ...] = (1, 2, 2, 3, 3, 4, 5)
    #: Half-open range of per-input unary chain lengths.
    chain_length_range: tuple[int, int] = (0, 4)
    #: Half-open range of the post-processing block length.
    post_ops_range: tuple[int, int] = (1, 4)
    #: Operator-kind mixes (aligned with the module's kind catalogs).
    join_kind_weights: tuple[float, ...] = _JOIN_WEIGHTS
    source_kind_weights: tuple[float, ...] = _SOURCE_WEIGHTS
    chain_kind_weights: tuple[float, ...] = _CHAIN_WEIGHTS
    post_kind_weights: tuple[float, ...] = _POST_WEIGHTS

    def __post_init__(self) -> None:
        if not 0 <= self.recurring_fraction <= 1:
            raise PlanError("recurring_fraction must be in [0, 1]")
        if self.num_templates < 1:
            raise PlanError("need at least one template")
        if len(self.default_token_choices) != len(self.default_token_weights):
            raise PlanError("token choices and weights must align")
        _check_weights(self.default_token_weights, "default_token_weights")
        if not self.num_inputs_choices or min(self.num_inputs_choices) < 1:
            raise PlanError("num_inputs_choices must be positive")
        for low, high, label in (
            (*self.chain_length_range, "chain_length_range"),
            (*self.post_ops_range, "post_ops_range"),
        ):
            if low < 0 or high <= low:
                raise PlanError(f"{label} must be a non-empty range")
        for weights, kinds, label in (
            (self.join_kind_weights, _JOIN_KINDS, "join"),
            (self.source_kind_weights, _SOURCE_KINDS, "source"),
            (self.chain_kind_weights, _CHAIN_KINDS, "chain"),
            (self.post_kind_weights, _POST_KINDS, "post"),
        ):
            if len(weights) != len(kinds):
                raise PlanError(
                    f"{label}_kind_weights must align with the "
                    f"{len(kinds)} {label} kinds"
                )
            _check_weights(weights, f"{label}_kind_weights")


def _check_weights(weights: Sequence[float], label: str) -> None:
    """Reject what ``Generator.choice`` would reject as ``p``."""
    if any(not weight >= 0 for weight in weights):
        raise PlanError(f"{label} must be non-negative")
    if not abs(math.fsum(weights) - 1.0) <= _WEIGHT_SUM_TOLERANCE:
        raise PlanError(
            f"{label} must sum to 1 within {_WEIGHT_SUM_TOLERANCE:.1e}"
        )


class _WeightedDraw:
    """``Generator.choice(items, p=weights)`` for one item, bit for bit.

    For ``size=None`` numpy computes ``cdf = p.cumsum(); cdf /= cdf[-1]``
    on every call, draws one ``random()`` and returns
    ``items[cdf.searchsorted(u, side="right")]``. This builds the same
    CDF once, and ``bisect_right`` over its list is the same search, so
    every draw returns the same item and leaves the stream in the same
    state, without numpy's per-call argument handling.
    """

    __slots__ = ("items", "cdf")

    def __init__(self, items: Sequence, weights: Sequence[float]) -> None:
        cdf = np.asarray(weights, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self.items = tuple(items)
        self.cdf = cdf.tolist()

    def __call__(self, rng: np.random.Generator):
        return self.items[bisect_right(self.cdf, rng.random())]


@dataclass(frozen=True)
class _Draws:
    """Every weighted draw of one configuration, CDFs built once."""

    source: _WeightedDraw
    exchange: _WeightedDraw
    join: _WeightedDraw
    chain: _WeightedDraw
    post: _WeightedDraw
    tokens: _WeightedDraw

    @classmethod
    def for_config(cls, cfg: WorkloadConfig) -> _Draws:
        return cls(
            source=_WeightedDraw(_SOURCE_KINDS, cfg.source_kind_weights),
            exchange=_WeightedDraw(_EXCHANGE_KINDS, _EXCHANGE_WEIGHTS),
            join=_WeightedDraw(_JOIN_KINDS, cfg.join_kind_weights),
            chain=_WeightedDraw(_CHAIN_KINDS, cfg.chain_kind_weights),
            post=_WeightedDraw(_POST_KINDS, cfg.post_kind_weights),
            tokens=_WeightedDraw(
                cfg.default_token_choices, cfg.default_token_weights
            ),
        )


@dataclass
class JobInstance:
    """A generated job: its plan plus submission metadata."""

    plan: QueryPlan
    requested_tokens: int
    submit_day: int
    recurring: bool

    @property
    def job_id(self) -> str:
        return self.plan.job_id


@dataclass
class _TemplateSpec:
    """Frozen random choices defining a recurring template."""

    template_id: str
    num_inputs: int
    base_leaf_rows: tuple[float, ...]
    join_kinds: tuple[str, ...]
    chain_plan: tuple[tuple[str, ...], ...]  # unary chain per input
    post_ops: tuple[str, ...]
    structure_seed: int = 0
    requested_tokens: int = 100


def _streaming_config() -> WorkloadConfig:
    """Streaming / micro-batch jobs: tiny recurring DAGs, shallow plans.

    Models the user-facing job class of the Tracie replay generator:
    almost everything is an instance of a small recurring pipeline over
    a fresh micro-batch of input, with modest parallelism requests.
    """
    return WorkloadConfig(
        family="streaming",
        recurring_fraction=0.92,
        num_templates=12,
        leaf_rows_log_mean=11.0,  # median ~60K rows per micro-batch
        leaf_rows_log_sigma=0.9,
        recurring_drift_sigma=0.20,
        rows_per_partition=30_000.0,
        default_token_choices=(10, 25, 50, 100),
        default_token_weights=(0.35, 0.40, 0.20, 0.05),
        num_inputs_choices=(1, 1, 1, 2),
        chain_length_range=(1, 4),
        post_ops_range=(1, 3),
        # Aggregation-ending pipelines; almost no sorts.
        post_kind_weights=(0.35, 0.2, 0.15, 0.1, 0.05, 0.05, 0.05, 0.05),
    )


def _ml_training_config() -> WorkloadConfig:
    """ML-training pipelines: deep UDO-heavy chains, few joins.

    Long featurize/transform chains (ProcessUDO-dominated) feeding
    reduce/aggregate steps, with large token requests — the batch job
    class whose run time is compute- rather than shuffle-bound.
    """
    return WorkloadConfig(
        family="ml_training",
        recurring_fraction=0.70,
        num_templates=8,
        leaf_rows_log_mean=13.5,
        leaf_rows_log_sigma=1.2,
        recurring_drift_sigma=0.30,
        default_token_choices=(100, 200, 300, 600, 1500),
        default_token_weights=(0.25, 0.30, 0.25, 0.15, 0.05),
        num_inputs_choices=(1, 1, 2),
        chain_length_range=(4, 9),
        post_ops_range=(2, 5),
        # Chains dominated by UDO/compute steps ...
        chain_kind_weights=(0.1, 0.05, 0.15, 0.25, 0.45),
        # ... closing with reduce/window aggregation rather than sorts.
        post_kind_weights=(0.15, 0.05, 0.1, 0.2, 0.35, 0.05, 0.05, 0.05),
    )


def _etl_skew_config() -> WorkloadConfig:
    """Heavy-skew ETL: wide ad-hoc join fan-ins over skewed inputs.

    Leaf cardinalities span many orders of magnitude (hot partitions
    next to near-empty ones), producing the ragged skylines and
    straggler-prone stages the runtime-variation study stress-tests.
    """
    return WorkloadConfig(
        family="etl_skew",
        recurring_fraction=0.35,
        num_templates=20,
        leaf_rows_log_mean=15.0,
        leaf_rows_log_sigma=2.7,
        recurring_drift_sigma=0.55,
        estimation_error_sigma=0.5,
        num_inputs_choices=(2, 3, 3, 4, 5, 6),
        chain_length_range=(0, 3),
        post_ops_range=(1, 4),
        # Aggregate/sort-heavy tails after the join tree.
        post_kind_weights=(0.3, 0.1, 0.15, 0.05, 0.05, 0.2, 0.1, 0.05),
    )


#: Declarative workload families: scenario coverage as configuration.
WORKLOAD_FAMILIES = {
    "tpch": WorkloadConfig,
    "streaming": _streaming_config,
    "ml_training": _ml_training_config,
    "etl_skew": _etl_skew_config,
}

FAMILY_NAMES = tuple(sorted(WORKLOAD_FAMILIES))


def make_family_config(family: str) -> WorkloadConfig:
    """The :class:`WorkloadConfig` preset for a named workload family."""
    try:
        factory = WORKLOAD_FAMILIES[family]
    except KeyError:
        raise PlanError(
            f"unknown workload family {family!r}; "
            f"known: {', '.join(FAMILY_NAMES)}"
        ) from None
    return factory()


class WorkloadGenerator:
    """Seeded generator of :class:`JobInstance` populations.

    Determinism model: the shared template pool is drawn once at
    construction from the root seed, and every *job* derives its own RNG
    stream from ``SeedSequence((seed, job_index))`` where ``job_index``
    is the job's absolute position in this generator's lifetime. Job
    streams therefore depend only on the seed and the index — not on how
    jobs are batched across :meth:`generate` calls or worker processes —
    so ``generate(n, workers=8)`` is bit-identical to ``workers=1``.
    """

    def __init__(self, config: WorkloadConfig | None = None, seed: int = 0) -> None:
        self.config = config or WorkloadConfig()
        self._seed = seed
        self._draws = _Draws.for_config(self.config)
        self._rng = np.random.default_rng(seed)
        self._templates = [
            self._draw_template(f"T{i:03d}")
            for i in range(self.config.num_templates)
        ]
        self._job_counter = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(
        self, num_jobs: int, start_day: int = 0, workers: int = 1
    ) -> list[JobInstance]:
        """Generate a workload of ``num_jobs`` jobs.

        Jobs are spread uniformly over submission days starting at
        ``start_day`` (one "day" per ~1000 jobs, so small workloads land on
        a single day). ``workers > 1`` synthesises jobs across a process
        pool with identical output (see the class docstring).
        """
        if num_jobs < 1:
            raise PlanError("num_jobs must be positive")
        with trace.span("scope.generate_workload", jobs=num_jobs):
            base = self._job_counter
            num_days = max(1, num_jobs // 1000)
            tasks = [
                (base + i, start_day + (i * num_days) // num_jobs)
                for i in range(num_jobs)
            ]
            jobs = pmap(
                partial(_generate_indexed, generator=self),
                tasks,
                workers=workers,
            )
            self._job_counter = base + num_jobs
            if trace.enabled:
                get_registry().counter("scope_jobs_generated").increment(
                    num_jobs
                )
        return jobs

    def generate_job(self, submit_day: int = 0) -> JobInstance:
        """Generate a single job (recurring with configured probability)."""
        job = self._job_at_index(self._job_counter, submit_day)
        self._job_counter += 1
        return job

    def _job_at_index(self, index: int, submit_day: int) -> JobInstance:
        """The job at absolute position ``index`` — a pure function of
        ``(seed, index)``, so it may run in any process in any order."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self._seed, index))
        )
        recurring = rng.random() < self.config.recurring_fraction
        if recurring:
            template = self._templates[
                int(rng.integers(len(self._templates)))
            ]
            return self._instantiate(
                template, submit_day, recurring=True, rng=rng, index=index
            )
        template = self._draw_template(f"A{index:06d}", rng=rng)
        return self._instantiate(
            template, submit_day, recurring=False, rng=rng, index=index
        )

    # ------------------------------------------------------------------
    # template construction
    # ------------------------------------------------------------------
    def _draw_template(
        self, template_id: str, rng: np.random.Generator | None = None
    ) -> _TemplateSpec:
        if rng is None:
            rng = self._rng
        cfg = self.config
        draws = self._draws
        num_inputs = int(rng.choice(list(cfg.num_inputs_choices)))
        base_leaf_rows = tuple(
            float(
                np.exp(
                    rng.normal(cfg.leaf_rows_log_mean, cfg.leaf_rows_log_sigma)
                )
            )
            for _ in range(num_inputs)
        )
        join_kinds = tuple(draws.join(rng) for _ in range(num_inputs - 1))
        chains = []
        for _ in range(num_inputs):
            length = int(rng.integers(*cfg.chain_length_range))
            chains.append(tuple(draws.chain(rng) for _ in range(length)))
        num_post = int(rng.integers(*cfg.post_ops_range))
        post_ops = tuple(draws.post(rng) for _ in range(num_post))
        tokens = int(draws.tokens(rng))
        return _TemplateSpec(
            template_id=template_id,
            num_inputs=num_inputs,
            base_leaf_rows=base_leaf_rows,
            join_kinds=join_kinds,
            chain_plan=tuple(chains),
            post_ops=post_ops,
            structure_seed=int(rng.integers(0, 2**31)),
            requested_tokens=tokens,
        )

    # ------------------------------------------------------------------
    # template instantiation
    # ------------------------------------------------------------------
    def _instantiate(
        self,
        template: _TemplateSpec,
        submit_day: int,
        recurring: bool,
        rng: np.random.Generator,
        index: int,
    ) -> JobInstance:
        cfg = self.config
        job_id = f"job-{self._seed}-{index + 1:06d}"

        # Structural choices (operator variants, selectivities, widths) are
        # frozen per template so recurring instances share one plan shape;
        # only input sizes and estimation noise vary run to run.
        struct_rng = np.random.default_rng(template.structure_seed)
        builder = _PlanBuilder(struct_rng, rng, cfg, self._draws)
        drift = (
            np.exp(rng.normal(0.0, cfg.recurring_drift_sigma))
            if recurring
            else 1.0
        )

        # One source + unary chain per input.
        input_heads = []
        for leaf_rows, chain in zip(template.base_leaf_rows, template.chain_plan):
            rows = max(1.0, leaf_rows * drift)
            node_id = builder.add_source(rows)
            for kind in chain:
                node_id = builder.add_unary(kind, node_id)
            input_heads.append(node_id)

        # Left-deep join tree with exchanges before each join.
        current = input_heads[0]
        for head, join_kind in zip(input_heads[1:], template.join_kinds):
            left = builder.add_exchange(current)
            right = builder.add_exchange(head)
            current = builder.add_binary(join_kind, left, right)

        # Post-processing block (aggregates/sorts/windows).
        for kind in template.post_ops:
            if kind in ("HashAggregate", "StreamAggregate", "Sort", "TopSort"):
                current = builder.add_exchange(current)
            current = builder.add_unary(kind, current)

        current = builder.add_unary("Output", current)

        plan = QueryPlan(
            job_id=job_id,
            nodes=builder.nodes,
            template_id=template.template_id,
        )
        return JobInstance(
            plan=plan,
            requested_tokens=template.requested_tokens,
            submit_day=submit_day,
            recurring=recurring,
        )


def _generate_indexed(
    task: tuple[int, int], generator: WorkloadGenerator
) -> JobInstance:
    """Top-level (hence picklable) pmap task: one ``(index, day)`` job."""
    index, submit_day = task
    return generator._job_at_index(index, submit_day)


class _PlanBuilder:
    """Incrementally builds operator nodes with propagated estimates.

    ``rng`` drives structural choices (frozen per template); ``noise_rng``
    drives per-instance estimation error.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        noise_rng: np.random.Generator,
        config: WorkloadConfig,
        draws: _Draws,
    ) -> None:
        self.rng = rng
        self.noise_rng = noise_rng
        self.config = config
        self.draws = draws
        self.nodes: dict[int, OperatorNode] = {}
        self._next_id = 0

    # -- helpers ---------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _partitions_for(self, rows: float) -> int:
        cfg = self.config
        return min(
            max(math.ceil(rows / cfg.rows_per_partition), 1),
            cfg.max_partitions,
        )

    def _estimation_noise(self) -> float:
        sigma = self.config.estimation_error_sigma
        if sigma <= 0:
            return 1.0
        return float(np.exp(self.noise_rng.normal(0.0, sigma)))

    def _finalize(self, node: OperatorNode) -> int:
        """Derive cost fields and register the node.

        True cost is computed from true input rows; the Table 1 estimate
        fields get multiplicative lognormal noise on top.
        """
        spec = node.spec
        if spec.arity == 0:
            work_rows = node.output_cardinality
            subtree_children = 0.0
        else:
            work_rows = node.children_input_cardinality
            subtree_children = sum(
                self.nodes[c].cost_subtree for c in node.children
            )
        row_factor = max(0.25, node.average_row_length / 100.0)
        true_cost = max(1.0, work_rows * spec.cost_per_row * row_factor)
        noise = self._estimation_noise()
        node.true_cost = true_cost
        node.cost_exclusive = true_cost * noise
        node.cost_subtree = node.cost_exclusive + subtree_children
        # "Total" mirrors SQL-Server-style total operator cost: exclusive
        # CPU plus an IO-ish term proportional to output bytes.
        node.cost_total = node.cost_exclusive + (
            node.output_cardinality * node.average_row_length * 1e-3
        )
        self.nodes[node.op_id] = node
        return node.op_id

    # -- node constructors -------------------------------------------------
    def add_source(self, rows: float) -> int:
        kind = self.draws.source(self.rng)
        row_length = float(np.exp(self.rng.normal(4.6, 0.5)))  # ~100 bytes
        node = OperatorNode(
            op_id=self._new_id(),
            kind=kind,
            children=(),
            output_cardinality=rows,
            leaf_input_cardinality=rows,
            children_input_cardinality=0.0,
            average_row_length=row_length,
            num_partitions=self._partitions_for(rows),
        )
        return self._finalize(node)

    def add_unary(self, kind: str, child_id: int) -> int:
        child = self.nodes[child_id]
        spec_low, spec_high = child.spec.selectivity
        del spec_low, spec_high  # child's range is irrelevant here
        node = OperatorNode(
            op_id=self._new_id(),
            kind=kind,
            children=(child_id,),
            average_row_length=child.average_row_length,
            num_partitions=child.num_partitions,
        )
        low, high = node.spec.selectivity
        selectivity = float(self.rng.uniform(low, high))
        node.children_input_cardinality = child.output_cardinality
        node.leaf_input_cardinality = child.leaf_input_cardinality
        node.output_cardinality = max(1.0, child.output_cardinality * selectivity)
        if kind in ("Sort", "TopSort"):
            node.num_sort_columns = int(self.rng.integers(1, 4))
        if kind == "Project":
            node.average_row_length = child.average_row_length * float(
                self.rng.uniform(0.3, 0.9)
            )
        return self._finalize(node)

    def add_exchange(self, child_id: int) -> int:
        child = self.nodes[child_id]
        kind = self.draws.exchange(self.rng)
        method = _EXCHANGE_METHODS[kind]
        if self.rng.random() < 0.15:
            method = PartitioningMethod.ROUND_ROBIN
        node = OperatorNode(
            op_id=self._new_id(),
            kind=kind,
            children=(child_id,),
            partitioning=method,
            output_cardinality=child.output_cardinality,
            leaf_input_cardinality=child.leaf_input_cardinality,
            children_input_cardinality=child.output_cardinality,
            average_row_length=child.average_row_length,
            num_partitions=self._partitions_for(child.output_cardinality),
            num_partitioning_columns=int(self.rng.integers(1, 4)),
        )
        return self._finalize(node)

    def add_binary(self, kind: str, left_id: int, right_id: int) -> int:
        left = self.nodes[left_id]
        right = self.nodes[right_id]
        node = OperatorNode(
            op_id=self._new_id(),
            kind=kind,
            children=(left_id, right_id),
            average_row_length=(left.average_row_length + right.average_row_length)
            / 2.0,
            num_partitions=max(left.num_partitions, right.num_partitions),
            num_partitioning_columns=int(self.rng.integers(1, 3)),
        )
        low, high = node.spec.selectivity
        selectivity = float(self.rng.uniform(low, high))
        node.children_input_cardinality = (
            left.output_cardinality + right.output_cardinality
        )
        node.leaf_input_cardinality = (
            left.leaf_input_cardinality + right.leaf_input_cardinality
        )
        if kind == "UnionAll":
            node.output_cardinality = node.children_input_cardinality
        else:
            node.output_cardinality = max(
                1.0,
                max(left.output_cardinality, right.output_cardinality)
                * selectivity,
            )
        if kind == "MergeJoin":
            node.num_sort_columns = int(self.rng.integers(1, 3))
        return self._finalize(node)
