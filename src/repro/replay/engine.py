"""Arrival-driven multi-tenant replay with a closed serving loop.

The engine stitches the repo's layers into the loop a production
deployment runs continuously (the outer cycle of the paper's Figure 4):

.. code-block:: text

     seeded arrivals        AllocationServer          FleetScheduler
    (per tenant)  ──job──►  recommend tokens  ──demand──►  admit/grant
         ▲                      │    ▲                        │
         │                      │    │ refresh_model()        ▼
         │               PredictionMonitor ◄──observe──  ClusterExecutor
         │                      │        (actual run time at the grant)
         └── retrain hook ◄─────┘  (optional: refit + hot-swap + reset)

Determinism contract: every random choice (arrival gaps, generated
plans, execution noise) comes from a substream derived from the replay
seed, all virtual-time events are processed in a total order
``(time, tenant, job)``, and the server is driven synchronously — so
one seed yields one bit-identical :class:`~repro.replay.report
.ReplayReport`, independent of host speed or the ``workers`` setting
(workers only parallelize the bootstrap, which is itself bit-identical
by the generator's pure-function-of-(seed, index) design).

The paper's regimes map onto admission like so: ``default`` holds the
user request, ``peak`` is the clairvoyant per-job baseline (exactly the
observed peak), ``tasq`` holds the server's per-job recommendation, and
the fleet policies (``water_filling`` / ``knapsack`` / ``deadline``)
let the global allocator squeeze grants between an SLO floor and the
server's recommendation. Degraded (fallback) answers always admit at a
fixed grant — their flat PCC carries no squeeze information.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ReplayError
from repro.fleet import POLICY_NAMES, FleetJob, FleetScheduler, JobDemand
from repro.fleet.allocator import DeadlineAwarePolicy
from repro.models import build_dataset
from repro.models.xgboost_models import XGBoostPL
from repro.obs import trace
from repro.pcc.intervals import tokens_within_slowdown_at_risk
from repro.pcc.optimal import tokens_for_slowdown
from repro.replay.arrivals import arrival_times
from repro.replay.report import ReplayReport, build_report
from repro.replay.tenants import TenantSpec, default_tenants
from repro.scope.cluster import QueueOutcome
from repro.scope.execution import ClusterExecutor
from repro.scope.generator import (
    JobInstance,
    WorkloadGenerator,
    make_family_config,
)
from repro.scope.repository import JobRepository, TelemetryRecord, run_workload
from repro.scope.stages import decompose_stages
from repro.serving import AllocationServer, PromotionGate, ServerConfig
from repro.serving.server import ResponseStatus, ServeResponse
from repro.tasq import ScoringPipeline
from repro.tasq.model_store import ModelStore
from repro.tasq.monitoring import PredictionMonitor

__all__ = ["REPLAY_POLICIES", "ReplayConfig", "ReplayEngine", "run_replay"]

#: Baseline regimes plus every global-allocator policy.
REPLAY_POLICIES = ("default", "peak", "tasq") + POLICY_NAMES

_MODEL_NAME = "replay-pl"


@dataclass(frozen=True)
class ReplayConfig:
    """Everything that parameterizes one replay run."""

    #: Virtual seconds of arrivals to generate.
    duration_s: float = 900.0
    policy: str = "water_filling"
    seed: int = 0
    #: Shared token pool; None derives the largest single request.
    capacity: int | None = None
    #: Historical jobs executed up-front to train the serving model.
    bootstrap_jobs: int = 120
    #: Fleet-policy SLO: never squeeze a job beyond this predicted
    #: slowdown versus its request.
    slowdown_floor: float = 0.25
    #: Deadline policy: per-job deadline as (1+slack) x predicted run
    #: time at the requested tokens.
    deadline_slack: float = 0.25
    admission: str = "fcfs"
    #: Top up running jobs from idle tokens (fleet policies only).
    reallocate_running: bool = True
    #: Refit + hot-swap the model when the drift monitor fires.
    retrain: bool = False
    #: How a retrained model reaches serving: "immediate" hot-swaps it
    #: on the spot; "shadow" stages it as a champion-challenger and
    #: only the promotion gate's verdict deploys it.
    promotion: str = "immediate"
    #: Risk level for recommendations and deadline floors (None = point
    #: estimates; see ``docs/uncertainty.md``). Enables quantile heads
    #: on the serving model.
    risk: float | None = None
    #: Drift monitor tuning (short replays need a shorter fuse than the
    #: serving default).
    drift_window: int = 60
    drift_threshold: float = 50.0
    drift_patience: int = 10
    drift_min_observations: int = 20
    #: Process-pool size for the bootstrap (bit-identical at any value).
    workers: int = 1
    timeline_bins: int = 24

    def __post_init__(self) -> None:
        if self.policy not in REPLAY_POLICIES:
            raise ReplayError(
                f"unknown replay policy {self.policy!r}; "
                f"known: {', '.join(REPLAY_POLICIES)}"
            )
        if self.duration_s <= 0:
            raise ReplayError("replay duration must be positive")
        if self.bootstrap_jobs < 10:
            raise ReplayError(
                "bootstrapping a model needs at least 10 jobs"
            )
        if self.capacity is not None and self.capacity < 1:
            raise ReplayError("cluster capacity must be positive")
        if not 0 <= self.slowdown_floor:
            raise ReplayError("slowdown floor must be non-negative")
        if self.promotion not in ("immediate", "shadow"):
            raise ReplayError(
                f"unknown promotion mode {self.promotion!r}; "
                "known: immediate, shadow"
            )
        if self.risk is not None and not 0.0 < self.risk < 1.0:
            raise ReplayError("risk must be inside (0, 1)")


@dataclass
class _Arrival:
    """One merged-timeline event: a job arriving for a tenant."""

    time: float
    tenant_index: int
    job: JobInstance
    exec_seed: int
    #: Queue-level id; tenant-prefixed so tenants can never collide.
    ref: str = field(init=False)

    def __post_init__(self) -> None:
        self.ref = f"t{self.tenant_index}/{self.job.job_id}"


class ReplayEngine:
    """Runs one seeded replay; see the module docstring for the loop."""

    def __init__(
        self,
        config: ReplayConfig | None = None,
        tenants: tuple[TenantSpec, ...] | None = None,
    ) -> None:
        self.config = config or ReplayConfig()
        self.tenants = tenants or default_tenants(3)
        if not self.tenants:
            raise ReplayError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ReplayError("tenant names must be unique")
        # Executor shared by bootstrap history and replay executions:
        # per-task jitter, stragglers, and a day-to-day work factor the
        # bootstrap-trained model has never seen at replay scale.
        self.executor = ClusterExecutor(
            noise_scale=0.08, straggler_rate=0.02, work_noise=0.10
        )
        self._retrain_count = 0
        #: Per-tenant outcomes of the last run (benchmark introspection;
        #: deliberately not part of the hashed ReplayReport).
        self.outcomes_by_tenant_: dict[str, list[QueueOutcome]] = {}

    @property
    def _wants_intervals(self) -> bool:
        """Quantile heads are needed for risk floors and shadow gating."""
        return (
            self.config.risk is not None
            or self.config.promotion == "shadow"
        )

    def _fit_model(self, repository: JobRepository, seed: int) -> XGBoostPL:
        return XGBoostPL(
            seed=seed, quantile_heads=self._wants_intervals
        ).fit(build_dataset(repository, workers=self.config.workers))

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _bootstrap(self) -> tuple[AllocationServer, JobRepository]:
        """Build history, train the initial model, start the server."""
        cfg = self.config
        with trace.span("replay.bootstrap", jobs=cfg.bootstrap_jobs):
            generator = WorkloadGenerator(seed=cfg.seed)
            jobs = generator.generate(
                cfg.bootstrap_jobs, workers=cfg.workers
            )
            repository = run_workload(
                jobs,
                executor=self.executor,
                seed=cfg.seed + 1,
                workers=cfg.workers,
            )
            model = self._fit_model(repository, cfg.seed)
            store = ModelStore()
            store.register(_MODEL_NAME, model, {"bootstrap": True})
            monitor = PredictionMonitor(
                window=cfg.drift_window,
                error_threshold=cfg.drift_threshold,
                patience=cfg.drift_patience,
                min_observations=cfg.drift_min_observations,
            )
            # One synchronous worker, batch size 1, and an effectively
            # disabled breaker: every request resolves before the next
            # is issued, so the serving path is a deterministic function
            # of the request sequence (scoring failures still degrade to
            # the fallback answer, per request).
            server = AllocationServer(
                ScoringPipeline(model, risk=cfg.risk),
                ServerConfig(
                    workers=1,
                    max_batch_size=1,
                    max_batch_wait_s=0.0,
                    breaker_failure_threshold=10**9,
                ),
                store=store,
                model_name=_MODEL_NAME,
                repository=repository,
                monitor=monitor,
            )
            return server, repository

    def _tenant_seed(self, index: int) -> int:
        # Distinct from the bootstrap generator's seed (cfg.seed) and
        # from every other tenant; job ids embed the generator seed, so
        # distinct seeds also keep raw job ids unique.
        return self.config.seed * 1009 + 17 * (index + 1)

    def _arrivals(self) -> list[_Arrival]:
        """Seeded arrival timeline across all tenants, time-ordered."""
        cfg = self.config
        events: list[_Arrival] = []
        for index, tenant in enumerate(self.tenants):
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, 7, index))
            )
            times = arrival_times(tenant.arrival, cfg.duration_s, rng)
            if times.size == 0:
                continue
            split = (
                int(np.searchsorted(times, tenant.shift_at_s))
                if tenant.shift_at_s is not None
                else times.size
            )
            jobs: list[JobInstance] = []
            if split > 0:
                generator = WorkloadGenerator(
                    config=make_family_config(tenant.family),
                    seed=self._tenant_seed(index),
                )
                jobs.extend(
                    generator.generate(split, workers=cfg.workers)
                )
            if split < times.size:
                # Post-shift jobs come from an independent generator (a
                # disjoint seed stream) so the pre-shift timeline is
                # bit-identical to the no-shift run up to the shift.
                shifted = WorkloadGenerator(
                    config=make_family_config(tenant.shift_family),
                    seed=self._tenant_seed(index) + 500009,
                )
                jobs.extend(
                    shifted.generate(
                        times.size - split, workers=cfg.workers
                    )
                )
            events.extend(
                _Arrival(
                    time=float(t),
                    tenant_index=index,
                    job=job,
                    exec_seed=0,
                )
                for t, job in zip(times, jobs)
            )
        if not events:
            raise ReplayError(
                "no arrivals in the replay window; lengthen --duration "
                "or shorten the inter-arrival gap"
            )
        events.sort(key=lambda e: (e.time, e.tenant_index, e.job.job_id))
        # Per-event execution seeds, drawn in merged order so the
        # timeline (not the host) defines every noise stream.
        root = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 11))
        )
        for event in events:
            event.exec_seed = int(root.integers(0, 2**63))
        return events

    def _capacity(self, events: list[_Arrival]) -> int:
        if self.config.capacity is not None:
            return self.config.capacity
        return max(e.job.requested_tokens for e in events)

    # ------------------------------------------------------------------
    # per-job policy mapping
    # ------------------------------------------------------------------
    def _admit(
        self,
        event: _Arrival,
        response: ServeResponse,
        capacity: int,
        executions: dict[str, TelemetryRecord],
    ) -> FleetJob | None:
        """Map one server answer to a fleet demand (None = reject)."""
        cfg = self.config
        job = event.job
        requested = min(job.requested_tokens, capacity)
        if response.recommendation is None:  # REJECTED: shed upstream
            return None
        pcc = response.recommendation.pcc

        def runtime_fn(tokens: int, _event=event, _req=requested) -> float:
            # Re-seedable closure: the same tokens always replays the
            # same execution, and the skyline is kept for retraining.
            result = self.executor.execute(
                decompose_stages(_event.job.plan),
                tokens,
                rng=np.random.default_rng(_event.exec_seed),
            )
            executions[_event.ref] = TelemetryRecord(
                job_id=_event.ref,
                plan=_event.job.plan,
                requested_tokens=_req,
                skyline=result.skyline,
                submit_day=_event.job.submit_day,
                recurring=_event.job.recurring,
            )
            return result.makespan

        model_backed = response.status in (
            ResponseStatus.OK,
            ResponseStatus.CACHED,
        )
        if cfg.policy == "default":
            # The raw user request is the policy; a request larger than
            # the whole pool is shed (the run loop counts it rejected).
            lo = hi = job.requested_tokens
        elif cfg.policy == "tasq":
            lo = hi = min(capacity, response.recommendation.optimal_tokens)
        elif cfg.policy == "peak":
            # Clairvoyant: observe the run at the request, then hold
            # exactly its peak for the observed duration.
            makespan = runtime_fn(requested)
            peak = executions[event.ref].skyline.peak
            lo = hi = min(capacity, max(1, int(math.ceil(peak))))
            return FleetJob(
                job_id=event.ref,
                arrival_time=event.time,
                demand=JobDemand(
                    job_id=event.ref, pcc=pcc, min_tokens=lo, max_tokens=hi
                ),
                runtime_fn=lambda tokens, _m=makespan: _m,
            )
        elif not model_backed:
            # Fallback answers carry a flat PCC — no information to
            # squeeze on; admit at the degraded recommendation as-is.
            lo = hi = min(capacity, response.tokens or requested)
        else:
            floor = tokens_for_slowdown(pcc, requested, cfg.slowdown_floor)
            interval = response.recommendation.pcc_interval
            if (
                cfg.risk is not None
                and interval is not None
                and not interval.is_degenerate
            ):
                # Strengthen the SLO floor to the risk quantile: enough
                # tokens that the slowdown budget holds with
                # probability ``risk``, not merely in expectation.
                risk_floor = tokens_within_slowdown_at_risk(
                    interval, cfg.risk, requested, cfg.slowdown_floor
                )
                if risk_floor is not None:
                    floor = max(floor, risk_floor)
            lo = min(capacity, min(requested, max(1, floor)))
            # The recommendation is also the grant ceiling: past the
            # knee every extra token buys less than the pipeline's
            # improvement threshold, so filling grants up to the raw
            # request would re-create exactly the over-allocation the
            # paper measures (and hand the Default baseline a pool that
            # fleet policies have already wasted).
            hi = max(
                lo, min(capacity, response.recommendation.optimal_tokens)
            )

        deadline = None
        if cfg.policy == "deadline" and model_backed:
            deadline = float(
                (1.0 + cfg.deadline_slack)
                * response.recommendation.predicted_runtime_at_requested
            )
        return FleetJob(
            job_id=event.ref,
            arrival_time=event.time,
            demand=JobDemand(
                job_id=event.ref,
                pcc=pcc,
                min_tokens=lo,
                max_tokens=hi,
                deadline=deadline,
                pcc_interval=(
                    response.recommendation.pcc_interval
                    if model_backed
                    else None
                ),
            ),
            runtime_fn=runtime_fn,
        )

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _observe(
        self,
        outcome: QueueOutcome,
        responses: dict[str, ServeResponse],
        grants: dict[str, int],
        server: AllocationServer,
        drift_series: list[float | None],
        history: JobRepository,
        executions: dict[str, TelemetryRecord],
    ) -> None:
        """Close the loop for one finished job."""
        response = responses[outcome.job_id]
        if (
            response.recommendation is not None
            and outcome.runtime > 0
        ):
            # Hold the model accountable at the allocation the job
            # actually ran with, not at the recommendation it may have
            # been squeezed away from.
            granted = grants[outcome.job_id]
            rec = response.recommendation
            response = dataclasses.replace(
                response,
                recommendation=dataclasses.replace(
                    rec,
                    optimal_tokens=granted,
                    predicted_runtime_at_optimal=float(
                        rec.pcc.runtime(granted)
                    ),
                ),
            )
        server.record_completion(response, float(outcome.runtime))
        drift_series.append(server.monitor.rolling_median_ape)
        if (
            self.config.retrain
            and server.monitor.needs_retraining
            and not server.has_challenger
        ):
            self._retrain(server, history, executions)

    def _retrain(
        self,
        server: AllocationServer,
        history: JobRepository,
        executions: dict[str, TelemetryRecord],
    ) -> None:
        """Refit on bootstrap + replayed telemetry; deploy per config.

        ``promotion="immediate"`` registers + hot-swaps + resets on the
        spot; ``promotion="shadow"`` stages the refit model as a
        challenger — it shadow-scores live traffic and only the
        promotion gate's verdict deploys it (the champion monitor is
        *not* reset, so a rejected challenger leaves the drift signal
        armed for another attempt).
        """
        self._retrain_count += 1
        with trace.span(
            "replay.retrain", round=self._retrain_count,
            observed=len(executions),
        ):
            merged = JobRepository()
            for record in history:
                merged.add(record)
            for ref in sorted(executions):
                merged.add(executions[ref])
            model = self._fit_model(
                merged, self.config.seed + self._retrain_count
            )
            if self.config.promotion == "shadow":
                server.stage_challenger(
                    model,
                    gate=PromotionGate(
                        min_observations=self.config
                        .drift_min_observations,
                    ),
                )
                return
            assert server._store is not None
            server._store.register(
                _MODEL_NAME, model, {"retrain": self._retrain_count}
            )
            server.refresh_model()
            server.monitor.reset()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self) -> ReplayReport:
        cfg = self.config
        server, history = self._bootstrap()
        events = self._arrivals()
        capacity = self._capacity(events)

        fleet_policy: str | DeadlineAwarePolicy = (
            cfg.policy if cfg.policy in POLICY_NAMES else "water_filling"
        )
        if cfg.policy == "deadline" and cfg.risk is not None:
            fleet_policy = DeadlineAwarePolicy(risk=cfg.risk)
        scheduler = FleetScheduler(
            capacity,
            policy=fleet_policy,
            # Baselines are fixed-grant by definition; only the fleet
            # policies may spend idle tokens on running jobs.
            reallocate_running=(
                cfg.reallocate_running and cfg.policy in POLICY_NAMES
            ),
            admission=cfg.admission,
        )
        stream = scheduler.stream()

        responses: dict[str, ServeResponse] = {}
        grants: dict[str, int] = {}
        executions: dict[str, TelemetryRecord] = {}
        tenant_of: dict[str, str] = {}
        arrivals_by_tenant: dict[str, int] = {
            t.name: 0 for t in self.tenants
        }
        rejected_by_tenant: dict[str, int] = {
            t.name: 0 for t in self.tenants
        }
        outcomes_by_tenant: dict[str, list[QueueOutcome]] = {
            t.name: [] for t in self.tenants
        }
        response_counts: dict[str, int] = {}
        drift_series: list[float | None] = []

        def flush(completed: list[QueueOutcome]) -> None:
            for outcome in completed:
                grants[outcome.job_id] = outcome.tokens
                outcomes_by_tenant[tenant_of[outcome.job_id]].append(
                    outcome
                )
                self._observe(
                    outcome, responses, grants, server,
                    drift_series, history, executions,
                )

        with server, trace.span(
            "replay.loop", events=len(events), policy=cfg.policy
        ):
            for event in events:
                tenant = self.tenants[event.tenant_index]
                arrivals_by_tenant[tenant.name] += 1
                tenant_of[event.ref] = tenant.name
                # 1) everything that finished before this arrival is
                #    observed first — feedback precedes the next
                #    recommendation, exactly as in production.
                flush(stream.advance(event.time))
                # 2) recommend
                response = server.request(
                    event.job.plan, event.job.requested_tokens
                )
                responses[event.ref] = response
                response_counts[response.status.value] = (
                    response_counts.get(response.status.value, 0) + 1
                )
                # 3) admit (or shed)
                fleet_job = self._admit(
                    event, response, capacity, executions
                )
                if (
                    fleet_job is None
                    or fleet_job.demand.min_tokens > capacity
                ):
                    rejected_by_tenant[tenant.name] += 1
                    continue
                stream.submit(fleet_job)
            # 4) run the tail out
            flush(stream.drain())

        fleet_report = stream.report()
        self.outcomes_by_tenant_ = outcomes_by_tenant
        return build_report(
            policy=cfg.policy,
            admission=cfg.admission,
            capacity=capacity,
            seed=cfg.seed,
            duration_s=cfg.duration_s,
            outcomes_by_tenant=outcomes_by_tenant,
            tenant_meta={
                t.name: (t.family, t.slo_slowdown) for t in self.tenants
            },
            arrivals_by_tenant=arrivals_by_tenant,
            rejected_by_tenant=rejected_by_tenant,
            peak_committed_tokens=fleet_report.peak_committed_tokens,
            reallocations=fleet_report.reallocations,
            backfills=fleet_report.backfills,
            retrain_events=self._retrain_count,
            response_counts=response_counts,
            drift_series=drift_series,
            timeline_bins=cfg.timeline_bins,
        )


def run_replay(
    config: ReplayConfig | None = None,
    tenants: tuple[TenantSpec, ...] | None = None,
) -> ReplayReport:
    """Convenience wrapper: build an engine and run it once."""
    return ReplayEngine(config, tenants).run()
