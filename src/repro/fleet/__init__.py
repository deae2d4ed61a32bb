"""Cluster-level global token allocation under a shared budget.

Turns the per-job TASQ recommender into a cluster resource manager (the
LeJOT direction): a :class:`GlobalAllocator` divides a cluster-wide
token cap across concurrent jobs from their predicted PCCs by
water-filling (:func:`water_fill`), a :class:`FleetScheduler` admits
jobs with allocator-chosen grants and redistributes released tokens,
and :func:`compare_policies` measures cluster-wide makespan / wait /
token-hours against the per-job TASQ and Default/Peak baselines. See
``docs/fleet.md``.
"""

from repro.fleet.allocator import GlobalAllocator, water_fill
from repro.fleet.demand import FleetAllocation, JobDemand, TokenGrant
from repro.fleet.evaluation import (
    BASELINE_NAMES,
    FleetComparison,
    PolicyOutcome,
    build_demands,
    compare_policies,
    score_usable,
)
from repro.fleet.scheduler import (
    ADMISSION_ORDERS,
    FleetJob,
    FleetReport,
    FleetScheduler,
    FleetStream,
)

__all__ = [
    "JobDemand",
    "TokenGrant",
    "FleetAllocation",
    "water_fill",
    "GlobalAllocator",
    "FleetJob",
    "FleetReport",
    "FleetScheduler",
    "FleetStream",
    "ADMISSION_ORDERS",
    "PolicyOutcome",
    "FleetComparison",
    "build_demands",
    "score_usable",
    "compare_policies",
    "BASELINE_NAMES",
]
