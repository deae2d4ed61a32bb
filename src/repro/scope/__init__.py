"""SCOPE-like substrate: operators, plans, workload generation, execution."""

from repro.scope.cluster import QueueOutcome, QueueReport
from repro.scope.execution import ClusterExecutor, ExecutionResult
from repro.scope.generator import (
    FAMILY_NAMES,
    WORKLOAD_FAMILIES,
    JobInstance,
    WorkloadConfig,
    WorkloadGenerator,
    make_family_config,
)
from repro.scope.operators import (
    NUM_OPERATOR_KINDS,
    NUM_PARTITIONING_METHODS,
    OPERATOR_CATALOG,
    OPERATOR_NAMES,
    PARTITIONING_METHODS,
    OperatorCategory,
    OperatorSpec,
    PartitioningMethod,
)
from repro.scope.plan import OperatorNode, QueryPlan
from repro.scope.repository import JobRepository, TelemetryRecord, run_workload
from repro.scope.serialization import load_repository, save_repository
from repro.scope.signatures import (
    plan_content_signature,
    plan_signature,
    skyline_signature,
)
from repro.scope.stages import CostModel, Stage, StageGraph, decompose_stages

__all__ = [
    "OperatorCategory",
    "PartitioningMethod",
    "OperatorSpec",
    "OPERATOR_CATALOG",
    "OPERATOR_NAMES",
    "PARTITIONING_METHODS",
    "NUM_OPERATOR_KINDS",
    "NUM_PARTITIONING_METHODS",
    "OperatorNode",
    "QueryPlan",
    "CostModel",
    "Stage",
    "StageGraph",
    "decompose_stages",
    "ClusterExecutor",
    "ExecutionResult",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WORKLOAD_FAMILIES",
    "FAMILY_NAMES",
    "make_family_config",
    "JobInstance",
    "JobRepository",
    "TelemetryRecord",
    "run_workload",
    "save_repository",
    "load_repository",
    "plan_signature",
    "plan_content_signature",
    "skyline_signature",
    "QueueOutcome",
    "QueueReport",
]
