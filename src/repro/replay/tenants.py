"""Tenant profiles: who submits jobs, what kind, and how often.

A tenant bundles a workload family (``repro.scope.generator``'s
declarative :data:`~repro.scope.generator.WORKLOAD_FAMILIES`), an
arrival process, and a per-tenant slowdown SLO. The replay engine gives
each tenant its own deterministic generator and arrival substream, so
tenants are statistically independent but jointly reproducible.

A tenant may also declare a mid-stream **workload shift**
(``shift_family`` + ``shift_at_s``): jobs arriving after the shift time
are drawn from a different family generator, which is how the drift
benchmarks inject a distribution change the bootstrap-trained model has
never seen (see ``docs/uncertainty.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ReplayError
from repro.replay.arrivals import ArrivalSpec
from repro.scope.generator import FAMILY_NAMES

__all__ = ["TenantSpec", "default_tenants"]

#: Family rotation used when tenants are auto-named (tpch first: it is
#: the repo's canonical workload and the one the bootstrap model sees).
_FAMILY_ROTATION = ("tpch", "streaming", "ml_training", "etl_skew")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload profile."""

    name: str
    #: Workload family key (see ``repro.scope.WORKLOAD_FAMILIES``).
    family: str = "tpch"
    arrival: ArrivalSpec = ArrivalSpec()
    #: SLO: a completed job attains its SLO when its slowdown
    #: (turnaround / run time) is at most this factor.
    slo_slowdown: float = 2.0
    #: Optional mid-stream workload shift: jobs arriving at or after
    #: ``shift_at_s`` virtual seconds come from ``shift_family``
    #: instead of ``family``. Both must be set together.
    shift_family: str | None = None
    shift_at_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ReplayError("tenants need a name")
        if self.family not in FAMILY_NAMES:
            raise ReplayError(
                f"unknown workload family {self.family!r}; "
                f"known: {', '.join(FAMILY_NAMES)}"
            )
        if not self.slo_slowdown >= 1:
            raise ReplayError("slowdown SLOs below 1 are unattainable")
        if (self.shift_family is None) != (self.shift_at_s is None):
            raise ReplayError(
                "shift_family and shift_at_s must be set together"
            )
        if self.shift_family is not None:
            if self.shift_family not in FAMILY_NAMES:
                raise ReplayError(
                    f"unknown shift family {self.shift_family!r}; "
                    f"known: {', '.join(FAMILY_NAMES)}"
                )
            if self.shift_at_s <= 0:
                raise ReplayError("shift time must be positive")


def default_tenants(
    count: int,
    arrival: ArrivalSpec | None = None,
    slo_slowdown: float = 2.0,
) -> tuple[TenantSpec, ...]:
    """``count`` tenants cycling through the workload families.

    All tenants share one arrival *spec*; the engine still hands each
    its own random substream, so their realized timelines differ.
    """
    if count < 1:
        raise ReplayError("need at least one tenant")
    arrival = arrival or ArrivalSpec()
    return tuple(
        TenantSpec(
            name=f"tenant-{i}",
            family=_FAMILY_ROTATION[i % len(_FAMILY_ROTATION)],
            arrival=arrival,
            slo_slowdown=slo_slowdown,
        )
        for i in range(count)
    )
