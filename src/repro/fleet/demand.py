"""Demand and grant types for cluster-level token allocation.

A :class:`JobDemand` is what one job brings to the global allocator: its
predicted PCC (the per-job knowledge TASQ already produces at compile
time) plus the bounds the platform is willing to honor — a floor below
which the job should not be squeezed (e.g. a slowdown SLO) and a ceiling
(typically the user's requested allocation). The allocator answers with
a :class:`FleetAllocation`: one integer :class:`TokenGrant` per job whose
sum never exceeds the cluster cap.

**Point-estimate assumption, made explicit.** ``pcc`` is the *median*
predicted curve, and the allocator treats it as exact: two jobs with
equal medians but very different prediction spread look identical to
it. Prediction risk enters only through the bounds. The replay raises a
demand's floor to the risk-quantile slowdown floor before the allocator
sees it (see ``docs/uncertainty.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import FleetError
from repro.pcc.curve import PowerLawPCC

__all__ = ["JobDemand", "TokenGrant", "FleetAllocation"]


@dataclass(frozen=True)
class JobDemand:
    """One job's stake in the shared token pool.

    Parameters
    ----------
    pcc:
        The job's predicted performance characteristic curve. Must be
        non-increasing — the allocator reasons about marginal run-time
        improvement per token, which an increasing curve does not have.
    min_tokens, max_tokens:
        Grant bounds. ``min_tokens`` is the protective floor (the job is
        never squeezed below it); ``max_tokens`` is usually the requested
        allocation (granting more than asked wastes budget).
    """

    job_id: str
    pcc: PowerLawPCC
    min_tokens: int = 1
    max_tokens: int = 256

    def __post_init__(self) -> None:
        if self.min_tokens < 1:
            raise FleetError("demand floor must be at least one token")
        if self.max_tokens < self.min_tokens:
            raise FleetError(
                f"demand ceiling {self.max_tokens} below floor "
                f"{self.min_tokens} for {self.job_id}"
            )
        if not self.pcc.is_non_increasing:
            raise FleetError(
                "global allocation needs a non-increasing PCC "
                f"(job {self.job_id} has a={self.pcc.a:+.3f})"
            )


@dataclass(frozen=True)
class TokenGrant:
    """The allocator's decision for one job."""

    job_id: str
    tokens: int
    predicted_runtime: float


@dataclass(frozen=True)
class FleetAllocation:
    """One global allocation round: every job's grant under one cap."""

    grants: tuple[TokenGrant, ...]
    cap: int

    @property
    def total_tokens(self) -> int:
        return sum(g.tokens for g in self.grants)

    @property
    def spare_tokens(self) -> int:
        return self.cap - self.total_tokens

    def by_job(self) -> dict[str, TokenGrant]:
        return {g.job_id: g for g in self.grants}
