"""Global token allocation across concurrent jobs under a cluster cap.

TASQ's per-job recommendation answers "how many tokens does *this* job
deserve?" in isolation. The paper's motivating argument, however, is a
cluster-level one: tokens a job holds are tokens every other job waits
for. This module lifts the per-job PCCs to that level: given the fleet
of jobs currently competing for the pool, a :class:`GlobalAllocator`
divides a shared token cap among them.

The rule is water-filling (:func:`water_fill`). Minimizing total
predicted run time ``sum_i b_i A_i^{a_i}`` under ``sum_i A_i <= C`` is a
separable convex program; at the optimum every interior job has the
same marginal improvement per token ``-a_i b_i A_i^{a_i - 1} = lambda``,
so the whole fleet's allocation is a one-dimensional bisection on the
water level ``lambda``. Protective floors (SLO or risk floors) and
ceilings (the recommendation) are the demand's bounds; callers set them
before the allocator runs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import FleetError
from repro.fleet.demand import FleetAllocation, JobDemand, TokenGrant
from repro.obs import get_registry, trace

__all__ = ["water_fill", "GlobalAllocator"]

#: Log-space bisection steps on the water level.
_BISECTION_STEPS = 64


def _bounds(demands: Sequence[JobDemand]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([d.min_tokens for d in demands], dtype=np.int64)
    hi = np.array([d.max_tokens for d in demands], dtype=np.int64)
    return lo, hi


def water_fill(demands: Sequence[JobDemand], cap: int) -> np.ndarray:
    """Equalize marginal run-time improvement per token across the fleet.

    Returns one integer grant per demand, in order, each inside
    ``[min_tokens, max_tokens]`` and summing to at most ``cap``; the
    caller guarantees ``sum(min_tokens) <= cap``.

    The continuous optimum is found by bisecting the shared marginal
    gain ("water level"): each job's interior response to a level
    ``lam`` is ``A_i(lam) = (-a_i b_i / lam)^(1 / (1 - a_i))``, clipped
    to its bounds. Grants are then floored to integers and the handful
    of leftover tokens (at most one per job) go to the jobs whose next
    token still buys the largest predicted run-time reduction.
    """
    lo, hi = _bounds(demands)
    hi = np.minimum(hi, cap)
    a = np.array([d.pcc.a for d in demands], dtype=float)
    b = np.array([d.pcc.b for d in demands], dtype=float)
    if int(hi.sum()) <= cap:
        return hi

    # Flat curves (a == 0) never benefit from extra tokens: pin them
    # to their floor and keep them out of the water level entirely.
    flat = a >= 0
    if bool(flat.all()):
        return lo.copy()
    safe_a = np.where(flat, -1.0, a)

    def grants_at(lam: float) -> np.ndarray:
        with np.errstate(all="ignore"):
            interior = np.power(-safe_a * b / lam, 1.0 / (1.0 - safe_a))
        interior = np.where(flat, lo, interior)
        return np.clip(interior, lo, hi)

    # Bracket the level: the highest/lowest marginal gain any job
    # can exhibit inside its bounds.
    gain_lo = -safe_a * b * np.power(hi.astype(float), safe_a - 1.0)
    gain_hi = -safe_a * b * np.power(lo.astype(float), safe_a - 1.0)
    lam_lo = max(float(gain_lo[~flat].min()) * 0.5, 1e-300)
    lam_hi = max(float(gain_hi[~flat].max()) * 2.0, lam_lo * 2.0)
    for _ in range(_BISECTION_STEPS):
        lam = np.sqrt(lam_lo * lam_hi)  # bisect in log space
        if float(grants_at(lam).sum()) > cap:
            lam_lo = lam  # too generous: raise the bar
        else:
            lam_hi = lam
    continuous = grants_at(lam_hi)

    grants = np.maximum(np.floor(continuous).astype(np.int64), lo)
    leftover = cap - int(grants.sum())
    if leftover > 0:
        # Flooring freed at most one token per job; hand them back
        # in order of the marginal gain of each job's next token.
        upgradable = grants < hi
        next_gain = b * (
            np.power(grants.astype(float), safe_a)
            - np.power(grants.astype(float) + 1.0, safe_a)
        )
        next_gain[~upgradable | flat] = -np.inf
        order = np.argsort(-next_gain)
        for idx in order[:leftover]:
            if next_gain[idx] == -np.inf:
                break
            grants[idx] += 1
    return grants


class GlobalAllocator:
    """Divide a cluster-wide token cap among concurrent jobs.

    Parameters
    ----------
    cap:
        The cluster's guaranteed-token pool size.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise FleetError("cluster cap must be positive")
        self.cap = cap

    def allocate(
        self, demands: Sequence[JobDemand], cap: int | None = None
    ) -> FleetAllocation:
        """Grant tokens to every demand under the (possibly partial) cap.

        ``cap`` overrides the cluster-wide cap for one round — the fleet
        scheduler passes the currently *free* tokens here so running
        jobs keep their guarantees.
        """
        cap = self.cap if cap is None else cap
        if not demands:
            raise FleetError("no demands to allocate")
        if cap < 1:
            raise FleetError("allocation cap must be positive")
        seen: set[str] = set()
        for demand in demands:
            if demand.job_id in seen:
                raise FleetError(f"duplicate demand for {demand.job_id}")
            seen.add(demand.job_id)
        floor_total = sum(d.min_tokens for d in demands)
        if floor_total > cap:
            raise FleetError(
                f"demand floors need {floor_total} tokens but only "
                f"{cap} are available"
            )

        with trace.span("fleet.allocate", jobs=len(demands), cap=cap):
            grants = water_fill(demands, cap)
        lo, hi = _bounds(demands)
        if np.any(grants < lo) or np.any(grants > hi):
            raise FleetError("allocation violated a demand's grant bounds")
        if int(grants.sum()) > cap:
            raise FleetError("allocation exceeded the cap")

        if trace.enabled:
            registry = get_registry()
            registry.counter("fleet_allocations").increment()
            histogram = registry.histogram("fleet_tokens_granted")
            for grant in grants:
                histogram.record(float(grant))

        return FleetAllocation(
            grants=tuple(
                TokenGrant(
                    job_id=demand.job_id,
                    tokens=int(grant),
                    predicted_runtime=float(demand.pcc.runtime(int(grant))),
                )
                for demand, grant in zip(demands, grants)
            ),
            cap=cap,
        )
