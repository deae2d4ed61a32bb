"""Degraded-mode recommendations when the model cannot answer.

*Runtime Variation in Big Data Analytics* (PAPERS.md) argues allocation
systems need graceful degradation when predictions are unreliable; the
production TASQ deployment likewise never blocks a SCOPE job on a model
outage — it falls back to the user's request. Two policies:

* :class:`PassthroughFallback` — echo the requested allocation. Always
  safe: the job runs exactly as it would without TASQ.
* :class:`HistoricalMedianFallback` — AutoToken-style per-signature
  history: recurring pipelines are allocated their historical median
  *peak* usage (capped at the request), since past peaks of the same
  structure are an excellent predictor of future need. Unseen
  signatures (ad-hoc jobs) defer to passthrough.

Fallback recommendations carry a degenerate flat PCC (zero exponent at
the observed/assumed run time) so downstream consumers that inspect the
curve see "no predicted benefit from more tokens" rather than garbage.

**Uncertainty contract.** A fallback answer is a point estimate by
construction — there is no model behind it to quantify spread — so its
``pcc_interval`` stays None and its ``risk`` stays None. Interval-aware
consumers (the monitor's coverage rule, risk-adjusted floors) must
treat such answers as carrying *no* calibration evidence, not as zero-width intervals that trivially miss:
this module's recommendations are deliberately excluded from coverage
accounting (see ``docs/uncertainty.md``).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.pcc.curve import PowerLawPCC
from repro.scope.plan import QueryPlan
from repro.scope.repository import JobRepository
from repro.scope.signatures import plan_signature
from repro.tasq.pipeline import TokenRecommendation

__all__ = [
    "FallbackPolicy",
    "PassthroughFallback",
    "HistoricalMedianFallback",
    "degraded_recommendation",
]


def degraded_recommendation(
    plan: QueryPlan,
    requested_tokens: int,
    recommended_tokens: int,
    assumed_runtime: float = 1.0,
) -> TokenRecommendation:
    """A well-formed recommendation carrying no model prediction."""
    flat = PowerLawPCC(a=0.0, b=max(assumed_runtime, 1e-9))
    return TokenRecommendation(
        job_id=plan.job_id,
        pcc=flat,
        requested_tokens=int(requested_tokens),
        optimal_tokens=int(min(max(recommended_tokens, 1), requested_tokens)),
        predicted_runtime_at_requested=flat.runtime(requested_tokens),
        predicted_runtime_at_optimal=flat.runtime(requested_tokens),
    )


class FallbackPolicy(Protocol):
    """Anything that can answer when the scoring path cannot."""

    def recommend(
        self, plan: QueryPlan, requested_tokens: int
    ) -> TokenRecommendation: ...


class PassthroughFallback:
    """Echo the requested allocation (the do-no-harm default)."""

    def recommend(
        self, plan: QueryPlan, requested_tokens: int
    ) -> TokenRecommendation:
        return degraded_recommendation(plan, requested_tokens, requested_tokens)


class HistoricalMedianFallback:
    """Per-signature historical median peak usage, passthrough otherwise.

    The signature→median table is precomputed from the repository at
    construction (an O(history) scan), so ``recommend`` is a dictionary
    lookup on the hot path. Call :meth:`refresh` after the repository
    grows materially.
    """

    def __init__(self, repository: JobRepository) -> None:
        self._repository = repository
        self._passthrough = PassthroughFallback()
        self._median_peak: dict[str, int] = {}
        self._median_runtime: dict[str, float] = {}
        self.refresh()

    def refresh(self) -> None:
        peaks: dict[str, list[float]] = {}
        runtimes: dict[str, list[float]] = {}
        for record in self._repository:
            signature = plan_signature(record.plan)
            peaks.setdefault(signature, []).append(float(record.peak_tokens))
            runtimes.setdefault(signature, []).append(float(record.runtime))
        self._median_peak = {
            sig: max(1, int(round(float(np.median(values)))))
            for sig, values in peaks.items()
        }
        self._median_runtime = {
            sig: float(np.median(values)) for sig, values in runtimes.items()
        }

    @property
    def known_signatures(self) -> int:
        return len(self._median_peak)

    def recommend(
        self, plan: QueryPlan, requested_tokens: int
    ) -> TokenRecommendation:
        signature = plan_signature(plan)
        median_peak = self._median_peak.get(signature)
        if median_peak is None:
            return self._passthrough.recommend(plan, requested_tokens)
        return degraded_recommendation(
            plan,
            requested_tokens,
            median_peak,
            assumed_runtime=self._median_runtime.get(signature, 1.0),
        )
