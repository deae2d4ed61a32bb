"""Degraded-mode recommendations when the model cannot answer.

*Runtime Variation in Big Data Analytics* (PAPERS.md) argues allocation
systems need graceful degradation when predictions are unreliable; the
production TASQ deployment likewise never blocks a SCOPE job on a model
outage. :class:`HistoricalMedianFallback` answers AutoToken-style from
per-signature history: recurring pipelines are allocated their
historical median *peak* usage (capped at the request), since past peaks
of the same structure are an excellent predictor of future need. A
signature the history lacks (ad-hoc jobs), or a server without a
repository, gets the requested allocation back: the job runs exactly as
it would without TASQ.

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

import numpy as np

from repro.pcc.curve import PowerLawPCC
from repro.scope.plan import QueryPlan
from repro.scope.repository import JobRepository
from repro.scope.signatures import plan_signature
from repro.tasq.pipeline import TokenRecommendation

__all__ = ["HistoricalMedianFallback", "degraded_recommendation"]


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


class HistoricalMedianFallback:
    """Per-signature historical median peak usage, passthrough otherwise.

    The signature→median table is precomputed from the repository at
    construction (an O(history) scan), so ``recommend`` is a dictionary
    lookup on the hot path. Without a repository the table is empty and
    every request passes through.
    """

    def __init__(self, repository: JobRepository | None) -> None:
        peaks: dict[str, list[float]] = {}
        runtimes: dict[str, list[float]] = {}
        for record in () if repository is None else repository:
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

    def recommend(
        self, plan: QueryPlan, requested_tokens: int, signature: str
    ) -> TokenRecommendation:
        """The degraded answer for ``plan``, whose ``plan_signature`` the
        caller has computed already."""
        return degraded_recommendation(
            plan,
            requested_tokens,
            self._median_peak.get(signature, requested_tokens),
            assumed_runtime=self._median_runtime.get(signature, 1.0),
        )
