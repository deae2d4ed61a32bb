"""Open-loop load generator and SLO-bounded capacity search.

The benchmark loads the endpoint with this module, not with
``repro.serving.LoadGenerator``, so a change to the program's own load
generator cannot change what the benchmark measures.

Open loop with one submitting thread: request ``i`` of a probe is due at
``start + i / rate`` whether or not earlier requests were answered. Its
latency counts from that due time (send lag plus the server's own
``ServeResponse.latency_s``), so a stall that delays later sends is
charged to the requests it delayed (coordinated omission).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

#: A probe passes only if its p99 corrected latency stays within this.
P99_LIMIT_S = 0.050
#: ... and sending never fell further behind its schedule (no backlog).
LAG_LIMIT_S = 0.050
#: A request still unanswered this long after the last send is unresolved.
RESOLVE_TIMEOUT_S = 60.0
#: A probe's model share may sit at most this far below the reference's.
SHARE_SLACK = 0.03
GROWTH = 1.5
CEILING_RPS = 64000.0
BISECTIONS = 3


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile (``q`` in [0, 1]); None for no values."""
    ordered = sorted(values)
    if not ordered:
        return None
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass
class ProbeResult:
    """What one fixed-rate probe observed."""

    rate: float
    sent: int
    #: Answers by status value, and fallback answers by reason.
    counts: Counter
    reasons: Counter
    #: Corrected latency of every answered request, in seconds.
    latencies_s: list[float]
    max_lag_s: float
    raised: int
    unresolved: int
    errors: list[str] = field(default_factory=list)

    @property
    def model_share(self) -> float:
        """(ok + cached) / sent."""
        if not self.sent:
            return 0.0
        return (self.counts["ok"] + self.counts["cached"]) / self.sent

    def latency(self, q: float) -> float | None:
        return percentile(self.latencies_s, q)

    def passes(self, min_share: float | None = None) -> bool:
        p99 = self.latency(0.99)
        return (
            p99 is not None
            and p99 <= P99_LIMIT_S
            and self.max_lag_s <= LAG_LIMIT_S
            and self.counts["rejected"] == 0
            and self.unresolved == 0
            and self.raised == 0
            and (min_share is None or self.model_share >= min_share)
        )

    def line(self, min_share: float | None = None) -> str:
        def ms(value: float | None) -> str:
            return "n/a" if value is None else f"{value * 1e3:.2f}ms"

        fallback = ",".join(
            f"{reason}={n}" for reason, n in sorted(self.reasons.items())
        )
        return (
            f"probe {self.rate:8.1f} req/s n={self.sent} "
            f"p50={ms(self.latency(0.5))} p99={ms(self.latency(0.99))} "
            f"lag={ms(self.max_lag_s)} ok={self.counts['ok']} "
            f"cached={self.counts['cached']} fallback[{fallback}] "
            f"rejected={self.counts['rejected']} "
            f"unresolved={self.unresolved} raised={self.raised} "
            f"-> {'pass' if self.passes(min_share) else 'FAIL'}"
        )


def run_probe(
    submit,
    requests: list,
    rate: float,
    *,
    clock=time.perf_counter,
    sleep=time.sleep,
    resolve_timeout_s: float = RESOLVE_TIMEOUT_S,
) -> tuple[ProbeResult, list]:
    """Send ``requests`` at ``rate`` per second through ``submit``.

    ``submit(request)`` returns a future whose ``result(timeout)`` gives a
    response with ``status.value``, ``reason`` and ``latency_s``. Returns
    the probe's summary and the responses, one per request (None where
    ``submit`` raised or the answer never came).
    """
    interval = 1.0 / rate
    futures = []
    lags = []
    errors: list[str] = []
    start = clock()
    for index, request in enumerate(requests):
        due = start + index * interval
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        lags.append(max(0.0, clock() - due))
        try:
            futures.append(submit(request))
        except Exception as exc:  # counted as a failed request, never fatal
            futures.append(None)
            errors.append(repr(exc))
    deadline = clock() + resolve_timeout_s
    responses = []
    latencies = []
    unresolved = 0
    for lag, future in zip(lags, futures):
        if future is None:
            responses.append(None)
            continue
        try:
            response = future.result(max(0.0, deadline - clock()))
        except Exception as exc:  # a timeout: the request never resolved
            unresolved += 1
            errors.append(repr(exc))
            responses.append(None)
            continue
        responses.append(response)
        latencies.append(lag + response.latency_s)
    answered = [r for r in responses if r is not None]
    result = ProbeResult(
        rate=rate,
        sent=len(responses),
        counts=Counter(r.status.value for r in answered),
        reasons=Counter(
            r.reason for r in answered if r.status.value == "fallback"
        ),
        latencies_s=latencies,
        max_lag_s=max(lags, default=0.0),
        raised=sum(f is None for f in futures),
        unresolved=unresolved,
        errors=errors[:5],
    )
    return result, responses


def capacity_search(
    probe,
    r0: float,
    reference_passed: bool,
    *,
    growth: float = GROWTH,
    ceiling: float = CEILING_RPS,
    bisections: int = BISECTIONS,
) -> float:
    """Highest rate at which ``probe(rate)`` passes.

    Rates grow geometrically from ``r0`` (whose verdict is
    ``reference_passed``) until a probe fails or ``ceiling`` passes, then
    ``bisections`` midpoint probes narrow the bracket. The answer is the
    bracket's passing end, so it lies within one final bisection step
    below the true threshold.
    """
    low, high = (r0, None) if reference_passed else (0.0, r0)
    rate = r0
    while high is None:
        rate = min(rate * growth, ceiling)
        if not probe(rate):
            high = rate
        elif rate >= ceiling:
            return rate
        else:
            low = rate
    for _ in range(bisections):
        middle = (low + high) / 2
        if probe(middle):
            low = middle
        else:
            high = middle
    return low
