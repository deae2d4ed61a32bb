"""Seeded load generation against an :class:`AllocationServer`.

Serving work is only credible with a workload behind it. The generator
builds a deterministic request schedule from the synthetic SCOPE
population (`repro.scope.generator`) and drives the server in either
mode:

* **closed loop** — ``clients`` threads, each submitting its next
  request as soon as the previous one completes (models a fixed-size
  caller population; throughput adapts to server speed);
* **open loop** — requests submitted at a fixed arrival rate regardless
  of completion (models independent outside traffic; overload shows up
  as queue growth and load shedding rather than slower arrivals).

Open-loop latency is **coordinated-omission corrected**: each request's
latency is measured from its *intended* send time on the arrival
schedule, not from whenever the generator actually managed to submit
it. A saturated server stalls the submission loop itself; charging the
resulting send lag to the requests (rather than silently forgiving it)
is what keeps reported p95/p99 honest under overload.

The schedule samples jobs with a Zipf-flavoured skew so a handful of
recurring pipelines dominate traffic — the production shape that makes
the recommendation cache matter. With one client (or in open loop, one
generation seed) the schedule, responses, and count-based statistics
are fully deterministic.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ServingError
from repro.obs import trace
from repro.scope.generator import JobInstance
from repro.serving.server import AllocationServer, ResponseStatus, ServeFuture

__all__ = ["LoadgenConfig", "LoadReport", "LoadGenerator"]


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    #: Total requests to issue.
    requests: int = 400
    #: Concurrent closed-loop clients (ignored in open-loop mode).
    clients: int = 4
    #: Zipf-like skew of job popularity; 0 = uniform traffic.
    popularity_skew: float = 1.1
    #: Open-loop arrival rate in requests/second (None = closed loop).
    arrival_rate: float | None = None
    #: RNG seed for the request schedule.
    seed: int = 0
    #: Optional latency SLOs (seconds). Violations are recorded on the
    #: report; :meth:`LoadReport.assert_slo` turns them into errors.
    slo_p95_s: float | None = None
    slo_p99_s: float | None = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ServingError("need at least one request")
        if self.clients < 1:
            raise ServingError("need at least one client")
        if self.popularity_skew < 0:
            raise ServingError("popularity skew must be non-negative")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ServingError("arrival rate must be positive when set")
        for name, slo in (("p95", self.slo_p95_s), ("p99", self.slo_p99_s)):
            if slo is not None and slo <= 0:
                raise ServingError(f"{name} SLO must be positive when set")


@dataclass(frozen=True)
class LoadReport:
    """What one load-generation run observed."""

    requests: int
    duration_s: float
    throughput_rps: float
    ok: int
    cached: int
    fallback: int
    rejected: int
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None
    cache_hit_rate: float | None
    shed_rate: float
    fallback_rate: float
    #: Worst send lag behind the open-loop arrival schedule (0 when the
    #: generator kept up, or in closed-loop mode). Nonzero means the
    #: percentiles above include coordinated-omission correction.
    max_send_lag_s: float = 0.0
    #: Human-readable SLO violations (empty = all configured SLOs held).
    slo_violations: tuple[str, ...] = ()

    def assert_slo(self) -> "LoadReport":
        """Raise if any configured latency SLO was violated."""
        if self.slo_violations:
            raise ServingError(
                "latency SLO violated: " + "; ".join(self.slo_violations)
            )
        return self

    def render(self) -> str:
        """Human-readable multi-line summary for the CLI."""

        def _ms(value: float | None) -> str:
            return f"{value * 1e3:8.2f} ms" if value is not None else "     n/a"

        hit = (
            f"{self.cache_hit_rate:.1%}"
            if self.cache_hit_rate is not None
            else "n/a"
        )
        lines = [
            f"requests        {self.requests:>8}"
            f"   (ok {self.ok}, cached {self.cached},"
            f" fallback {self.fallback}, rejected {self.rejected})",
            f"duration        {self.duration_s:>8.2f} s"
            f"   throughput {self.throughput_rps:,.0f} req/s",
            f"latency p50     {_ms(self.latency_p50_s)}",
            f"latency p95     {_ms(self.latency_p95_s)}",
            f"latency p99     {_ms(self.latency_p99_s)}",
            f"cache hit rate  {hit:>8}",
            f"shed rate       {self.shed_rate:>8.1%}",
            f"fallback rate   {self.fallback_rate:>8.1%}",
        ]
        if self.max_send_lag_s > 0:
            lines.append(
                f"max send lag    {_ms(self.max_send_lag_s)}"
                "   (latencies CO-corrected)"
            )
        for violation in self.slo_violations:
            lines.append(f"SLO VIOLATION   {violation}")
        return "\n".join(lines)


class LoadGenerator:
    """Drives a server with a deterministic, popularity-skewed schedule."""

    def __init__(self, jobs: list[JobInstance], config: LoadgenConfig | None = None):
        if not jobs:
            raise ServingError("load generation needs at least one job")
        self.jobs = list(jobs)
        self.config = config or LoadgenConfig()

    # ------------------------------------------------------------------
    def schedule(self) -> list[JobInstance]:
        """The request sequence: seeded, popularity-skewed job sampling."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        ranks = np.arange(1, len(self.jobs) + 1, dtype=float)
        weights = np.power(ranks, -config.popularity_skew)
        weights /= weights.sum()
        order = rng.permutation(len(self.jobs))  # decouple rank from job id
        indices = rng.choice(len(self.jobs), size=config.requests, p=weights)
        return [self.jobs[order[i]] for i in indices]

    # ------------------------------------------------------------------
    def run(self, server: AllocationServer) -> LoadReport:
        """Issue the schedule against ``server`` and summarise the answers."""
        schedule = self.schedule()
        responses: list = [None] * len(schedule)
        send_lags: list[float] | None = None
        mode = "open" if self.config.arrival_rate is not None else "closed"
        with trace.span(
            "serving.loadgen_pass", requests=len(schedule), mode=mode
        ):
            started = time.perf_counter()
            if self.config.arrival_rate is None:
                self._run_closed_loop(server, schedule, responses)
            else:
                send_lags = self._run_open_loop(server, schedule, responses)
            duration = max(time.perf_counter() - started, 1e-9)
        return self._report(responses, duration, send_lags)

    def _run_closed_loop(
        self, server: AllocationServer, schedule: list[JobInstance], responses: list
    ) -> None:
        cursor_lock = threading.Lock()
        cursor = {"next": 0}

        def client() -> None:
            while True:
                with cursor_lock:
                    index = cursor["next"]
                    if index >= len(schedule):
                        return
                    cursor["next"] = index + 1
                job = schedule[index]
                responses[index] = server.request(
                    job.plan, job.requested_tokens, timeout=60.0
                )

        threads = [
            threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
            for i in range(min(self.config.clients, len(schedule)))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _run_open_loop(
        self, server: AllocationServer, schedule: list[JobInstance], responses: list
    ) -> list[float]:
        """Submit on a fixed arrival schedule; returns per-request send lag.

        The coordinated-omission trap: under saturation ``submit`` (or
        the sleep loop behind it) lags the arrival schedule, so request
        ``i`` leaves late — and its server-measured latency starts late,
        quietly excluding the very delay overload caused. We timestamp
        each request's *intended* arrival (``start + i * interval``) and
        return ``actual_send - intended`` so the report can charge the
        lag back to every late request.
        """
        assert self.config.arrival_rate is not None
        interval = 1.0 / self.config.arrival_rate
        futures: list[ServeFuture] = []
        send_lags: list[float] = []
        start = time.perf_counter()
        for index, job in enumerate(schedule):
            intended = start + index * interval
            delay = intended - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            send_lags.append(max(0.0, time.perf_counter() - intended))
            futures.append(server.submit(job.plan, job.requested_tokens))
        for index, future in enumerate(futures):
            responses[index] = future.result(timeout=60.0)
        return send_lags

    # ------------------------------------------------------------------
    def _report(
        self,
        responses: list,
        duration: float,
        send_lags: list[float] | None = None,
    ) -> LoadReport:
        answered = [r for r in responses if r is not None]
        by_status = {status: 0 for status in ResponseStatus}
        for response in answered:
            by_status[response.status] += 1
        if send_lags is None:
            latencies = sorted(r.latency_s for r in answered)
            max_lag = 0.0
        else:
            # CO correction: latency from the intended send time = send
            # lag + the server's own submit->answer latency.
            latencies = sorted(
                lag + response.latency_s
                for lag, response in zip(send_lags, responses)
                if response is not None
            )
            max_lag = max(send_lags, default=0.0)

        def percentile(q: float) -> float | None:
            if not latencies:
                return None
            rank = min(len(latencies) - 1, int(round(q * (len(latencies) - 1))))
            return latencies[rank]

        total = len(answered)
        cached = by_status[ResponseStatus.CACHED]
        model_answered = by_status[ResponseStatus.OK] + cached
        p50, p95, p99 = percentile(0.50), percentile(0.95), percentile(0.99)
        violations = []
        for name, slo, observed in (
            ("p95", self.config.slo_p95_s, p95),
            ("p99", self.config.slo_p99_s, p99),
        ):
            if slo is not None and observed is not None and observed > slo:
                violations.append(
                    f"{name} {observed * 1e3:.2f} ms > SLO {slo * 1e3:.2f} ms"
                )
        return LoadReport(
            requests=total,
            duration_s=duration,
            throughput_rps=total / duration,
            ok=by_status[ResponseStatus.OK],
            cached=cached,
            fallback=by_status[ResponseStatus.FALLBACK],
            rejected=by_status[ResponseStatus.REJECTED],
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            cache_hit_rate=cached / model_answered if model_answered else None,
            shed_rate=by_status[ResponseStatus.REJECTED] / total if total else 0.0,
            fallback_rate=(
                by_status[ResponseStatus.FALLBACK] / total if total else 0.0
            ),
            max_send_lag_s=max_lag,
            slo_violations=tuple(violations),
        )
