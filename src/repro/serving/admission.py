"""Admission control: circuit breaking.

A serving endpoint must protect itself (and its callers) from two
overload shapes:

* **bursts** — the server's bounded queue absorbs these; when it fills,
  submissions are rejected explicitly (backpressure) rather than queued
  into unbounded latency;
* **dependency failure** — when the model keeps throwing, a
  :class:`CircuitBreaker` stops sending traffic to it (open), probes it
  periodically (half-open), and restores traffic once probes succeed
  (closed), in the meantime letting the server answer from its fallback
  policy instead of surfacing exceptions.

The clock is injectable so tests drive time deterministically.
"""

from __future__ import annotations

import enum
import threading
import time
from collections.abc import Callable

from repro.exceptions import ServingError

__all__ = ["BreakerState", "CircuitBreaker"]

#: Seconds an open breaker waits before it lets probes through.
RECOVERY_S = 5.0
#: Consecutive successful probes that close a half-open breaker.
HALF_OPEN_PROBES = 2


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    * **closed** — traffic flows; ``failure_threshold`` consecutive
      failures trip the breaker.
    * **open** — ``allow()`` is False; after :data:`RECOVERY_S` seconds
      the breaker moves to half-open.
    * **half-open** — up to :data:`HALF_OPEN_PROBES` calls are let
      through; a failure re-opens (restarting the recovery clock), while
      :data:`HALF_OPEN_PROBES` consecutive successes close the breaker.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ServingError("failure threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self._clock = clock
        self._lock = threading.RLock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._trip_count = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def trip_count(self) -> int:
        """How many times the breaker has opened over its lifetime."""
        with self._lock:
            return self._trip_count

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= RECOVERY_S
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """May a scoring call proceed right now?

        In half-open state this *reserves* a probe slot, so at most
        :data:`HALF_OPEN_PROBES` calls hit the model concurrently while it
        is being felt out.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN:
                if self._probes_in_flight < HALF_OPEN_PROBES:
                    self._probes_in_flight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= HALF_OPEN_PROBES:
                    self._state = BreakerState.CLOSED
                    self._consecutive_failures = 0
                    self._opened_at = None
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._trip_count += 1
