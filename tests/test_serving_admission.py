"""Unit tests for admission control: circuit breaking.

The breaker takes an injectable clock, so these tests drive time
explicitly and are fully deterministic.
"""

from repro.serving import BreakerState, CircuitBreaker
from repro.serving.admission import HALF_OPEN_PROBES, RECOVERY_S


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, clock, threshold=3):
        return CircuitBreaker(failure_threshold=threshold, clock=clock)

    def test_trips_after_consecutive_failures(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trip_count == 1

    def test_success_resets_failure_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_recovery_time(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_S - 0.1)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_limits_probes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_S)
        for _ in range(HALF_OPEN_PROBES):
            assert breaker.allow()
        assert not breaker.allow()  # every probe slot is in flight

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_S)
        for _ in range(HALF_OPEN_PROBES - 1):
            assert breaker.allow()
            breaker.record_success()
            assert breaker.state is BreakerState.HALF_OPEN  # probes to go
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(RECOVERY_S)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trip_count == 2
        # the recovery clock restarted at the re-trip
        clock.advance(RECOVERY_S - 0.1)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN
