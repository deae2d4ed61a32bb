"""Unit tests for admission control: circuit breaking.

The breaker takes an injectable clock, so these tests drive time
explicitly and are fully deterministic.
"""

from repro.serving import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, clock, threshold=3, recovery=10.0, probes=1):
        return CircuitBreaker(
            failure_threshold=threshold,
            recovery_time=recovery,
            half_open_probes=probes,
            clock=clock,
        )

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
        breaker = self.make(clock, recovery=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(4.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_limits_probes(self):
        clock = FakeClock()
        breaker = self.make(clock, probes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # only two probes in flight

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock, probes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN  # one probe to go
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trip_count == 2
        # the recovery clock restarted at the re-trip
        clock.advance(9.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_reset_forces_closed(self):
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
