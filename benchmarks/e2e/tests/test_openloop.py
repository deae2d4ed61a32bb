"""The open-loop load generator and the capacity search, against stubs."""

import math
from dataclasses import dataclass
from enum import Enum

import pytest

from harness.openloop import CEILING_RPS, capacity_search, run_probe


class Status(Enum):
    OK = "ok"


@dataclass
class Response:
    latency_s: float
    status: Status = Status.OK
    reason: str | None = None


class Done:
    def __init__(self, response):
        self.response = response

    def result(self, timeout):
        return self.response


class VirtualClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_a_stall_is_charged_from_the_intended_send_time():
    clock = VirtualClock()

    def submit(index):
        if index == 5:
            clock.sleep(0.2)  # the server stalls the submitting thread
        return Done(Response(latency_s=0.001))

    result, responses = run_probe(
        submit, list(range(40)), rate=100.0, clock=clock, sleep=clock.sleep
    )
    assert result.sent == len(responses) == 40
    assert result.max_lag_s == pytest.approx(0.19)
    # Request 6 was due 10 ms after request 5 but left 200 ms late; the
    # server's own latency (1 ms) alone would hide that.
    assert result.latencies_s[6] == pytest.approx(0.191)
    assert result.latency(0.99) == pytest.approx(0.191)
    assert not result.passes()


def test_an_unanswered_request_counts_as_unresolved():
    class Never:
        def result(self, timeout):
            raise TimeoutError("no answer")

    clock = VirtualClock()
    result, responses = run_probe(
        lambda i: Never() if i == 2 else Done(Response(latency_s=0.001)),
        list(range(5)), rate=50.0, clock=clock, sleep=clock.sleep,
    )
    assert result.unresolved == 1 and responses[2] is None
    assert result.counts["ok"] == 4
    assert not result.passes()


def oracle(threshold, seen):
    def probe(rate):
        seen.append(rate)
        return rate <= threshold

    return probe


@pytest.mark.parametrize("threshold", [310.0, 449.0, 777.7, 5000.0, 17000.0])
def test_capacity_is_found_within_one_bisection_step(threshold):
    seen = []
    found = capacity_search(oracle(threshold, seen), 300.0, True)
    first_fail, geometric = 300.0, 0
    while first_fail <= threshold:
        first_fail *= 1.5
        geometric += 1
    step = (first_fail - first_fail / 1.5) / 2**3
    assert found <= threshold < found + step
    assert len(seen) == geometric + 3


def test_capacity_below_a_failing_reference_bisects_down_from_it():
    found = capacity_search(oracle(200.0, []), 300.0, False)
    assert 200.0 - 300.0 / 8 < found <= 200.0


@pytest.mark.parametrize("ceiling", [8000.0, CEILING_RPS])
def test_capacity_search_stops_at_the_ceiling(ceiling):
    seen = []
    found = capacity_search(
        oracle(math.inf, seen), 1500.0, True, ceiling=ceiling
    )
    assert found == ceiling
    assert seen[-1] == ceiling and max(seen) == ceiling
