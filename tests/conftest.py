"""Shared fixtures: a small generated workload reused across test modules.

Workload generation + execution is deterministic but not free, so the
expensive artifacts (repository, featurized dataset, flighted dataset)
are session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flighting import FlightHarness, build_flighted_dataset
from repro.ml import blas
from repro.models import build_dataset
from repro.scope import WorkloadGenerator, run_workload
from repro.skyline import Skyline


@pytest.fixture(scope="session")
def workload_jobs():
    return WorkloadGenerator(seed=123).generate(80)


@pytest.fixture(scope="session")
def repository(workload_jobs):
    return run_workload(workload_jobs, seed=7)


@pytest.fixture(scope="session")
def dataset(repository):
    return build_dataset(repository)


@pytest.fixture(scope="session")
def flighted(repository):
    records = repository.records()[:20]
    harness = FlightHarness(seed=5, anomaly_rate=0.05)
    return build_flighted_dataset(records, harness)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def peaky_skyline():
    """A peaky skyline: short bursts over a low floor (Figure 5a)."""
    usage = np.full(200, 10.0)
    usage[20:35] = 90.0
    usage[90:100] = 80.0
    usage[150:160] = 95.0
    return Skyline(usage)


@pytest.fixture()
def flat_skyline():
    """A flat skyline: sustained moderate-high utilization (Figure 5b)."""
    usage = np.full(250, 60.0)
    usage[:10] = 20.0
    usage[-15:] = 15.0
    return Skyline(usage)


@pytest.fixture()
def blas_threads():
    """Sets OpenBLAS's thread count, as a caller outside any scope would.

    The fixture is a function of the requested count that returns the
    count OpenBLAS reports (it may allow fewer); the count from before
    the test comes back afterwards. Skips without OpenBLAS.
    """
    functions = blas._openblas()
    if functions is None:
        pytest.skip("no OpenBLAS found")
    setter, getter = functions
    previous = getter()

    def set_count(count: int) -> int:
        setter(count)
        return getter()

    yield set_count
    setter(previous)
