"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures on a
scaled-down synthetic workload (see DESIGN.md section 4). Expensive
artifacts — the executed workloads, featurized datasets, fitted models,
and the flighted validation set — are built once per session.

Each benchmark renders a paper-vs-measured table through the ``report``
fixture; the tables are printed in the pytest terminal summary and written
to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.flighting import FlightHarness, build_flighted_dataset
from repro.ml.losses import LF1, LF2, LF3
from repro.models import (
    GNNPCCModel,
    NNPCCModel,
    TrainConfig,
    XGBoostPL,
    XGBoostSS,
    build_dataset,
)
from repro.scope import WorkloadGenerator, run_workload
from repro.selection import select_flighting_jobs

RESULTS_DIR = Path(__file__).parent / "results"
_REPORTS: list[tuple[str, str]] = []


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes used by the benchmarks (env-overridable).

    The paper uses 85K training and 78K test jobs; pure-numpy training at
    that scale is infeasible here, so the defaults reproduce the *shape*
    of every result at roughly 1/150th scale. Set ``REPRO_BENCH_SCALE``
    to a multiplier (e.g. ``2``) to scale up.
    """

    train_jobs: int = 500
    test_jobs: int = 200
    flight_jobs: int = 40
    nn_epochs: int = 60
    gnn_epochs: int = 12


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    base = BenchScale()
    return BenchScale(
        train_jobs=int(base.train_jobs * multiplier),
        test_jobs=int(base.test_jobs * multiplier),
        flight_jobs=int(base.flight_jobs * multiplier),
        nn_epochs=base.nn_epochs,
        gnn_epochs=base.gnn_epochs,
    )


# ----------------------------------------------------------------------
# workloads and datasets
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def generator() -> WorkloadGenerator:
    return WorkloadGenerator(seed=2022)


@pytest.fixture(scope="session")
def train_repo(generator, scale):
    return run_workload(generator.generate(scale.train_jobs), seed=0)


@pytest.fixture(scope="session")
def test_repo(generator, train_repo, scale):
    """Next-day jobs from the same population (the 78K-job analogue).

    Depends on ``train_repo`` so the shared generator's random stream is
    always consumed in the same order regardless of which benchmark runs
    first — otherwise workload contents would vary with collection order.
    """
    del train_repo  # dependency exists only to pin generation order
    return run_workload(
        generator.generate(scale.test_jobs, start_day=1), seed=1
    )


@pytest.fixture(scope="session")
def train_dataset(train_repo):
    return build_dataset(train_repo)


@pytest.fixture(scope="session")
def test_dataset(test_repo):
    return build_dataset(test_repo)


@pytest.fixture(scope="session")
def flighted(train_repo, test_repo, scale):
    """Flighted validation set built with the Section 5.1 methodology."""
    population = train_repo.records()
    pool = [
        r for r in test_repo.records() if 10 <= r.requested_tokens <= 600
    ]
    selection = select_flighting_jobs(
        population, pool, sample_size=min(scale.flight_jobs, len(pool)),
        n_clusters=8, seed=3,
    )
    selected = [pool[i] for i in selection.selected_indices]
    harness = FlightHarness(seed=4)
    return build_flighted_dataset(selected, harness)


# ----------------------------------------------------------------------
# fitted models
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def xgb_pl(train_dataset):
    return XGBoostPL(seed=0).fit(train_dataset)


@pytest.fixture(scope="session")
def xgb_ss(xgb_pl):
    """Shares ``xgb_pl``'s booster: both variants train the same one."""
    return XGBoostSS.from_fitted(xgb_pl)


def _nn(train_dataset, loss, epochs, xgb=None, seed=0):
    return NNPCCModel(
        loss=loss,
        train_config=TrainConfig(epochs=epochs),
        xgb_model=xgb,
        seed=seed,
    ).fit(train_dataset)


def _gnn(train_dataset, loss, epochs, xgb=None, seed=0):
    return GNNPCCModel(
        loss=loss,
        train_config=TrainConfig(epochs=epochs, batch_size=32,
                                 learning_rate=2e-3),
        xgb_model=xgb,
        seed=seed,
    ).fit(train_dataset)


@pytest.fixture(scope="session")
def nn_by_loss(train_dataset, xgb_ss, scale):
    """NN trained under each of LF1/LF2/LF3 (Tables 4-6)."""
    return {
        "LF1": _nn(train_dataset, LF1(), scale.nn_epochs),
        "LF2": _nn(train_dataset, LF2(), scale.nn_epochs),
        "LF3": _nn(train_dataset, LF3(), scale.nn_epochs, xgb=xgb_ss),
    }


@pytest.fixture(scope="session")
def gnn_by_loss(train_dataset, xgb_ss, scale):
    """GNN trained under each of LF1/LF2/LF3 (Tables 4-6)."""
    return {
        "LF1": _gnn(train_dataset, LF1(), scale.gnn_epochs),
        "LF2": _gnn(train_dataset, LF2(), scale.gnn_epochs),
        "LF3": _gnn(train_dataset, LF3(), scale.gnn_epochs, xgb=xgb_ss),
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
class Reporter:
    """Collects rendered paper-vs-measured tables."""

    def add(self, title: str, text: str) -> None:
        _REPORTS.append((title, text))
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = (
            title.lower().replace(" ", "_").replace("/", "-")
            .replace("(", "").replace(")", "")
        )
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def report() -> Reporter:
    return Reporter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction tables")
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {title} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)


def fmt_pct(value: float) -> str:
    return f"{value * 100:.0f}%"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
