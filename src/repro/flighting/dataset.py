"""Flighted dataset assembly (Sections 5.1, 5.2, 5.4).

Combines the flight harness with the Section 5.1 anomaly filters to build
the validation datasets of the paper:

* the **non-anomalous** set — jobs whose flights pass all three filters,
* the **fully-matched** subset — jobs whose executions all conserve area
  within a tolerance (zero outliers),
* per-job AREPAS validation inputs and model ground truth at multiple
  token counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arepas.validation import count_outlier_executions
from repro.exceptions import FlightingError
from repro.features.plan_features import featurize
from repro.flighting.flight import Flight, FlightHarness
from repro.models.dataset import PCCDataset, PCCExample
from repro.arepas.augmentation import AugmentedObservation
from repro.pcc.curve import PowerLawPCC
from repro.pcc.fitting import fit_power_law
from repro.scope.repository import TelemetryRecord
from repro.selection.filters import FlightObservation, apply_flight_filters
from repro.skyline.skyline import Skyline

__all__ = ["FlightedJob", "FlightedDataset", "build_flighted_dataset"]


@dataclass(frozen=True)
class FlightedJob:
    """One job's surviving flights plus its original telemetry."""

    record: TelemetryRecord
    flights: tuple[Flight, ...]

    def __post_init__(self) -> None:
        if len(self.flights) < 2:
            raise FlightingError("a flighted job needs at least two flights")

    # ------------------------------------------------------------------
    def runtime_by_tokens(self) -> dict[int, float]:
        """Mean run time per distinct token count, replicas averaged."""
        grouped: dict[int, list[int]] = {}
        for flight in self.flights:
            grouped.setdefault(flight.tokens, []).append(flight.runtime)
        return {tokens: float(np.mean(runs)) for tokens, runs in grouped.items()}

    @property
    def token_levels(self) -> list[int]:
        """Distinct flighted token counts, ascending."""
        return sorted({f.tokens for f in self.flights})

    @property
    def reference_tokens(self) -> int:
        """The largest flighted allocation (the 100% level)."""
        return self.token_levels[-1]

    def reference_runtime(self) -> float:
        return self.runtime_by_tokens()[self.reference_tokens]

    def reference_skyline(self) -> Skyline:
        """First replica's skyline at the reference allocation."""
        for flight in self.flights:
            if flight.tokens == self.reference_tokens:
                return flight.skyline
        raise FlightingError("no flight at the reference allocation")

    def skylines_per_level(self) -> list[Skyline]:
        """One skyline per token level (first replica of each)."""
        chosen: dict[int, Skyline] = {}
        for flight in self.flights:
            chosen.setdefault(flight.tokens, flight.skyline)
        return [chosen[tokens] for tokens in self.token_levels]

    def ground_truth_pcc(self) -> PowerLawPCC:
        """Power law fitted to the flighted (tokens, run time) means."""
        by_tokens = self.runtime_by_tokens()
        tokens = np.array(sorted(by_tokens))
        runtimes = np.array([by_tokens[t] for t in tokens])
        return fit_power_law(tokens.astype(float), runtimes)


@dataclass
class FlightedDataset:
    """The filtered flighted validation dataset."""

    jobs: list[FlightedJob]
    num_dropped_isolated: int = 0
    num_dropped_errant: int = 0
    num_dropped_non_monotonic: int = 0

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def num_flights(self) -> int:
        return sum(len(job.flights) for job in self.jobs)

    @property
    def num_unique_token_counts(self) -> int:
        return len(
            {(job.record.job_id, level) for job in self.jobs for level in job.token_levels}
        )

    # ------------------------------------------------------------------
    # AREPAS validation views (Section 5.2)
    # ------------------------------------------------------------------
    def per_job_skylines(self) -> list[list[Skyline]]:
        """One skyline per token level per job (area-conservation checks)."""
        return [job.skylines_per_level() for job in self.jobs]

    def arepas_inputs(
        self,
    ) -> list[tuple[str, Skyline, float, list[tuple[float, float]]]]:
        """Per-job inputs for :func:`repro.arepas.validation.simulation_errors`.

        The reference execution (largest token count) seeds the simulator;
        the other levels' mean run times are the ground truth.
        """
        inputs = []
        for job in self.jobs:
            reference = job.reference_skyline()
            by_tokens = job.runtime_by_tokens()
            targets = [
                (float(tokens), by_tokens[tokens])
                for tokens in job.token_levels
                if tokens != job.reference_tokens
            ]
            if targets:
                inputs.append(
                    (job.record.job_id, reference, float(job.reference_tokens), targets)
                )
        return inputs

    def fully_matched(self, tolerance: float = 30.0) -> "FlightedDataset":
        """Jobs whose executions all conserve area within ``tolerance``%."""
        jobs = [
            job
            for job in self.jobs
            if count_outlier_executions(job.skylines_per_level(), tolerance) == 0
        ]
        return FlightedDataset(jobs=jobs)

    # ------------------------------------------------------------------
    # model evaluation views (Section 5.4)
    # ------------------------------------------------------------------
    def to_pcc_dataset(self) -> PCCDataset:
        """A model-facing dataset with flight-derived ground truth.

        Targets are the PCCs fitted to the *flighted* run times (true
        ground truth rather than AREPAS proxies); the observed point is
        the reference (largest) flighted allocation.
        """
        dataset = PCCDataset()
        for job in self.jobs:
            record = job.record
            observations = tuple(
                AugmentedObservation(
                    tokens=float(tokens), runtime=runtime, source="observed"
                )
                for tokens, runtime in sorted(job.runtime_by_tokens().items())
            )
            features = featurize(record.plan)
            dataset.examples.append(
                PCCExample(
                    job_id=record.job_id,
                    observed_tokens=float(job.reference_tokens),
                    observed_runtime=job.reference_runtime(),
                    target_pcc=job.ground_truth_pcc(),
                    job_features=features.job_vector,
                    graph=features.graph,
                    point_observations=observations,
                )
            )
        if not dataset.examples:
            raise FlightingError("flighted dataset is empty")
        return dataset

    def evaluation_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (example index, tokens, true run time) triples.

        Used for the Table 8 point-prediction error over *all* flighted
        token counts, not only the reference one.
        """
        example_idx: list[int] = []
        tokens: list[float] = []
        runtimes: list[float] = []
        for i, job in enumerate(self.jobs):
            for level, runtime in sorted(job.runtime_by_tokens().items()):
                example_idx.append(i)
                tokens.append(float(level))
                runtimes.append(runtime)
        return (
            np.array(example_idx, dtype=int),
            np.array(tokens),
            np.array(runtimes),
        )


def build_flighted_dataset(
    records: list[TelemetryRecord],
    harness: FlightHarness | None = None,
    monotonicity_tolerance: float = 0.10,
    workers: int = 1,
) -> FlightedDataset:
    """Flight every record, filter anomalies, and assemble the dataset.

    Per the paper, filters run on the per-(job, token) *mean* flights;
    surviving jobs keep all their replicas. ``workers > 1`` runs the
    flight sweep across a process pool with identical results.
    """
    if not records:
        raise FlightingError("no records to flight")
    harness = harness or FlightHarness()
    flights_by_job = harness.flight_workload(records, workers=workers)

    observations: list[FlightObservation] = []
    for job_id, flights in flights_by_job.items():
        by_tokens: dict[int, list[Flight]] = {}
        for flight in flights:
            by_tokens.setdefault(flight.tokens, []).append(flight)
        for tokens, group in by_tokens.items():
            observations.append(
                FlightObservation(
                    job_id=job_id,
                    tokens=float(tokens),
                    runtime=float(np.mean([f.runtime for f in group])),
                    peak_usage=float(np.max([f.peak_usage for f in group])),
                )
            )

    report = apply_flight_filters(
        observations, monotonicity_tolerance=monotonicity_tolerance
    )
    surviving_levels: dict[str, set[float]] = {}
    for kept in report.kept:
        surviving_levels.setdefault(kept.job_id, set()).add(kept.tokens)

    record_by_id = {r.job_id: r for r in records}
    jobs = []
    for job_id, levels in sorted(surviving_levels.items()):
        if len(levels) < 2:
            continue
        flights = tuple(
            f for f in flights_by_job[job_id] if float(f.tokens) in levels
        )
        jobs.append(FlightedJob(record=record_by_id[job_id], flights=flights))

    return FlightedDataset(
        jobs=jobs,
        num_dropped_isolated=len(report.dropped_isolated),
        num_dropped_errant=len(report.dropped_errant),
        num_dropped_non_monotonic=len(report.dropped_non_monotonic),
    )
