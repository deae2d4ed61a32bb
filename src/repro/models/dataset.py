"""Training/evaluation datasets for the PCC prediction models.

A :class:`PCCDataset` is built from a telemetry repository: for every
historical job it

* runs the AREPAS sweep and fits the power-law PCC, whose ``(a, log b)``
  parameters become the trend-model targets (Sections 3-4),
* extracts the aggregated job-level feature vector (XGBoost/NN input),
* extracts the operator-level graph sample (GNN input),
* generates the discrete point-augmented observations for the XGBoost
  run-time model (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.arepas.augmentation import (
    AugmentedObservation,
    augment_point_observations,
    default_token_grid,
)
from repro.arepas.simulator import AREPAS
from repro.cache import ArtifactCache, features_cache_key, pcc_cache_key
from repro.exceptions import ModelError
from repro.features.graph_features import GraphSample
from repro.features.plan_features import featurize
from repro.obs import trace
from repro.parallel import pmap
from repro.pcc.curve import PowerLawPCC
from repro.pcc.fitting import fit_from_skyline
from repro.scope.repository import JobRepository, TelemetryRecord
from repro.scope.signatures import plan_content_signature, skyline_signature

__all__ = ["PCCExample", "PCCDataset", "build_dataset"]


@dataclass(frozen=True)
class PCCExample:
    """One job's features, targets, and augmentation."""

    job_id: str
    observed_tokens: float
    observed_runtime: float
    target_pcc: PowerLawPCC
    job_features: np.ndarray
    #: None for an example featurized for a model that reads no graph.
    graph: GraphSample | None
    point_observations: tuple[AugmentedObservation, ...]

    @property
    def target_parameters(self) -> tuple[float, float]:
        """``(a, log b)`` — the trend-model regression target."""
        return self.target_pcc.log_parameters()


@dataclass
class PCCDataset:
    """A featurized collection of :class:`PCCExample` objects."""

    examples: list[PCCExample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    # ------------------------------------------------------------------
    # matrix views
    # ------------------------------------------------------------------
    def job_feature_matrix(self) -> np.ndarray:
        """``(M, P_J)`` aggregated job features."""
        self._require_nonempty()
        return np.vstack([e.job_features for e in self.examples])

    def target_matrix(self) -> np.ndarray:
        """``(M, 2)`` targets ``(a, log b)``."""
        self._require_nonempty()
        return np.array([e.target_parameters for e in self.examples])

    def observed_tokens(self) -> np.ndarray:
        return np.array([e.observed_tokens for e in self.examples])

    def observed_runtimes(self) -> np.ndarray:
        return np.array([e.observed_runtime for e in self.examples])

    def graph_samples(self) -> list[GraphSample]:
        samples = [e.graph for e in self.examples]
        if any(sample is None for sample in samples):
            raise ModelError(
                "an example was featurized without its graph sample"
            )
        return samples

    def point_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Expanded (features+log tokens, runtime) rows for XGBoost.

        Each job contributes one row per augmented observation; the token
        count is appended (in log space) as an extra feature column.
        """
        self._require_nonempty()
        total = sum(len(e.point_observations) for e in self.examples)
        width = self.examples[0].job_features.shape[0] + 1
        rows = np.empty((total, width), dtype=np.float64)
        targets = np.empty(total, dtype=np.float64)
        offset = 0
        for example in self.examples:
            count = len(example.point_observations)
            block = slice(offset, offset + count)
            rows[block, :-1] = example.job_features
            rows[block, -1] = np.log(
                [obs.tokens for obs in example.point_observations]
            )
            targets[block] = [
                obs.runtime for obs in example.point_observations
            ]
            offset += count
        return rows, targets

    def _require_nonempty(self) -> None:
        if not self.examples:
            raise ModelError("dataset is empty")


def build_dataset(
    repository: JobRepository | list[TelemetryRecord],
    grid_points: int = 8,
    simulator: AREPAS | None = None,
    workers: int = 1,
    cache: ArtifactCache | str | Path | None = None,
) -> PCCDataset:
    """Featurize a repository into a :class:`PCCDataset`.

    ``grid_points`` controls the AREPAS sweep resolution used to fit each
    job's target PCC. Jobs whose reference allocation is a single token
    (no room below the observed allocation) are skipped — their PCC is
    unidentifiable.

    ``workers > 1`` builds examples across a process pool
    (:func:`repro.parallel.pmap`); per-record construction is a pure
    function of the record, so parallel output is bit-identical to the
    serial one. ``cache`` (an :class:`~repro.cache.ArtifactCache` or a
    directory path) memoizes each record's fitted target PCC + point
    augmentation (keyed on the skyline's content hash and the sweep
    parameters) and its plan-derived features (keyed on the plan's
    content hash), so warm re-builds skip the AREPAS sweeps and
    featurization entirely.
    """
    simulator = simulator or AREPAS()
    if cache is not None and not isinstance(cache, ArtifactCache):
        cache = ArtifactCache(cache)
    records = (
        repository.records()
        if isinstance(repository, JobRepository)
        else list(repository)
    )
    build_one = partial(
        _build_example,
        grid_points=grid_points,
        simulator=simulator,
        cache=cache,
    )
    with trace.span("models.build_dataset", records=len(records)) as span:
        examples = [
            example
            for example in pmap(build_one, records, workers=workers)
            if example is not None
        ]
        span.set("examples", len(examples))
    if not examples:
        raise ModelError("no usable records in the repository")
    return PCCDataset(examples=examples)


def _build_example(
    record: TelemetryRecord,
    grid_points: int,
    simulator: AREPAS,
    cache: ArtifactCache | None,
) -> PCCExample | None:
    """One record's example — a pure function, safe to run in any process."""
    if record.requested_tokens < 2:
        return None
    target, points = _fit_target(record, grid_points, simulator, cache)
    job_features, graph = _featurize_plan(record, cache)
    return PCCExample(
        job_id=record.job_id,
        observed_tokens=float(record.requested_tokens),
        observed_runtime=float(record.runtime),
        target_pcc=target,
        job_features=job_features,
        graph=graph,
        point_observations=points,
    )


def _fit_target(
    record: TelemetryRecord,
    grid_points: int,
    simulator: AREPAS,
    cache: ArtifactCache | None,
) -> tuple[PowerLawPCC, tuple[AugmentedObservation, ...]]:
    """Fitted target PCC + point augmentation, memoized on skyline content."""
    key = None
    if cache is not None:
        key = pcc_cache_key(
            skyline_signature(record.skyline),
            record.requested_tokens,
            grid_points,
            simulator.preserve_area_exactly,
        )
        cached = cache.get(key, kind="pcc")
        if cached is not None:
            return cached
    grid = default_token_grid(record.requested_tokens, num_points=grid_points)
    target = fit_from_skyline(record.skyline, record.requested_tokens, grid)
    points = tuple(
        augment_point_observations(
            record.skyline, record.requested_tokens, simulator=simulator
        )
    )
    if cache is not None:
        cache.put(key, (target, points), kind="pcc")
    return target, points


def _featurize_plan(
    record: TelemetryRecord, cache: ArtifactCache | None
) -> tuple[np.ndarray, GraphSample]:
    """Job vector + graph sample, memoized on plan content.

    Keyed purely on the plan's content signature, so recurring instances
    with identical estimates (and any byte-identical plans across jobs)
    share one entry.
    """
    key = None
    if cache is not None:
        key = features_cache_key(plan_content_signature(record.plan))
        cached = cache.get(key, kind="features")
        if cached is not None:
            return cached
    plan_features = featurize(record.plan)
    features = (plan_features.job_vector, plan_features.graph)
    if cache is not None:
        cache.put(key, features, kind="features")
    return features
