"""Stratified under-sampling for flighting subset selection (Section 5.1).

The paper's four-step procedure for picking a small, representative set of
jobs to re-execute:

1. **Job filtering** — constrain the population to a pre-selected pool
   (virtual cluster, token range, time frame).
2. **Job clustering** — k-means over the population; label every pool job
   with its population cluster.
3. **Stratified sampling** — random under-sampling within each cluster
   proportional to the cluster's population share, with a cap on how
   often any single job type (template) may be chosen.
4. **Quality evaluation** — a Kolmogorov-Smirnov test confirming the
   selected subset tracks the population better than the raw pool did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SelectionError
from repro.features.encoders import StandardScaler
from repro.scope.repository import TelemetryRecord
from repro.selection.kmeans import KMeans

__all__ = [
    "SelectionResult",
    "cluster_proportions",
    "stratified_sample",
    "ks_statistic",
    "select_flighting_jobs",
]


@dataclass(frozen=True)
class SelectionResult:
    """Output of the job selection procedure."""

    selected_indices: tuple[int, ...]
    population_labels: np.ndarray
    pool_labels: np.ndarray
    selected_labels: np.ndarray
    ks_before: float
    ks_after: float

    @property
    def improved(self) -> bool:
        """True when selection moved the pool closer to the population."""
        return self.ks_after <= self.ks_before


def cluster_proportions(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """Fraction of samples in each cluster, as a length-``n`` vector."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_clusters).astype(float)
    if counts.sum() == 0:
        raise SelectionError("no samples to compute proportions over")
    return counts / counts.sum()


def stratified_sample(
    pool_labels: np.ndarray,
    population_proportions: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
    type_ids: np.ndarray | None = None,
    max_per_type: int | None = None,
) -> np.ndarray:
    """Under-sample the pool to match population cluster proportions.

    Parameters
    ----------
    pool_labels:
        Cluster label of each pool member.
    population_proportions:
        Target cluster-share vector (sums to 1).
    sample_size:
        Number of jobs to select.
    type_ids:
        Optional job-type identifier per pool member (e.g. template id),
        combined with ``max_per_type`` to cap repeats of one type.

    Returns
    -------
    numpy.ndarray
        Indices into the pool. May be smaller than ``sample_size`` when a
        cluster has too few distinct (or uncapped) members.
    """
    pool_labels = np.asarray(pool_labels)
    if sample_size < 1:
        raise SelectionError("sample_size must be positive")
    if max_per_type is not None and type_ids is None:
        raise SelectionError("max_per_type requires type_ids")

    n_clusters = population_proportions.size
    quotas = np.floor(population_proportions * sample_size).astype(int)
    # Distribute rounding remainders to the largest clusters.
    remainder = sample_size - quotas.sum()
    order = np.argsort(-population_proportions)
    for k in order[:remainder]:
        quotas[k] += 1

    selected: list[int] = []
    type_counts: dict[object, int] = {}
    for k in range(n_clusters):
        members = np.nonzero(pool_labels == k)[0]
        rng.shuffle(members)
        taken = 0
        for index in members:
            if taken >= quotas[k]:
                break
            if max_per_type is not None:
                assert type_ids is not None
                type_key = type_ids[index]
                if type_counts.get(type_key, 0) >= max_per_type:
                    continue
                type_counts[type_key] = type_counts.get(type_key, 0) + 1
            selected.append(int(index))
            taken += 1
    return np.array(sorted(selected), dtype=int)


def ks_statistic(sample: np.ndarray, population: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (lower = closer)."""
    sample = np.asarray(sample, dtype=float)
    population = np.asarray(population, dtype=float)
    if sample.size == 0 or population.size == 0:
        raise SelectionError("KS test requires non-empty samples")
    from scipy import stats  # heavy; imported on first use

    return float(stats.ks_2samp(sample, population).statistic)


def _selection_features(records: list[TelemetryRecord]) -> np.ndarray:
    """Compact per-job feature matrix used for clustering and KS checks."""
    return np.column_stack(
        [
            np.log1p([r.plan.total_cost for r in records]),
            np.log1p([r.plan.total_input_cardinality for r in records]),
            [r.plan.num_operators for r in records],
            np.log1p([float(r.requested_tokens) for r in records]),
        ]
    )


def select_flighting_jobs(
    population: list[TelemetryRecord],
    pool: list[TelemetryRecord],
    sample_size: int,
    n_clusters: int = 8,
    max_per_type: int | None = 3,
    seed: int = 0,
) -> SelectionResult:
    """Run the full four-step selection procedure on telemetry records.

    ``population`` is the whole historical workload; ``pool`` the
    pre-filtered candidates eligible for flighting. The KS quality check
    compares the log total-cost distribution of (pool, selected subset)
    against the population.
    """
    if not population or not pool:
        raise SelectionError("population and pool must be non-empty")
    if sample_size > len(pool):
        raise SelectionError("sample_size exceeds the pool size")

    population_features = _selection_features(population)
    pool_features = _selection_features(pool)
    scaler = StandardScaler().fit(population_features)

    kmeans = KMeans(n_clusters=n_clusters, seed=seed)
    population_labels = kmeans.fit_predict(scaler.transform(population_features))
    pool_labels = kmeans.predict(scaler.transform(pool_features))

    proportions = cluster_proportions(population_labels, n_clusters)
    rng = np.random.default_rng(seed)
    type_ids = np.array([r.template_id for r in pool])
    indices = stratified_sample(
        pool_labels,
        proportions,
        sample_size,
        rng,
        type_ids=type_ids,
        max_per_type=max_per_type,
    )
    if indices.size == 0:
        raise SelectionError("selection produced an empty subset")

    population_stat = population_features[:, 0]
    ks_before = ks_statistic(pool_features[:, 0], population_stat)
    ks_after = ks_statistic(pool_features[indices, 0], population_stat)

    return SelectionResult(
        selected_indices=tuple(int(i) for i in indices),
        population_labels=population_labels,
        pool_labels=pool_labels,
        selected_labels=pool_labels[indices],
        ks_before=ks_before,
        ks_after=ks_after,
    )
