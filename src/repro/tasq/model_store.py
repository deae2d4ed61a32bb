"""Model registry (the AML model store of Figure 4).

An in-process, versioned registry of fitted models with metadata,
standing in for the Azure ML model store of the production system.
:class:`~repro.tasq.pipeline.TrainingPipeline` registers every model it
fits here. Deploying a model to the serving endpoint is a separate step,
:meth:`~repro.serving.server.AllocationServer.deploy`.

The store is thread-safe: registration and lookup may race freely
across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.exceptions import PipelineError
from repro.models.base import PCCPredictor

__all__ = ["ModelRecord", "ModelStore"]


@dataclass(frozen=True)
class ModelRecord:
    """One registered model plus its training metadata."""

    name: str
    model: PCCPredictor
    version: int
    metadata: dict = field(default_factory=dict)


class ModelStore:
    """Versioned, thread-safe in-memory model registry.

    All mutating and reading operations hold one re-entrant lock;
    registration and lookup may therefore race freely across threads,
    with lookups always seeing a consistent version list.
    """

    def __init__(self) -> None:
        self._records: dict[str, list[ModelRecord]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def register(
        self, name: str, model: PCCPredictor, metadata: dict | None = None
    ) -> ModelRecord:
        """Register a fitted model under ``name``; versions auto-increment."""
        with self._lock:
            versions = self._records.setdefault(name, [])
            record = ModelRecord(
                name=name,
                model=model,
                version=len(versions) + 1,
                metadata=dict(metadata or {}),
            )
            versions.append(record)
        return record

    def get(self, name: str, version: int | None = None) -> ModelRecord:
        """Fetch a model by name (latest version by default)."""
        with self._lock:
            versions = self._records.get(name)
            if not versions:
                raise PipelineError(f"no model registered under {name!r}")
            if version is None:
                return versions[-1]
            for record in versions:
                if record.version == version:
                    return record
            raise PipelineError(f"model {name!r} has no version {version}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._records
