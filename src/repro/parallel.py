"""Deterministic parallel execution for the offline pipeline.

The offline path (workload synthesis -> cluster execution -> AREPAS
sweeps -> featurization -> model fitting) is embarrassingly parallel at
the per-job / per-model granularity, but naive multiprocessing breaks the
two guarantees the reproduction is built on:

* **Determinism** — results must be bit-identical whether a stage runs in
  one process or eight. :func:`pmap` preserves input order regardless of
  completion order, and :func:`spawn_seeds` derives independent per-task
  RNG streams from one root seed via :class:`numpy.random.SeedSequence`,
  so the *same* streams drive both the serial and the parallel path.
* **Observability** — ``repro.obs`` spans and metrics are process-local.
  When tracing is enabled, each worker records into its own (freshly
  reset) tracer/registry, ships the buffered spans and metric state back
  with its chunk results, and the parent merges them
  (:meth:`~repro.obs.tracing.Tracer.merge_spans`,
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_state`), so a traced
  ``--workers 8`` run produces one coherent trace.

Start method: workers are created with the ``fork`` context where the
platform offers it (Linux/macOS CPython builds; cheap, inherits the
loaded modules) and fall back to ``spawn`` elsewhere. Nothing in the
offline path depends on the choice — task functions receive all state as
pickled arguments, and per-process randomness (including Python's hash
randomization) is never used to derive results.

Failure behaviour is graceful: ``workers <= 1``, a single-item input, or
a process pool that cannot start or breaks (sandboxed environments,
resource limits, a killed worker) degrades to an in-process serial loop
that produces the identical result. An exception raised by a task itself
propagates as it would from the serial loop.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.obs import get_registry, trace

__all__ = [
    "START_METHOD",
    "resolve_workers",
    "spawn_seeds",
    "pmap",
]

#: The multiprocessing start method used for worker pools. ``fork`` where
#: available (POSIX), ``spawn`` otherwise; see the module docstring.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``--workers`` value to a positive worker count.

    ``None`` and values ``<= 0`` mean "use every available core".
    """
    if workers is None or workers <= 0:
        return multiprocessing.cpu_count()
    return int(workers)


def spawn_seeds(entropy, num: int) -> list[np.random.SeedSequence]:
    """``num`` independent child seed sequences from one root entropy.

    ``entropy`` may be an int or a tuple of ints (e.g. ``(seed, epoch)``).
    Children depend only on the root entropy and their spawn index, so the
    i-th task gets the same stream no matter how tasks are partitioned
    into chunks or processes.
    """
    if num < 0:
        raise ValueError("cannot spawn a negative number of seeds")
    return np.random.SeedSequence(entropy).spawn(num)


# ----------------------------------------------------------------------
# worker plumbing
# ----------------------------------------------------------------------
# Installed once per worker process by the pool initializer; chunk tasks
# then only ship the (small) per-item payloads.
_WORKER_FN: Callable | None = None


def _init_worker(fn: Callable, obs_enabled: bool) -> None:
    global _WORKER_FN
    _WORKER_FN = fn
    # Under `fork` the child inherits the parent's span buffer and metric
    # registry; drop that inherited state so the worker ships back only
    # what *it* recorded. Under `spawn` these start empty anyway.
    trace.reset()
    get_registry().reset()
    if obs_enabled:
        trace.enable()
    else:
        trace.disable()


def _run_chunk(items: Sequence):
    """Run one chunk in the worker; return results plus buffered obs state."""
    assert _WORKER_FN is not None, "worker initializer did not run"
    results = [_WORKER_FN(item) for item in items]
    spans = None
    if trace.enabled:
        spans = trace.spans()
        trace.reset()
    # Metrics (counters/histograms, e.g. cache hit rates) ship even when
    # tracing is off — they are cheap and callers expect registry totals
    # to be identical between serial and parallel runs.
    metrics = get_registry().dump_state()
    get_registry().reset()
    return results, spans, metrics


def _merge_worker_obs(spans, metrics) -> None:
    if spans:
        trace.merge_spans(spans)
    if metrics:
        get_registry().merge_state(metrics)


def pmap(
    fn: Callable,
    items: Iterable,
    workers: int = 1,
    chunk_size: int | None = None,
) -> list:
    """Ordered parallel map over ``items`` with a process pool.

    Semantically identical to ``[fn(item) for item in items]`` — results
    come back in input order — but chunks of items are dispatched to a
    pool of ``workers`` processes. ``fn`` must be picklable (a top-level
    function or a :func:`functools.partial` over one); it is shipped once
    per worker via the pool initializer, so large bound arguments (a
    dataset, an executor) are not re-pickled per item.

    Falls back to the serial loop when ``workers <= 1``, when there are
    fewer than two items, or when the pool cannot start its workers or
    breaks (e.g. fork blocked by a sandbox, a worker killed) — with a
    warning in the last case. A task's own exception is not a pool
    failure: it propagates, as from the serial loop, and no item runs
    twice. When ``repro.obs`` tracing is enabled, worker spans and
    metrics are merged back into the parent tracer/registry (see module
    docstring) once every chunk has returned.
    """
    items = list(items)
    workers = min(resolve_workers(workers), max(1, len(items)))
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]

    if chunk_size is None:
        # ~4 chunks per worker balances scheduling slack against
        # per-chunk pickling overhead.
        chunk_size = max(1, math.ceil(len(items) / (workers * 4)))
    chunks = [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]

    try:
        context = multiprocessing.get_context(START_METHOD)
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(fn, trace.enabled),
        ) as pool:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            # Stop at the first failure, as the serial loop would.
            wait(futures, return_when=FIRST_EXCEPTION)
            pool.shutdown(cancel_futures=True)
    except (OSError, BrokenProcessPool) as exc:  # no pool to take the tasks
        return _serial_fallback(fn, items, exc)
    broken = [
        future.exception()
        for future in futures
        if not future.cancelled()
        and isinstance(future.exception(), BrokenProcessPool)
    ]
    if broken:
        return _serial_fallback(fn, items, broken[0])
    # Raises the first failing task's own exception in input order: every
    # future cancelled after a failure was submitted after it.
    outcomes = [future.result() for future in futures]
    # Merged only once every chunk has returned, so a fallback never
    # counts a finished chunk's metrics twice.
    out: list = []
    for results, spans, metrics in outcomes:
        _merge_worker_obs(spans, metrics)
        out.extend(results)
    return out


def _serial_fallback(fn: Callable, items: list, exc: BaseException) -> list:
    warnings.warn(
        f"process pool unavailable ({exc!r}); falling back to serial "
        "execution",
        RuntimeWarning,
        stacklevel=3,
    )
    return [fn(item) for item in items]
