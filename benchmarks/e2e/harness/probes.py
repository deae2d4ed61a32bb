"""Per-layer probes and the per-layer metrics derived from them.

A probe is a ``bench.<layer>.<call>`` span wrapped around one public
method or module attribute, installed where the program looks it up: on
the class for methods, and on the importing module for functions bound
with ``from x import f``. Spans go through ``repro.obs.trace``, so spans
that ``pmap`` pool workers record merge back into this process.

Self time is a span's duration minus the part of its interval that its
child probes cover. Parent links are followed through the program's own
spans (``serving.process_batch`` and the like), so a probe's children
are its nearest probe descendants.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from statistics import median

from repro.obs import get_registry, trace
from repro.obs.metrics import LatencyHistogram, state_delta
from repro.parallel import resolve_workers

#: Ring-buffer room for the traced runs (they record far fewer).
SPAN_CAPACITY = 2_000_000
#: The program's own span that brackets the replay bootstrap; treated as
#: a probe so the replay loop's self time excludes it.
BOOTSTRAP_SPAN = "replay.bootstrap"


def _job(value):
    return {"job": value.job_id}


def _batch(job_ids):
    job_ids = list(job_ids)
    return {"jobs": job_ids, "rows": len(job_ids)}


#: (module, attribute path, span name, attrs from the call's arguments).
#: Methods see ``self`` as ``args[0]``.
PROBES = (
    ("repro.serving.server", "AllocationServer.submit", "bench.server.submit",
     lambda a, k: _job(a[1])),
    ("repro.serving.server", "AllocationServer.request",
     "bench.server.request", lambda a, k: _job(a[1])),
    ("repro.serving.server", "AllocationServer.record_completion",
     "bench.server.record_completion", lambda a, k: _job(a[1])),
    ("repro.serving.cache", "RecommendationCache.get", "bench.cache.rec_get",
     None),
    ("repro.serving.cache", "FeatureCache.features_for",
     "bench.cache.features_for", lambda a, k: _job(a[1])),
    ("repro.serving.cache", "featurize", "bench.pipeline.featurize",
     lambda a, k: {"job": a[0].job_id}),
    ("repro.tasq.pipeline", "ScoringPipeline.score_features",
     "bench.pipeline.score_features", lambda a, k: _batch(a[1])),
    ("repro.models.xgboost_models", "XGBoostPL.predict_pccs",
     "bench.kernel.predict_pccs",
     lambda a, k: _batch(e.job_id for e in a[1].examples)),
    ("repro.replay.engine", "ReplayEngine.run", "bench.replay.run", None),
    ("repro.fleet.scheduler", "FleetStream.submit", "bench.fleet.submit",
     None),
    ("repro.fleet.scheduler", "FleetStream.advance", "bench.fleet.advance",
     None),
    ("repro.fleet.scheduler", "FleetStream.drain", "bench.fleet.drain", None),
    ("repro.fleet.allocator", "GlobalAllocator.allocate",
     "bench.fleet.allocate", None),
    ("repro.scope.execution", "ClusterExecutor.execute", "bench.exec.execute",
     None),
    ("repro.tasq.monitoring", "PredictionMonitor.observe",
     "bench.monitor.observe", None),
    ("repro.scope.generator", "WorkloadGenerator.generate",
     "bench.gen.generate",
     lambda a, k: {"jobs": a[1] if len(a) > 1 else k["num_jobs"]}),
    ("repro.tasq.pipeline", "build_dataset", "bench.dataset.build", None),
    ("repro.replay.engine", "build_dataset", "bench.dataset.build", None),
    ("repro.arepas.simulator", "AREPAS.sweep_runtimes", "bench.arepas.sweep",
     None),
    ("repro.models.dataset", "fit_from_skyline", "bench.pcc.fit", None),
    ("repro.models.xgboost_models", "XGBoostSS.fit", "bench.fit.xgboost_ss",
     None),
    ("repro.models.xgboost_models", "XGBoostPL.fit", "bench.fit.xgboost_pl",
     None),
    ("repro.models.nn_model", "NNPCCModel.fit", "bench.fit.nn", None),
    ("repro.models.gnn_model", "GNNPCCModel.fit", "bench.fit.gnn", None),
)
#: Every module that binds ``pmap`` by name.
PMAP_SITES = (
    "repro.flighting.flight",
    "repro.models.dataset",
    "repro.scope.generator",
    "repro.scope.repository",
    "repro.tasq.pipeline",
)


class ProbeSet:
    """Installs every probe on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        #: Servers whose ``submit``/``request`` ran while installed.
        self.servers: list = []

    def __enter__(self) -> "ProbeSet":
        for module, path, name, describe in PROBES:
            self._wrap(module, path, name, describe)
        for module in PMAP_SITES:
            self._wrap_pmap(module)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        # An inherited method is restored by deleting the override.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, module: str, path: str, name: str, describe) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        servers = self.servers
        note_server = name in ("bench.server.submit", "bench.server.request")
        record_hit = name == "bench.cache.rec_get"

        def probe(*args, **kwargs):
            if note_server and args[0] not in servers:
                servers.append(args[0])
            attrs = describe(args, kwargs) if describe is not None else {}
            with trace.span(name, **attrs) as span:
                result = original(*args, **kwargs)
                if record_hit:
                    span.set("hit", result is not None)
                return result

        self._patch(owner, attr, probe)

    def _wrap_pmap(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        original = module.pmap

        def probe(fn, items, workers=1, chunk_size=None):
            items = list(items)
            used = min(resolve_workers(workers), max(1, len(items)))
            with trace.span(
                "bench.pool.pmap", workers=used, items=len(items)
            ):
                return original(fn, items, workers, chunk_size)

        self._patch(module, "pmap", probe)


class SpanTree:
    """Finished wall-clock spans, linked to their nearest probe ancestor."""

    def __init__(self, spans) -> None:
        self.spans = [
            s for s in spans if not s.virtual and s.end_s is not None
        ]
        by_id = {s.span_id: s for s in self.spans}
        self.by_name: dict[str, list] = defaultdict(list)
        #: Direct children by recorded parent link (any span).
        self.raw_children: dict[int, list] = defaultdict(list)
        #: Nearest probe descendants of each probe.
        self.children: dict[int, list] = defaultdict(list)
        memo: dict[int | None, int | None] = {None: None}

        def probe_ancestor(parent_id):
            path = []
            while parent_id not in memo:
                parent = by_id.get(parent_id)
                if parent is None:
                    memo[parent_id] = None
                elif is_probe(parent):
                    memo[parent_id] = parent_id
                else:
                    path.append(parent_id)
                    parent_id = parent.parent_id
                    continue
                break
            for span_id in path:
                memo[span_id] = memo[parent_id]
            return memo[parent_id]

        for span in self.spans:
            self.by_name[span.name].append(span)
            self.raw_children[span.parent_id].append(span)
            if is_probe(span):
                owner = probe_ancestor(span.parent_id)
                if owner is not None:
                    self.children[owner].append(span)

    def self_s(self, span) -> float:
        """``span``'s duration minus the time its child probes cover."""
        intervals = sorted(
            (max(c.start_s, span.start_s), min(c.end_s, span.end_s))
            for c in self.children.get(span.span_id, ())
        )
        covered = 0.0
        cursor = span.start_s
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return max(0.0, span.duration_s - covered)

    def has_descendant(self, span, name: str) -> bool:
        return any(
            child.name == name or self.has_descendant(child, name)
            for child in self.children.get(span.span_id, ())
        )


def is_probe(span) -> bool:
    return span.name.startswith("bench.") or span.name == BOOTSTRAP_SPAN


def _counter_ratio(counters: dict, numerator: str, denominator: str) -> float:
    total = counters.get(denominator, 0)
    return counters.get(numerator, 0) / total if total else 0.0


def _quantile(histograms: dict, name: str, q: float) -> float:
    state = histograms.get(name)
    if not state or not state["count"]:
        return 0.0
    histogram = LatencyHistogram(name, state["bounds"])
    histogram.merge_state(state)
    return histogram.quantile(q)


class Recorder:
    """One traced measurement phase: probes on, tracer on, deltas taken."""

    def __init__(self, server=None) -> None:
        #: The server under test; None when the program builds its own
        #: (the replay), which is then found through the submit probes.
        self._server = server
        self.probes = ProbeSet()

    def __enter__(self) -> "Recorder":
        self._registry_before = get_registry().dump_state()
        self._server_before = self._server_state(self._server)
        trace.reset()
        trace.enable(capacity=SPAN_CAPACITY)
        self.probes.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self.probes.__exit__(*exc_info)
        trace.disable()

    @staticmethod
    def _server_state(server) -> tuple[dict, int]:
        if server is None:
            return {}, 0
        return (
            server.metrics.dump_state(),
            server.metrics.snapshot()["gauges"].get("breaker_trips", 0),
        )

    def metrics(self, wall_s: float, reallocations: int = 0) -> dict:
        """Every per-layer metric of the phase just recorded."""
        server = self._server or next(iter(self.probes.servers), None)
        after, trips_after = self._server_state(server)
        before, trips_before = self._server_before
        served = state_delta(after, before)
        registry = state_delta(
            get_registry().dump_state(), self._registry_before
        )
        return layer_metrics(
            SpanTree(trace.spans()),
            wall_s=wall_s,
            server_counters=served["counters"],
            server_histograms=served["histograms"],
            breaker_trips=trips_after - trips_before,
            registry_counters=registry["counters"],
            reallocations=reallocations,
        )


def layer_metrics(
    tree: SpanTree,
    *,
    wall_s: float,
    server_counters: dict,
    server_histograms: dict,
    breaker_trips: int,
    registry_counters: dict,
    reallocations: int,
) -> dict[str, float]:
    """``catalog.LAYER_METRICS`` of one phase; 0 where a layer never ran."""

    def spans(name):
        return tree.by_name.get(name, [])

    def total(name, scale=1.0):
        return sum(s.duration_s for s in spans(name)) * scale

    def p50(name, scale):
        durations = [s.duration_s for s in spans(name)]
        return median(durations) * scale if durations else 0.0

    def mean(name, scale):
        found = spans(name)
        return total(name) / len(found) * scale if found else 0.0

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def rows(name):
        return sum(s.attrs.get("rows", 0) for s in spans(name))

    def hit_share(kind):
        hits = registry_counters.get(f"cache.hits{{kind={kind}}}", 0)
        misses = registry_counters.get(f"cache.misses{{kind={kind}}}", 0)
        return per(hits, hits + misses)

    batch = server_histograms.get("batch_size", {})
    rec_gets = spans("bench.cache.rec_get")
    features_for = spans("bench.cache.features_for")
    scored = rows("bench.pipeline.score_features")
    kernel_rows = rows("bench.kernel.predict_pccs")
    pools = [s for s in spans("bench.pool.pmap") if s.attrs["workers"] > 1]
    pool_wall = sum(s.duration_s for s in pools)
    pool_busy = sum(
        child.duration_s for s in pools for child in tree.raw_children[s.span_id]
    )
    pool_capacity = sum(s.attrs["workers"] * s.duration_s for s in pools)
    values = {
        "server.submit_us": p50("bench.server.submit", 1e6),
        "server.submit_count": len(spans("bench.server.submit")),
        "server.queue_wait_ms_p50": _quantile(
            server_histograms, "queue_wait_s", 0.50
        ) * 1e3,
        "server.queue_wait_ms_p99": _quantile(
            server_histograms, "queue_wait_s", 0.99
        ) * 1e3,
        "server.batch_rows_mean": per(
            batch.get("sum", 0.0), batch.get("count", 0)
        ),
        "server.score_calls_per_batch": per(
            len(spans("bench.pipeline.score_features")),
            server_counters.get("batches", 0),
        ),
        "server.fallback_share.model_error": _counter_ratio(
            server_counters, "fallback_model_error", "requests_total"
        ),
        "server.fallback_share.breaker_open": _counter_ratio(
            server_counters, "fallback_breaker_open", "requests_total"
        ),
        "server.breaker_trips": breaker_trips,
        "cache.rec_hit_share": per(
            sum(1 for s in rec_gets if s.attrs.get("hit")), len(rec_gets)
        ),
        "cache.rec_get_us": p50("bench.cache.rec_get", 1e6),
        "cache.feature_hit_share": per(
            sum(
                1 for s in features_for
                if not tree.has_descendant(s, "bench.pipeline.featurize")
            ),
            len(features_for),
        ),
        "cache.features_for_us": p50("bench.cache.features_for", 1e6),
        "pipeline.featurize_us": p50("bench.pipeline.featurize", 1e6),
        "pipeline.score_us_per_row": per(
            total("bench.pipeline.score_features", 1e6), scored
        ),
        "pipeline.finalize_us_per_row": per(
            sum(
                tree.self_s(s)
                for s in spans("bench.pipeline.score_features")
            ) * 1e6,
            scored,
        ),
        "pipeline.useful_row_share": per(
            server_counters.get("responses_ok", 0), scored
        ),
        "kernel.us_per_row": per(
            total("bench.kernel.predict_pccs", 1e6), kernel_rows
        ),
        "kernel.rows_per_call": per(
            kernel_rows, len(spans("bench.kernel.predict_pccs"))
        ),
        "replay.bootstrap_s": total(BOOTSTRAP_SPAN),
        "replay.loop_self_s": sum(
            tree.self_s(s) for s in spans("bench.replay.run")
        ),
        "fleet.advance_self_ms": sum(
            tree.self_s(s)
            for name in ("bench.fleet.advance", "bench.fleet.drain")
            for s in spans(name)
        ) * 1e3,
        "fleet.allocate_us": mean("bench.fleet.allocate", 1e6),
        "fleet.allocate_calls": len(spans("bench.fleet.allocate")),
        "fleet.reallocations": reallocations,
        "exec.calls": len(spans("bench.exec.execute")),
        "exec.ms_per_call": mean("bench.exec.execute", 1e3),
        "exec.busy_share": per(total("bench.exec.execute"), wall_s),
        "monitor.observe_us": mean("bench.monitor.observe", 1e6),
        "gen.us_per_job": per(
            total("bench.gen.generate", 1e6),
            sum(s.attrs["jobs"] for s in spans("bench.gen.generate")),
        ),
        "dataset.build_s": total("bench.dataset.build"),
        "arepas.sweep_ms": total("bench.arepas.sweep", 1e3),
        "pcc.fit_us": mean("bench.pcc.fit", 1e6),
        "artifact_cache.hit_share.pcc": hit_share("pcc"),
        "artifact_cache.hit_share.features": hit_share("features"),
        "fit_s.xgboost_ss": total("bench.fit.xgboost_ss"),
        "fit_s.xgboost_pl": total("bench.fit.xgboost_pl"),
        "fit_s.nn": total("bench.fit.nn"),
        "fit_s.gnn": total("bench.fit.gnn"),
        "pool.wall_s": pool_wall,
        "pool.efficiency": per(pool_busy, pool_capacity),
    }
    return {name: float(value) for name, value in values.items()}
