"""Names, units, directions and regression bounds of the end-to-end metrics.

Two views of the same measurements:

* :data:`METRICS` are the per-workload metrics the runner prints and
  ``compare.py`` gates on, with the bounds the README justifies.
* :data:`REGISTERED_METRICS` are the few metrics every workload reports under
  one name, as ``BENCHMARK.json`` registers them; each maps to one
  workload metric per workload.
"""

from __future__ import annotations

WORKLOADS = ("serve-adhoc", "serve-recurring", "replay", "daily-retrain")

#: name -> (unit, better, bound kind, bound). A "rel" bound is a share of
#: the parent's median; an "abs" bound is in the metric's own unit. The
#: README records the measured spread behind every bound.
METRICS = {
    "capacity_rps": ("req/s", "higher", "rel", 0.45),
    "p50_ms": ("ms", "lower", "rel", 0.25),
    "model_share": ("fraction", "higher", "abs", 0.03),
    "failed_share": ("fraction", "lower", "abs", 0.0),
    "jobs_per_s": ("jobs/s", "higher", "rel", 0.10),
    "replay_s": ("s", "lower", "rel", 0.10),
    "p95_wait_s": ("virtual-s", "lower", "rel", 0.01),
    "slo_attainment": ("fraction", "higher", "rel", 0.01),
    "retrain_s": ("s", "lower", "rel", 0.15),
    "heldout_median_ape": ("%", "lower", "rel", 0.01),
    "heldout_monotone_share": ("fraction", "higher", "rel", 0.01),
    "setup_s": ("s", "lower", "rel", 0.25),
    "peak_rss_mb": ("MB", "lower", "rel", 0.10),
}

_COMMON = ("failed_share", "setup_s", "peak_rss_mb")
_SERVE = ("capacity_rps", "p50_ms", "model_share") + _COMMON
WORKLOAD_METRICS = {
    "serve-adhoc": _SERVE,
    "serve-recurring": _SERVE,
    "replay": (
        "jobs_per_s", "replay_s", "p95_wait_s", "slo_attainment",
        "model_share",
    ) + _COMMON,
    "daily-retrain": (
        "retrain_s", "heldout_median_ape", "heldout_monotone_share",
    ) + _COMMON,
}

#: registered name -> (unit, {workload: (workload metric, scale)}).
REGISTERED_METRICS = {
    "latency_ms": ("ms", {
        "serve-adhoc": ("p50_ms", 1.0),
        "serve-recurring": ("p50_ms", 1.0),
        "replay": ("replay_s", 1e3),
        "daily-retrain": ("retrain_s", 1e3),
    }),
    "model_share": ("fraction", {
        "serve-adhoc": ("model_share", 1.0),
        "serve-recurring": ("model_share", 1.0),
        "replay": ("model_share", 1.0),
        "daily-retrain": ("heldout_monotone_share", 1.0),
    }),
    "setup_s": ("s", {w: ("setup_s", 1.0) for w in WORKLOADS}),
    "peak_rss_mb": ("MB", {w: ("peak_rss_mb", 1.0) for w in WORKLOADS}),
}


def registered_metrics(workload: str, metrics: dict[str, float]) -> dict:
    """One workload's metrics under their ``BENCHMARK.json`` names."""
    out = {}
    for name, (unit, sources) in REGISTERED_METRICS.items():
        source, scale = sources[workload]
        out[name] = {"value": metrics[source] * scale, "unit": unit}
    return out


#: (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "server.submit_us": ("us", "lower"),
    "server.submit_count": ("count", "higher"),
    "server.queue_wait_ms_p50": ("ms", "lower"),
    "server.queue_wait_ms_p99": ("ms", "lower"),
    "server.batch_rows_mean": ("rows", "higher"),
    "server.score_calls_per_batch": ("count", "lower"),
    "server.fallback_share.model_error": ("fraction", "lower"),
    "server.fallback_share.breaker_open": ("fraction", "lower"),
    "server.breaker_trips": ("count", "lower"),
    "cache.rec_hit_share": ("fraction", "higher"),
    "cache.rec_get_us": ("us", "lower"),
    "cache.feature_hit_share": ("fraction", "higher"),
    "cache.features_for_us": ("us", "lower"),
    "pipeline.featurize_us": ("us", "lower"),
    "pipeline.score_us_per_row": ("us", "lower"),
    "pipeline.finalize_us_per_row": ("us", "lower"),
    "pipeline.useful_row_share": ("fraction", "higher"),
    "kernel.us_per_row": ("us", "lower"),
    "kernel.rows_per_call": ("rows", "higher"),
    "replay.bootstrap_s": ("s", "lower"),
    "replay.loop_self_s": ("s", "lower"),
    "fleet.advance_self_ms": ("ms", "lower"),
    "fleet.allocate_us": ("us", "lower"),
    "fleet.allocate_calls": ("count", "lower"),
    "fleet.reallocations": ("count", "higher"),
    "exec.calls": ("count", "lower"),
    "exec.ms_per_call": ("ms", "lower"),
    "exec.busy_share": ("fraction", "lower"),
    "monitor.observe_us": ("us", "lower"),
    "gen.us_per_job": ("us", "lower"),
    "dataset.build_s": ("s", "lower"),
    "arepas.sweep_ms": ("ms", "lower"),
    "pcc.fit_us": ("us", "lower"),
    "artifact_cache.hit_share.pcc": ("fraction", "higher"),
    "artifact_cache.hit_share.features": ("fraction", "higher"),
    "fit_s.xgboost_ss": ("s", "lower"),
    "fit_s.xgboost_pl": ("s", "lower"),
    "fit_s.nn": ("s", "lower"),
    "fit_s.gnn": ("s", "lower"),
    "pool.wall_s": ("s", "lower"),
    "pool.efficiency": ("fraction", "higher"),
}
