"""End-to-end observability: tracing spans, unified metrics, profiling.

The diagnostic substrate of the reproduction (see
``docs/observability.md``). Everything upstream of a performance claim
should be *visible*: the workload generator, the discrete-event cluster
executor, PCC fitting, the TASQ training/scoring pipelines, and the
allocation server are permanently instrumented with spans and counters
that cost nothing until switched on.

* :mod:`repro.obs.tracing` — hierarchical spans into a thread-safe ring
  buffer; Chrome-trace export and per-span-name latency tables.
* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  log-bucketed latency histograms with label support, shared by the
  simulator, the training pipeline, and the allocation server.
* :mod:`repro.obs.profiling` — opt-in cProfile/tracemalloc capture
  attachable to spans, plus a sampling wall-clock profiler emitting
  flamegraph-compatible folded stacks.
* :mod:`repro.obs.reporting` — the human-readable report and file
  exports behind ``python -m repro trace <subcommand>``.

Usage::

    from repro.obs import trace, get_registry

    with trace.span("fit_pcc", job=job_id) as span:
        ...
        span.set("points", n)
    get_registry().counter("pcc_fits").increment()

Instrumentation is **disabled by default**: ``trace.span`` returns a
no-op context and module-level counters are skipped until
:func:`enable` is called (the ``trace`` CLI subcommand does this for
you).
"""

from repro.obs.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.profiling import SamplingProfiler, SpanProfiler
from repro.obs.reporting import (
    folded_span_stacks,
    render_report,
    write_chrome_trace,
)
from repro.obs.tracing import Span, Tracer, trace

__all__ = [
    "trace",
    "Tracer",
    "Span",
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "SpanProfiler",
    "SamplingProfiler",
    "render_report",
    "write_chrome_trace",
    "folded_span_stacks",
    "enable",
    "disable",
    "enabled",
]


def enable(capacity: int | None = None) -> None:
    """Switch the process-wide tracer (and span instrumentation) on."""
    trace.enable(capacity)


def disable() -> None:
    """Switch span instrumentation back off (buffers stay readable)."""
    trace.disable()


def enabled() -> bool:
    """Whether the process-wide tracer is currently recording."""
    return trace.enabled
