"""Tests for observability reporting: reports, exports, CLI integration."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import SamplingProfiler, SpanProfiler
from repro.obs.reporting import (
    folded_span_stacks,
    render_report,
    span_table_rows,
    write_chrome_trace,
)
from repro.obs.tracing import Tracer


def _busy_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    with tracer.span("outer", job="j1"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    tracer.record_span("scope.stage", 0.0, 12.0, virtual=True, stage=1)
    return tracer


class TestRenderReport:
    def test_names_all_span_sites(self):
        tracer = _busy_tracer()
        report = render_report(tracer)
        for name in ("outer", "inner", "scope.stage"):
            assert name in report
        assert "3 instrumented sites" in report
        assert "[sim]" in report  # virtual spans are flagged

    def test_includes_metric_sections(self):
        registry = MetricsRegistry()
        registry.counter("jobs").increment(4)
        registry.histogram("lat_s").record(0.002)
        registry.histogram("batch_size").record(3.0)
        registry.register_gauge("depth", lambda: 9)
        report = render_report(_busy_tracer(), registry)
        assert "== counters ==" in report and "jobs" in report
        assert "== gauges ==" in report and "depth" in report
        assert "== histograms ==" in report and "lat_s" in report
        # Non-seconds histograms render as plain numbers, not µs/ms.
        batch_line = next(
            line for line in report.splitlines()
            if line.startswith("batch_size")
        )
        assert "ms" not in batch_line and "µs" not in batch_line

    def test_empty_tracer_message(self):
        report = render_report(Tracer())
        assert "no spans recorded" in report

    def test_profile_text_appended(self):
        report = render_report(_busy_tracer(), profile_text="ncalls tottime")
        assert "== profile ==" in report
        assert "ncalls tottime" in report

    def test_top_limits_rows(self):
        tracer = Tracer(enabled=True)
        for i in range(30):
            with tracer.span(f"site_{i}"):
                pass
        rows = span_table_rows(tracer, top=5)
        assert len(rows) == 5


class TestChromeTraceFile:
    def test_written_file_is_loadable(self, tmp_path):
        path = write_chrome_trace(_busy_tracer(), tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 4


class TestFoldedStacks:
    def test_paths_and_weights(self):
        tracer = Tracer(enabled=True)
        outer = tracer.record_span("outer", 0.0, 1.0)
        tracer.record_span("inner", 0.2, 0.5, parent_id=outer.span_id)
        tracer.record_span("scope.stage", 0.0, 12.0, virtual=True)
        lines = folded_span_stacks(tracer)
        assert lines, "expected folded output"
        for line in lines:
            path, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert path
        folded = dict(line.rsplit(" ", 1) for line in lines)
        # outer's self time excludes inner's 0.3 s.
        assert folded["outer"] == str(int(0.7 * 1e6))
        assert folded["outer;inner"] == str(int(0.3 * 1e6))
        assert "simulated-time;scope.stage" in folded


class TestProfilers:
    def test_span_profiler_cpu(self):
        tracer = Tracer(enabled=True)
        profiler = SpanProfiler(cpu=True, top=5)
        with tracer.span("hot") as span, profiler.attach(span):
            sum(i * i for i in range(20000))
        assert profiler.cpu_report
        (span,) = tracer.spans()
        assert "profile_cpu" in span.attrs

    def test_span_profiler_memory(self):
        profiler = SpanProfiler(cpu=False, memory=True, top=3)
        with profiler.attach(None):
            _ = [bytearray(1024) for _ in range(200)]
        assert profiler.memory_report is not None

    def test_sampling_profiler_folds_stacks(self):
        sampler = SamplingProfiler(interval_s=0.001)

        def spin():
            total = 0
            for i in range(3_000_000):
                total += i
            return total

        sampler.run(spin)
        assert sampler.samples > 0
        folded = sampler.folded()
        assert folded
        stack, count = folded[0].rsplit(" ", 1)
        assert int(count) >= 1 and ";" in stack or "(" in stack


class TestTraceCLI:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "trace.json"
        report_out = tmp_path / "report.txt"
        folded_out = tmp_path / "folded.txt"
        code = main(
            [
                "trace",
                "--trace-out", str(trace_out),
                "--report-out", str(report_out),
                "--folded-out", str(folded_out),
                "generate",
                "--jobs", "5",
                "--out", str(tmp_path / "history.npz"),
            ]
        )
        assert code == 0
        payload = json.loads(trace_out.read_text())
        names = {
            e["name"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert "scope.generate_workload" in names
        assert "scope.execute_job" in names
        assert "scope.stage" in names
        report = report_out.read_text()
        assert "scope.execute_job" in report
        assert "scope_events_processed" in report
        assert folded_out.read_text().strip()
        # Tracing must be switched back off after the run.
        from repro.obs import trace as global_trace

        assert not global_trace.enabled
        global_trace.reset()

    def test_traced_replay_reports_server_metrics(self, tmp_path, capsys):
        """The replay's server records into the traced run's registry."""
        from repro.cli import main
        from repro.obs import reset_registry, trace as global_trace

        report_out = tmp_path / "report.txt"
        code = main(
            [
                "trace",
                "--trace-out", str(tmp_path / "trace.json"),
                "--report-out", str(report_out),
                "replay", "--tiny",
            ]
        )
        assert code == 0
        report = report_out.read_text()
        for name in (
            "responses_ok", "latency_s", "recommendation_cache_hit_rate",
        ):
            assert name in report
        global_trace.reset()
        reset_registry()

    def test_trace_requires_subcommand(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 2
        assert main(["trace", "trace", "replay"]) == 2
