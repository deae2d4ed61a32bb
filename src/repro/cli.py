"""Command-line interface to the TASQ reproduction.

Subcommands mirror the production workflow of Figure 4:

* ``generate`` — create a synthetic workload, execute it on the cluster
  simulator, and persist the telemetry repository,
* ``stats`` — summarise a repository (run time / token distributions),
* ``train`` — fit a PCC model on a repository and pickle it,
* ``score`` — predict PCCs and token recommendations for jobs,
* ``whatif`` — the Figure 2 token-reduction analysis,
* ``flight`` — re-execute a sample of jobs and validate AREPAS,
* ``serve`` — run the in-process allocation server over a repository,
* ``loadtest`` — drive the server with a generated workload and report
  throughput, tail latency, cache hit rate, and shed rate,
* ``fleet`` — replay a repository's jobs through the cluster-level
  global allocator (`repro.fleet`) and compare makespan / wait /
  token-hours across policies and the Default/Peak/TASQ baselines,
* ``replay`` — arrival-driven multi-tenant replay (`repro.replay`):
  seeded arrival processes feed jobs through the live allocation
  server into the shared pool, execute them, and close the loop
  through the prediction monitor (optionally retraining mid-run),
* ``trace`` — run any of the above under the observability layer
  (`repro.obs`): span tracing, the shared metrics registry, optional
  cProfile / stack sampling; emits a Chrome-loadable trace JSON and a
  human-readable report (see ``docs/observability.md``).

Example session::

    python -m repro generate --jobs 300 --out history.npz
    python -m repro train --repo history.npz --model nn --out nn.pkl
    python -m repro score --model nn.pkl --repo history.npz --limit 5
    python -m repro whatif --repo history.npz --budget 0.05
    python -m repro serve --model nn.pkl --repo history.npz
    python -m repro loadtest --jobs 200 --workers 4
    python -m repro trace loadtest --tiny
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

from repro import obs
from repro.arepas import error_summary, simulation_errors
from repro.flighting import FlightHarness, build_flighted_dataset
from repro.models import TrainConfig, build_dataset
from repro.models.gnn_model import GNNPCCModel
from repro.models.nn_model import NNPCCModel
from repro.models.xgboost_models import XGBoostPL
from repro.scope import WorkloadGenerator, run_workload
from repro.scope.serialization import load_repository, save_repository
from repro.serving import (
    AllocationServer,
    LoadGenerator,
    LoadgenConfig,
    ServerConfig,
)
from repro.tasq import ScoringPipeline, token_reduction_report

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    generator = WorkloadGenerator(seed=args.seed)
    jobs = generator.generate(args.jobs, workers=args.workers)
    print(f"executing {len(jobs)} jobs ...", file=sys.stderr)
    repository = run_workload(jobs, seed=args.seed + 1, workers=args.workers)
    path = save_repository(repository, args.out)
    stats = repository.runtime_statistics()
    print(f"wrote {path} ({len(repository)} records)")
    print(
        f"run time median {stats['runtime_median']:.0f}s, "
        f"peak tokens median {stats['peak_tokens_median']:.0f}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    repository = load_repository(args.repo)
    for key, value in repository.runtime_statistics().items():
        print(f"{key:>22}: {value:,.1f}")
    recurring = sum(1 for r in repository if r.recurring)
    print(f"{'recurring jobs':>22}: {recurring / len(repository):.0%}")
    return 0


_MODEL_BUILDERS = {
    "nn": lambda args: NNPCCModel(
        train_config=TrainConfig(epochs=args.epochs), seed=args.seed
    ),
    "gnn": lambda args: GNNPCCModel(
        train_config=TrainConfig(
            epochs=max(1, args.epochs // 4), batch_size=32, learning_rate=2e-3
        ),
        seed=args.seed,
    ),
    "xgboost": lambda args: XGBoostPL(seed=args.seed),
}


def _cmd_train(args: argparse.Namespace) -> int:
    repository = load_repository(args.repo)
    dataset = build_dataset(
        repository, workers=args.workers, cache=args.cache
    )
    model = _MODEL_BUILDERS[args.model](args)
    print(
        f"training {args.model} on {len(dataset)} jobs ...", file=sys.stderr
    )
    model.fit(dataset)
    with open(args.out, "wb") as handle:
        pickle.dump(model, handle)
    print(f"wrote {args.out} ({model.num_parameters() or 'n/a'} parameters)")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    with open(args.model, "rb") as handle:
        model = pickle.load(handle)
    repository = load_repository(args.repo)
    records = repository.records()
    if args.job is not None:
        records = [r for r in records if r.job_id == args.job]
        if not records:
            print(f"no job {args.job!r} in the repository", file=sys.stderr)
            return 1
    records = records[: args.limit]

    scorer = ScoringPipeline(
        model,
        improvement_threshold=args.threshold,
        max_slowdown=args.max_slowdown,
    )
    recommendations = scorer.score_batch(
        [r.plan for r in records], [r.requested_tokens for r in records]
    )
    if args.explain:
        from repro.tasq.explain import explain_recommendation

        for rec in recommendations:
            print(explain_recommendation(rec))
            print()
        return 0
    header = (
        f"{'job':<20} {'requested':>9} {'optimal':>8} "
        f"{'savings':>8} {'slowdown':>9}"
    )
    print(header)
    print("-" * len(header))
    for rec in recommendations:
        print(
            f"{rec.job_id:<20} {rec.requested_tokens:>9} "
            f"{rec.optimal_tokens:>8} {rec.token_savings:>7.0%} "
            f"{rec.predicted_slowdown:>8.1%}"
        )
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    repository = load_repository(args.repo)
    report = token_reduction_report(repository, args.budget)
    print(f"slowdown budget: {args.budget:.0%}")
    for label, fraction in report.bucket_fractions.items():
        print(f"  reduction {label:>7}: {fraction:>5.0%} of jobs")
    print(f"  mean reduction: {report.mean_reduction:.0%}")
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    repository = load_repository(args.repo)
    records = repository.records()[: args.sample]
    print(f"flighting {len(records)} jobs ...", file=sys.stderr)
    flighted = build_flighted_dataset(
        records, FlightHarness(seed=args.seed), workers=args.workers
    )
    print(
        f"{len(flighted)} jobs survived filters "
        f"({flighted.num_flights} flights)"
    )
    summary = error_summary(simulation_errors(flighted.arepas_inputs()))
    print(
        f"AREPAS error: median {summary['median_ape']:.1f}%, "
        f"mean {summary['mean_ape']:.1f}%, worst {summary['worst']:.0f}%"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    with open(args.model, "rb") as handle:
        model = pickle.load(handle)
    repository = load_repository(args.repo)
    records = repository.records()[: args.limit]

    pipeline = ScoringPipeline(
        model,
        improvement_threshold=args.threshold,
        max_slowdown=args.max_slowdown,
    )
    config = ServerConfig(
        workers=args.workers,
        max_batch_size=args.batch,
        deadline_s=args.deadline,
    )
    server = AllocationServer(
        pipeline,
        config,
        repository=repository,
        metrics=obs.get_registry() if obs.enabled() else None,
    )
    print(
        f"serving {len(records)} jobs through "
        f"{config.workers} workers (batch <= {config.max_batch_size}) ...",
        file=sys.stderr,
    )
    header = (
        f"{'job':<20} {'status':<8} {'requested':>9} {'granted':>8} "
        f"{'latency':>10}"
    )
    print(header)
    print("-" * len(header))
    with server:
        responses = []
        for record in records:
            response = server.request(record.plan, record.requested_tokens)
            responses.append((record, response))
            granted = response.tokens if response.tokens is not None else "-"
            print(
                f"{response.job_id:<20} {response.status.value:<8} "
                f"{record.requested_tokens:>9} {granted:>8} "
                f"{response.latency_s * 1e3:>8.2f}ms"
            )
        # Completed-job feedback: the repository knows each job's actual
        # run time, so replaying it exercises the full monitoring loop.
        for record, response in responses:
            server.record_completion(response, float(record.runtime))

    snapshot = server.metrics.snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    latency = snapshot["histograms"].get("latency_s", {})
    print()
    print(f"{'responses':>24}: ", end="")
    print(
        ", ".join(
            f"{status} {counters.get(f'responses_{status}', 0)}"
            for status in ("ok", "cached", "fallback", "rejected")
        )
    )
    for quantile in ("p50", "p95", "p99"):
        value = latency.get(quantile)
        if value is not None:
            print(f"{'latency ' + quantile:>24}: {value * 1e3:.2f} ms")
    for name in (
        "recommendation_cache_hit_rate",
        "feature_cache_hit_rate",
        "monitor_rolling_median_ape",
        "monitor_needs_retraining",
        "breaker_state",
    ):
        print(f"{name:>24}: {gauges.get(name)}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.models.xgboost_models import XGBoostPL

    if args.tiny:
        # Smoke-test scale: small enough for CI, still exercises every
        # instrumented layer (generator, executor, fitting, scoring,
        # serving) when run under `python -m repro trace`.
        args.jobs = min(args.jobs, 30)
        args.requests = min(args.requests, 60)
        args.workers = min(args.workers, 2)
        args.clients = min(args.clients, 2)

    generator = WorkloadGenerator(seed=args.seed)
    jobs = generator.generate(args.jobs)
    print(
        f"building {len(jobs)}-job history + model (seed {args.seed}) ...",
        file=sys.stderr,
    )
    repository = run_workload(jobs, seed=args.seed + 1)
    model = XGBoostPL(seed=args.seed).fit(build_dataset(repository))

    config = ServerConfig(
        workers=args.workers,
        max_batch_size=args.batch,
        rate_limit_rps=args.rate_limit,
        breaker_recovery_s=1.0,
    )
    server = AllocationServer(
        ScoringPipeline(model),
        config,
        repository=repository,
        metrics=obs.get_registry() if obs.enabled() else None,
    )
    loadgen = LoadGenerator(
        jobs,
        LoadgenConfig(
            requests=args.requests,
            clients=args.clients,
            arrival_rate=args.arrival_rate,
            seed=args.seed,
            slo_p95_s=args.slo_p95,
            slo_p99_s=args.slo_p99,
        ),
    )
    with server:
        print(f"cold pass: {args.requests} requests ...", file=sys.stderr)
        cold = loadgen.run(server)
        print("== cold pass (empty caches) ==")
        print(cold.render())
        print()
        print("warm pass: same schedule ...", file=sys.stderr)
        warm = loadgen.run(server)
        print("== warm pass (caches populated) ==")
        print(warm.render())

    gauges = server.metrics.snapshot()["gauges"]
    print()
    print(
        f"recommendation cache hit rate (lifetime): "
        f"{gauges['recommendation_cache_hit_rate']:.1%} · "
        f"feature cache: {gauges['feature_cache_hit_rate']:.1%} · "
        f"breaker: {gauges['breaker_state']}"
    )
    # Latency SLOs (when configured) gate the exit code so CI can fail
    # a run on either pass.
    return 1 if (cold.slo_violations or warm.slo_violations) else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import POLICY_NAMES, compare_policies, score_usable

    repository = load_repository(args.repo)
    records = [
        r
        for r in repository.records()
        if args.min_tokens <= r.requested_tokens <= args.max_tokens
    ]
    records = records[: args.limit]
    if not records:
        print("no jobs in the requested token range", file=sys.stderr)
        return 1

    if args.model is not None:
        with open(args.model, "rb") as handle:
            model = pickle.load(handle)
    else:
        print(
            f"no --model given: fitting XGBoostPL on {len(repository)} "
            "historical jobs ...",
            file=sys.stderr,
        )
        model = XGBoostPL(seed=args.seed).fit(build_dataset(repository))

    scorer = ScoringPipeline(
        model,
        improvement_threshold=args.threshold,
        max_slowdown=args.max_slowdown,
    )
    scored = len(records)
    records, recommendations = score_usable(scorer, records)
    if len(records) < scored:
        print(
            f"skipped {scored - len(records)} job(s) with an increasing "
            "predicted PCC",
            file=sys.stderr,
        )
    if not records:
        print("no scorable jobs in the requested range", file=sys.stderr)
        return 1

    policies = (
        POLICY_NAMES if args.policy == "all" else (args.policy,)
    )
    comparison = compare_policies(
        records,
        recommendations,
        capacity=args.cluster_cap,
        policies=policies,
        arrival_mean_s=args.arrival_mean,
        seed=args.seed,
        slowdown_floor=args.slowdown_floor,
        deadline_slack=args.deadline_slack,
    )
    print(
        f"{comparison.jobs} jobs, cluster cap "
        f"{comparison.capacity} tokens, seed {comparison.seed}"
    )
    print(comparison.render())
    if args.out is not None:
        args.out.write_text(
            json.dumps(comparison.to_json(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"(comparison written to {args.out})")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.replay import (
        ArrivalSpec,
        ReplayConfig,
        ReplayEngine,
        default_tenants,
        load_trace,
        split_round_robin,
    )
    from repro.replay.tenants import TenantSpec

    if args.arrival == "trace":
        if args.trace_file is None:
            print(
                "replay: --arrival trace needs --trace-file",
                file=sys.stderr,
            )
            return 2
        shares = split_round_robin(
            load_trace(args.trace_file), args.tenants
        )
        tenants = tuple(
            TenantSpec(
                name=base.name,
                family=base.family,
                arrival=ArrivalSpec(kind="trace", trace=share),
                slo_slowdown=args.slo_slowdown,
            )
            for base, share in zip(default_tenants(args.tenants), shares)
            if share
        )
        if not tenants:
            print("replay: trace file has no timestamps", file=sys.stderr)
            return 2
    else:
        tenants = default_tenants(
            args.tenants,
            arrival=ArrivalSpec(
                kind=args.arrival, mean_gap_s=args.mean_gap
            ),
            slo_slowdown=args.slo_slowdown,
        )
    if args.family is not None:
        tenants = tuple(
            TenantSpec(
                name=t.name,
                family=args.family,
                arrival=t.arrival,
                slo_slowdown=t.slo_slowdown,
            )
            for t in tenants
        )

    if args.tiny:
        args.duration = 120.0
        args.bootstrap_jobs = 15
    config = ReplayConfig(
        duration_s=args.duration,
        policy=args.policy,
        seed=args.seed,
        capacity=args.capacity,
        bootstrap_jobs=args.bootstrap_jobs,
        slowdown_floor=args.slowdown_floor,
        admission=args.admission,
        retrain=args.retrain,
        promotion=args.promotion,
        risk=args.risk,
        workers=args.workers,
    )
    print(
        f"replaying {args.duration:,.0f}s of {args.arrival} arrivals "
        f"across {len(tenants)} tenant(s) under policy {args.policy} ...",
        file=sys.stderr,
    )
    report = ReplayEngine(config, tenants).run()
    to_stdout = args.out is not None and str(args.out) == "-"
    # With --out -, stdout carries only the JSON so it pipes cleanly;
    # the human table moves to stderr.
    print(report.render(), file=sys.stderr if to_stdout else sys.stdout)
    if args.out is not None:
        payload = (
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
        if to_stdout:
            print(payload, end="")
        else:
            args.out.write_text(payload)
            print(f"(report written to {args.out})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run another subcommand under the observability layer."""
    from repro.obs.profiling import SamplingProfiler, SpanProfiler
    from repro.obs.reporting import (
        folded_span_stacks,
        render_report,
        write_chrome_trace,
    )

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print(
            "trace: name a subcommand to instrument, e.g. "
            "`python -m repro trace loadtest --tiny`",
            file=sys.stderr,
        )
        return 2
    if rest[0] == "trace":
        print("trace: traced runs cannot nest", file=sys.stderr)
        return 2
    inner = build_parser().parse_args(rest)

    obs.reset_registry()
    obs.trace.reset()
    obs.enable(capacity=args.span_capacity)
    profiler = SpanProfiler(top=args.profile_top) if args.profile else None
    sampler = (
        SamplingProfiler(interval_s=args.sample_interval)
        if args.sample
        else None
    )
    code = 0
    try:
        if sampler is not None:
            sampler.start()
        if profiler is not None:
            with profiler.attach(None):
                code = int(inner.func(inner))
        else:
            code = int(inner.func(inner))
    finally:
        if sampler is not None:
            sampler.stop()
        obs.disable()

    trace_path = write_chrome_trace(obs.trace, args.trace_out)
    report = render_report(
        obs.trace,
        obs.get_registry(),
        profile_text=profiler.cpu_report if profiler is not None else None,
    )
    print()
    print(f"=== observability report · trace written to {trace_path} ===")
    print(report)
    if args.report_out is not None:
        args.report_out.write_text(report + "\n")
        print(f"(report also written to {args.report_out})")
    if args.folded_out is not None:
        lines = (
            sampler.folded()
            if sampler is not None
            else folded_span_stacks(obs.trace)
        )
        args.folded_out.write_text("\n".join(lines) + "\n")
        source = "sampled" if sampler is not None else "span-tree"
        print(f"({source} folded stacks written to {args.folded_out})")
    return code


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TASQ reproduction: optimal resource allocation "
        "for big data analytics (EDBT 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate",
        aliases=["simulate"],
        help="generate + execute (simulate) a workload",
    )
    generate.add_argument("--jobs", type=int, default=300)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True)
    generate.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for synthesis/execution (1 = serial)",
    )
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="summarise a repository")
    stats.add_argument("--repo", type=Path, required=True)
    stats.set_defaults(func=_cmd_stats)

    train = sub.add_parser("train", help="train a PCC model")
    train.add_argument("--repo", type=Path, required=True)
    train.add_argument(
        "--model", choices=sorted(_MODEL_BUILDERS), default="nn"
    )
    train.add_argument("--epochs", type=int, default=60)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", type=Path, required=True)
    train.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for dataset construction (1 = serial)",
    )
    train.add_argument(
        "--cache", type=Path, default=None,
        help="artifact-cache directory; warm re-runs skip AREPAS sweeps",
    )
    train.set_defaults(func=_cmd_train)

    score = sub.add_parser("score", help="score jobs with a trained model")
    score.add_argument("--model", type=Path, required=True)
    score.add_argument("--repo", type=Path, required=True)
    score.add_argument("--job", type=str, default=None)
    score.add_argument("--limit", type=int, default=10)
    score.add_argument("--threshold", type=float, default=0.01)
    score.add_argument("--max-slowdown", type=float, default=None)
    score.add_argument(
        "--explain", action="store_true",
        help="print the full PCC chart and explanation per job",
    )
    score.set_defaults(func=_cmd_score)

    whatif = sub.add_parser("whatif", help="token-reduction analysis (Fig 2)")
    whatif.add_argument("--repo", type=Path, required=True)
    whatif.add_argument("--budget", type=float, default=0.0)
    whatif.set_defaults(func=_cmd_whatif)

    flight = sub.add_parser("flight", help="flight jobs, validate AREPAS")
    flight.add_argument("--repo", type=Path, required=True)
    flight.add_argument("--sample", type=int, default=25)
    flight.add_argument("--seed", type=int, default=0)
    flight.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for the flight sweep (1 = serial)",
    )
    flight.set_defaults(func=_cmd_flight)

    serve = sub.add_parser(
        "serve", help="replay a repository through the allocation server"
    )
    serve.add_argument("--model", type=Path, required=True)
    serve.add_argument("--repo", type=Path, required=True)
    serve.add_argument("--limit", type=int, default=50)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--batch", type=int, default=8)
    serve.add_argument("--deadline", type=float, default=None)
    serve.add_argument("--threshold", type=float, default=0.01)
    serve.add_argument("--max-slowdown", type=float, default=None)
    serve.set_defaults(func=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest", help="generate a workload and load-test the server"
    )
    loadtest.add_argument("--jobs", type=int, default=200)
    loadtest.add_argument("--requests", type=int, default=400)
    loadtest.add_argument("--workers", type=int, default=4)
    loadtest.add_argument("--clients", type=int, default=4)
    loadtest.add_argument("--batch", type=int, default=8)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--rate-limit", type=float, default=None,
        help="admitted requests/second (token bucket); default unlimited",
    )
    loadtest.add_argument(
        "--arrival-rate", type=float, default=None,
        help="open-loop arrival rate; default closed-loop clients",
    )
    loadtest.add_argument(
        "--tiny", action="store_true",
        help="smoke-test scale (30 jobs / 60 requests); used by CI",
    )
    loadtest.add_argument(
        "--slo-p95", type=float, default=None,
        help="p95 latency SLO in seconds; violations fail the run",
    )
    loadtest.add_argument(
        "--slo-p99", type=float, default=None,
        help="p99 latency SLO in seconds; violations fail the run",
    )
    loadtest.set_defaults(func=_cmd_loadtest)

    fleet = sub.add_parser(
        "fleet",
        help="compare cluster-level global allocation policies",
        description="Replay a repository's jobs through the fleet "
        "scheduler under a shared token cap and compare cluster-wide "
        "makespan / wait time / token-hours across allocation policies "
        "and the Default/Peak/per-job-TASQ baselines (docs/fleet.md). "
        "Runs are fully seeded and reproducible.",
    )
    fleet.add_argument("--repo", type=Path, required=True)
    fleet.add_argument(
        "--model", type=Path, default=None,
        help="pickled PCC model; omitted = fit XGBoostPL on the repo",
    )
    fleet.add_argument(
        "--cluster-cap", type=int, default=None,
        help="shared token pool size; default = the stream's largest "
        "single request",
    )
    fleet.add_argument(
        "--policy",
        choices=["all", "water_filling", "knapsack", "deadline"],
        default="all",
        help="global allocation policy to evaluate (default: all)",
    )
    fleet.add_argument("--limit", type=int, default=200)
    fleet.add_argument("--min-tokens", type=int, default=2)
    fleet.add_argument("--max-tokens", type=int, default=600)
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument(
        "--arrival-mean", type=float, default=15.0,
        help="mean inter-arrival gap (seconds) of the Poisson stream",
    )
    fleet.add_argument("--threshold", type=float, default=10.0)
    fleet.add_argument("--max-slowdown", type=float, default=0.10)
    fleet.add_argument(
        "--slowdown-floor", type=float, default=0.25,
        help="protective SLO: never squeeze a job beyond this predicted "
        "slowdown versus its request",
    )
    fleet.add_argument(
        "--deadline-slack", type=float, default=0.25,
        help="deadline policy: per-job deadline as (1+slack) x predicted "
        "run time at the requested tokens",
    )
    fleet.add_argument(
        "--out", type=Path, default=None,
        help="also write the comparison as JSON to this path",
    )
    fleet.set_defaults(func=_cmd_fleet)

    replay = sub.add_parser(
        "replay",
        help="arrival-driven multi-tenant replay (closed serving loop)",
        description="Generate seeded multi-tenant arrival streams, ask "
        "the live allocation server for a recommendation per arriving "
        "job, admit it into the shared token pool, execute it on the "
        "cluster simulator, and feed the observed run time back into "
        "the prediction monitor (docs/replay.md). Identical seeds give "
        "bit-identical reports at any --workers setting.",
    )
    replay.add_argument(
        "--arrival",
        choices=["poisson", "diurnal", "bursty", "trace"],
        default="poisson",
        help="arrival process family (default: poisson)",
    )
    replay.add_argument(
        "--trace-file", type=Path, default=None,
        help="timestamps for --arrival trace, one per line",
    )
    replay.add_argument(
        "--tenants", type=int, default=3,
        help="number of tenants (families rotate tpch/streaming/"
        "ml_training/etl_skew)",
    )
    replay.add_argument(
        "--family",
        choices=["tpch", "streaming", "ml_training", "etl_skew"],
        default=None,
        help="force every tenant onto one workload family",
    )
    replay.add_argument(
        "--duration", type=float, default=900.0,
        help="virtual seconds of arrivals to generate (default 900)",
    )
    replay.add_argument(
        "--mean-gap", type=float, default=30.0,
        help="per-tenant mean inter-arrival gap in seconds (default 30)",
    )
    replay.add_argument(
        "--policy",
        choices=[
            "default", "peak", "tasq",
            "water_filling", "knapsack", "deadline",
        ],
        default="water_filling",
        help="allocation regime (default: water_filling)",
    )
    replay.add_argument(
        "--admission", choices=["fcfs", "backfill"], default="fcfs",
        help="queue order: strict FCFS or EASY backfill",
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--capacity", type=int, default=None,
        help="shared token pool; default = the largest single request",
    )
    replay.add_argument("--bootstrap-jobs", type=int, default=120)
    replay.add_argument("--slowdown-floor", type=float, default=0.25)
    replay.add_argument(
        "--slo-slowdown", type=float, default=2.0,
        help="per-tenant SLO: attained when slowdown <= this factor",
    )
    replay.add_argument(
        "--retrain", action="store_true",
        help="refit + hot-swap the model when the drift monitor fires",
    )
    replay.add_argument(
        "--promotion", choices=("immediate", "shadow"),
        default="immediate",
        help="how a retrained model deploys: immediate hot-swap, or "
        "shadow champion-challenger gated on accuracy + coverage "
        "(docs/uncertainty.md)",
    )
    replay.add_argument(
        "--risk", type=float, default=None,
        help="risk level in (0, 1) for recommendations and deadline "
        "floors; e.g. 0.9 = SLOs hold at the q90 of predicted run time "
        "(default: point estimates)",
    )
    replay.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for the bootstrap (output identical "
        "at any value)",
    )
    replay.add_argument(
        "--tiny", action="store_true",
        help="smoke-test scale: 120s window, 15 bootstrap jobs "
        "(overrides --duration/--bootstrap-jobs)",
    )
    replay.add_argument(
        "--out", type=Path, default=None,
        help="write the report as JSON to this path ('-' = stdout)",
    )
    replay.set_defaults(func=_cmd_replay)

    traced = sub.add_parser(
        "trace",
        help="run another subcommand under tracing/metrics/profiling",
        description="Run any repro subcommand with the observability "
        "layer enabled; writes a chrome://tracing JSON and prints a "
        "span/metric report (docs/observability.md).",
    )
    traced.add_argument(
        "--trace-out", type=Path, default=Path("trace.json"),
        help="where to write the Chrome-loadable trace (default trace.json)",
    )
    traced.add_argument(
        "--report-out", type=Path, default=None,
        help="also write the printed report to this file",
    )
    traced.add_argument(
        "--folded-out", type=Path, default=None,
        help="write flamegraph-compatible folded stacks to this file",
    )
    traced.add_argument(
        "--profile", action="store_true",
        help="run the whole command under cProfile (deterministic)",
    )
    traced.add_argument("--profile-top", type=int, default=20)
    traced.add_argument(
        "--sample", action="store_true",
        help="run the wall-clock sampling profiler alongside tracing",
    )
    traced.add_argument("--sample-interval", type=float, default=0.005)
    traced.add_argument(
        "--span-capacity", type=int, default=65536,
        help="ring-buffer size for recorded spans",
    )
    traced.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="the subcommand (and its flags) to run instrumented",
    )
    traced.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        return 0
