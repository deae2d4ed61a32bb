"""End-to-end benchmark: every workload, every metric, one command.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --workload replay --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace out/trace   # per-layer run

Each workload runs in its own subprocess. The runner prints every metric
as ``workload metric value unit``, writes a result JSON (``--out``), and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics under their ``BENCHMARK.json`` names. It exits non-zero when a
correctness check fails or a workload does not finish.

``--trace`` takes ``0`` (off), ``1`` (on, files under ``out/trace``) or a
directory. Tracing reruns each workload with probes installed, writes
``<workload>.layers.json`` and ``<workload>.trace.json`` there, prints
the tracing overhead, and puts the per-layer metrics in the JSON line.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(REPO / "src")]

from harness.catalog import (  # noqa: E402
    LAYER_METRICS,
    METRICS,
    WORKLOAD_METRICS,
    WORKLOADS,
    registered_metrics,
)

SETUP_REPEATS = 3
#: One workload's run, tracing included, must end within 180 s.
DEADLINE_S = 170.0
#: End-to-end metric compared between the traced and untraced runs.
OVERHEAD_METRIC = {
    "serve-adhoc": "p50_ms",
    "serve-recurring": "p50_ms",
    "replay": "jobs_per_s",
    "daily-retrain": "retrain_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default="0", metavar="0|1|DIR")
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--smoke", action="store_true",
        help="all workloads at tiny scale, for a quick end-to-end check",
    )
    # Set by the runner when it starts one workload's subprocess.
    parser.add_argument("--child-out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--capacity", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def trace_dir(args) -> Path | None:
    if args.trace == "0":
        return None
    return OUT / "trace" if args.trace == "1" else Path(args.trace)


# ----------------------------------------------------------------------
# one workload, in its own process
# ----------------------------------------------------------------------
def run_child(args) -> None:
    from harness.workloads import WORKLOADS as RUNNERS
    from harness.workloads import Scale

    imported = time.perf_counter()
    workload = RUNNERS[args.workload]
    scale = Scale.smoke() if args.smoke else Scale(seconds=args.seconds)
    traced = trace_dir(args)
    began = time.perf_counter()
    inputs = workload.inputs(args.seed, scale)
    inputs_s = time.perf_counter() - began
    setup_runs = []
    state = None
    for _ in range(1 if traced else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        began = time.perf_counter()
        state = workload.setup(args.seed, scale, inputs, OUT / "tmp")
        setup_runs.append(time.perf_counter() - began)
    # The pregenerated inputs must not be rescanned by the collector
    # during probes.
    gc.collect()
    gc.freeze()
    try:
        if traced:
            outcome = workload.trace(
                state, inputs, scale, traced, args.capacity
            )
        else:
            outcome = workload.measure(state, inputs, scale)
    finally:
        workload.teardown(state)
    outcome.metrics["setup_s"] = (
        imported - STARTED + inputs_s + statistics.median(setup_runs)
    )
    outcome.metrics["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": traced is not None,
        "metrics": outcome.metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "check_failures": outcome.check_failures,
        "setup": {
            "import_s": imported - STARTED,
            "inputs_s": inputs_s,
            "runs_s": setup_runs,
        },
        "details": outcome.details,
        "layers": outcome.layers,
    }
    args.child_out.parent.mkdir(parents=True, exist_ok=True)
    args.child_out.write_text(json.dumps(result, indent=1))


def spawn(args, workload: str, traced: Path | None, capacity, deadline):
    """Run one workload in a subprocess; its result dict, or None."""
    suffix = "traced" if traced else "run"
    out = OUT / "tmp" / f"{workload}-seed{args.seed}-{suffix}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--child-out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if traced:
        command += ["--trace", str(traced), "--capacity", str(capacity or 0)]
    try:
        done = subprocess.run(
            command, timeout=max(1.0, deadline - time.perf_counter())
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: did not finish in time", file=sys.stderr)
        return None
    if done.returncode != 0 or not out.exists():
        print(f"{workload}: exited with {done.returncode}", file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    out.unlink()
    return result


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def tracing_overhead(workload: str, plain: dict, traced: dict) -> dict:
    metric = OVERHEAD_METRIC[workload]
    before = plain["metrics"][metric]
    after = traced["metrics"][metric]
    return {
        "metric": metric,
        "untraced": before,
        "traced": after,
        "ratio": after / before if before else None,
    }


def write_layers(directory: Path, workload: str, seed: int, traced, overhead):
    directory.mkdir(parents=True, exist_ok=True)
    layers = {
        name: {"value": traced["layers"][name], "unit": unit, "better": better}
        for name, (unit, better) in LAYER_METRICS.items()
    }
    payload = {
        "workload": workload, "seed": seed, "metrics": layers,
        "tracing_overhead": overhead,
    }
    (directory / f"{workload}.layers.json").write_text(
        json.dumps(payload, indent=1)
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child_out is not None:
        run_child(args)
        return 0
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program source under {REPO / 'src'}", file=sys.stderr)
        return 2
    from harness.context import run_context

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    deadline = STARTED + DEADLINE_S * len(workloads)
    traced_dir = trace_dir(args)
    results: dict[str, dict] = {}
    for workload in workloads:
        plain = spawn(args, workload, None, None, deadline)
        if plain is None:
            return 1
        results[workload] = plain
        if traced_dir is not None:
            traced = spawn(
                args, workload, traced_dir,
                plain["metrics"].get("capacity_rps"), deadline,
            )
            if traced is None:
                return 1
            overhead = tracing_overhead(workload, plain, traced)
            write_layers(traced_dir, workload, args.seed, traced, overhead)
            plain["traced"] = traced
            plain["tracing_overhead"] = overhead

    summary_metrics = {}
    for workload, result in results.items():
        for name in WORKLOAD_METRICS[workload]:
            unit = METRICS[name][0]
            print(f"{workload} {name} {result['metrics'][name]:.6g} {unit}")
        if traced_dir is None:
            named = registered_metrics(workload, result["metrics"])
        else:
            overhead = result["tracing_overhead"]
            print(
                f"{workload} tracing_overhead {overhead['metric']} "
                f"{overhead['untraced']:.6g} -> {overhead['traced']:.6g}"
            )
            named = {
                name: {"value": result["traced"]["layers"][name], "unit": unit}
                for name, (unit, _) in LAYER_METRICS.items()
            }
            for name, entry in named.items():
                print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        prefix = "" if len(results) == 1 else f"{workload}."
        summary_metrics.update(
            {prefix + name: entry for name, entry in named.items()}
        )

    failures = [
        f"{workload}: {failure}"
        for workload, result in results.items()
        for run in (result, result.get("traced") or {})
        for failure in run.get("check_failures", [])
    ]
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    context = run_context(REPO)
    context.update(seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    name = args.workload or "all"
    out = args.out or OUT / f"result-{name}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps({"context": context, "workloads": results}, indent=1)
    )
    summary = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": summary_metrics,
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
