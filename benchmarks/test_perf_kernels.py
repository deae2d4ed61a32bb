"""Performance micro-benchmarks of the core computational kernels.

Unlike the reproduction benchmarks (which regenerate paper tables), these
measure raw throughput of the hot paths with repeated timed rounds —
useful for catching performance regressions:

* AREPAS skyline simulation,
* workload generation, ad-hoc and recurring (the e2e serving workloads'
  request mixes),
* the cluster executor,
* featurization, with the GNN's graph sample and without it (the job
  vector alone, as scoring builds it for every other model family),
* one boosting round and one NN training epoch,
* one GNN encoder forward-plus-backward step on 32 packed graphs,
* the offline pipeline hot paths: ``build_dataset`` end-to-end, the
  vectorized allocation-sweep kernel, and warm-versus-cold cached builds,
* the compiled inference kernels (``repro.ml.compiled``): flattened-GBM
  and fused-MLP throughput versus the reference paths at batch sizes
  1/64/1024, plus the routed XGBoost-PL scoring path end to end. These
  are marked ``slow`` so the tier-1 job (``-m "not slow"``) skips them;
  the perf-kernels CI job runs them and archives the JSON.

The pipeline benchmarks additionally write their median round times to
``benchmarks/results/BENCH_pipeline.json``, with the hardware and
software they ran on under ``context``, so CI can archive them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.arepas import AREPAS
from repro.cache import ArtifactCache
from repro.features import featurize
from repro.ml import compiled as compiled_kernels
from repro.ml.blas import single_thread
from repro.ml.gbm import BoosterParams, GradientBoostingRegressor
from repro.ml.gnn import GNNEncoder, PackedGraphs
from repro.models import NNPCCModel, TrainConfig, build_dataset
from repro.scope import (
    ClusterExecutor,
    WorkloadConfig,
    WorkloadGenerator,
    decompose_stages,
)
from repro.scope.repository import JobRepository
from repro.skyline import Skyline

_RESULTS_DIR = Path(__file__).parent / "results"
_PIPELINE: dict[str, float | int] = {}


def _run_context() -> dict:
    """The hardware and software the medians were measured on."""
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_pipeline_json(request):
    """Flush collected pipeline medians to BENCH_pipeline.json.

    Only a session that selected every test of this module writes the
    file, so a ``-k``/``-m``-filtered or single-test run leaves the
    committed baseline whole.
    """
    yield
    defined = {name for name in globals() if name.startswith("test_")}
    selected = {
        item.originalname
        for item in request.session.items
        if item.path == Path(__file__)
    }
    if _PIPELINE and selected == defined:
        _RESULTS_DIR.mkdir(exist_ok=True)
        out = _RESULTS_DIR / "BENCH_pipeline.json"
        payload = {"context": _run_context(), **_PIPELINE}
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def pipeline_repo(train_repo):
    """A ~120-job slice of the training workload for end-to-end rounds."""
    subset = JobRepository()
    for record in train_repo.records()[:120]:
        subset.add(record)
    return subset


@pytest.fixture(scope="module")
def big_skyline(rng):
    """An hour-long ragged skyline (3600 seconds, peak ~200)."""
    base = 60 + 50 * np.sin(np.linspace(0, 40, 3600))
    noise = rng.gamma(2.0, 20.0, 3600)
    return Skyline(np.clip(base + noise, 0, None))


def test_perf_arepas_simulate(benchmark, big_skyline):
    simulator = AREPAS()
    result = benchmark(simulator.simulate, big_skyline, 80.0)
    assert result.skyline.area == pytest.approx(big_skyline.area)


@pytest.mark.parametrize(
    "recurring_fraction", [0.0, 1.0], ids=["adhoc", "recurring"]
)
def test_perf_generate(benchmark, recurring_fraction):
    """200 jobs from a fresh generator, its template pool included."""
    config = WorkloadConfig(recurring_fraction=recurring_fraction)
    jobs = benchmark(lambda: WorkloadGenerator(config, seed=0).generate(200))
    assert [job.recurring for job in jobs] == [recurring_fraction == 1.0] * 200


def test_perf_cluster_executor(benchmark, train_repo):
    record = max(train_repo.records(), key=lambda r: r.plan.num_operators)
    graph = decompose_stages(record.plan)
    executor = ClusterExecutor()
    # Read the skyline inside the timed call: it is integrated on first
    # read, and the recorded median has always included it.
    skyline = benchmark(lambda: executor.execute(graph, 64).skyline)
    assert skyline.duration > 0
    _PIPELINE["cluster_executor_s"] = benchmark.stats.stats.median
    _PIPELINE["cluster_executor_tasks"] = sum(
        stage.num_tasks for stage in graph.stages.values()
    )


@pytest.mark.parametrize("graph", [True, False], ids=["graph", "job_vector"])
def test_perf_featurization(benchmark, train_repo, graph):
    """50 training plans, featurized with or without the graph sample."""
    plans = [r.plan for r in train_repo.records()[:50]]
    features = benchmark(
        lambda: [featurize(plan, graph=graph) for plan in plans]
    )
    assert [f.graph is not None for f in features] == [graph] * 50


def test_perf_gbm_fit(benchmark, rng):
    features = rng.uniform(0, 10, size=(2000, 52))
    targets = np.exp(rng.normal(4, 1, 2000))
    params = BoosterParams(n_estimators=10, max_depth=6)

    def fit():
        return GradientBoostingRegressor(params, seed=0).fit(
            features, targets
        )

    model = benchmark(fit)
    assert model.num_trees == 10


def test_perf_nn_epoch(benchmark, train_dataset):
    def one_epoch():
        return NNPCCModel(
            train_config=TrainConfig(epochs=1), seed=0
        ).fit(train_dataset)

    model = benchmark.pedantic(one_epoch, rounds=3, iterations=1)
    assert model.num_parameters() > 0


def test_perf_gnn_step(benchmark, train_dataset):
    """Cut a 32-graph batch, encode it, and backpropagate to every encoder
    weight, on one BLAS thread as ``GNNPCCModel.fit`` runs it."""
    samples = train_dataset.graph_samples()
    packed = PackedGraphs(samples)
    encoder = GNNEncoder(
        samples[0].node_features.shape[1], (80, 80), np.random.default_rng(0)
    )
    indices = np.random.default_rng(1).permutation(len(samples))[:32]

    def step():
        for parameter in encoder.parameters():
            parameter.zero_grad()
        embedding = encoder.encode(packed.batch(indices))
        embedding.sum().backward()
        return embedding

    with single_thread():
        out = benchmark(step)
    assert out.shape == (32, 80)
    assert all(p.grad is not None for p in encoder.parameters())
    _PIPELINE["gnn_step_s"] = benchmark.stats.stats.median
    _PIPELINE["gnn_step_graphs"] = len(indices)


# ----------------------------------------------------------------------
# offline pipeline benchmarks (results land in BENCH_pipeline.json)
# ----------------------------------------------------------------------
def test_perf_build_dataset_e2e(benchmark, pipeline_repo):
    """Uncached featurize-and-fit over the whole slice."""
    dataset = benchmark.pedantic(
        build_dataset, args=(pipeline_repo,), rounds=5, iterations=1
    )
    assert len(dataset) > 0
    _PIPELINE["build_dataset_e2e_s"] = benchmark.stats.stats.median
    _PIPELINE["build_dataset_jobs"] = len(pipeline_repo)


def test_perf_vectorized_sweep(benchmark, big_skyline):
    """One kernel pass over a 64-point grid vs. the per-allocation loop."""
    sim = AREPAS()
    grid = np.geomspace(0.05, 1.0, 64) * big_skyline.peak

    fast = benchmark(sim.sweep_runtimes, big_skyline, grid)

    start = time.perf_counter()
    slow = [sim.simulate(big_skyline, float(a)).simulated_runtime for a in grid]
    loop_s = time.perf_counter() - start

    assert fast.tolist() == slow
    kernel_s = benchmark.stats.stats.median
    _PIPELINE["sweep_kernel_s"] = kernel_s
    _PIPELINE["sweep_loop_s"] = loop_s
    _PIPELINE["sweep_speedup"] = loop_s / kernel_s
    assert loop_s > kernel_s


# ----------------------------------------------------------------------
# compiled inference kernels (repro.ml.compiled)
# ----------------------------------------------------------------------
_SCORING_BATCHES = (1, 64, 1024)


def _median_seconds(fn, rounds: int) -> float:
    fn()  # warm-up: lazy kernel compile + buffer allocation
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@pytest.fixture(scope="module")
def scoring_booster(rng):
    features = rng.uniform(0, 10, size=(2000, 52))
    targets = np.exp(rng.normal(4, 1, 2000))
    params = BoosterParams(n_estimators=150, max_depth=6)
    model = GradientBoostingRegressor(params, seed=0).fit(features, targets)
    return model, features


@pytest.mark.slow
def test_perf_gbm_compiled_vs_reference(scoring_booster):
    """Flattened-forest traversal vs the per-tree python loop."""
    model, features = scoring_booster
    for batch_size in _SCORING_BATCHES:
        batch = features[:batch_size]

        def reference() -> np.ndarray:
            with compiled_kernels.override(False):
                return model.predict(batch)

        compiled_s = _median_seconds(lambda: model.predict(batch), rounds=9)
        reference_s = _median_seconds(reference, rounds=9)
        _PIPELINE[f"gbm_forest_compiled_b{batch_size}_s"] = compiled_s
        _PIPELINE[f"gbm_forest_reference_b{batch_size}_s"] = reference_s
        _PIPELINE[f"gbm_forest_speedup_b{batch_size}"] = (
            reference_s / compiled_s
        )
        assert np.array_equal(model.predict(batch), reference())
        if batch_size >= 64:
            assert compiled_s < reference_s


@pytest.mark.slow
def test_perf_nn_fused_vs_reference(rng):
    """Fused float32 forward pass vs the autograd tensor stack."""
    from repro.ml.autograd import Tensor
    from repro.ml.compiled import compile_network
    from repro.ml.nn import Dense, PCCParameterHead, ReLU, Sequential

    network = Sequential(
        Dense(52, 32, rng),
        ReLU(),
        Dense(32, 16, rng),
        ReLU(),
        PCCParameterHead(16, rng),
    )
    fused = compile_network(network)
    features = rng.normal(0, 1, size=(max(_SCORING_BATCHES), 52))
    for batch_size in _SCORING_BATCHES:
        batch = features[:batch_size]
        fused_s = _median_seconds(lambda: fused.predict(batch), rounds=9)
        reference_s = _median_seconds(
            lambda: network(Tensor(batch)).numpy(), rounds=9
        )
        _PIPELINE[f"nn_fused_b{batch_size}_s"] = fused_s
        _PIPELINE[f"nn_reference_b{batch_size}_s"] = reference_s
        _PIPELINE[f"nn_speedup_b{batch_size}"] = reference_s / fused_s
        if batch_size >= 64:
            assert fused_s < reference_s


@pytest.mark.slow
def test_perf_scoring_path_compiled_vs_reference(train_dataset):
    """The routed scoring path end to end at batch 1024.

    ``XGBoostRuntimeModel.predict_curves`` is what every XGBoost-PL
    scoring call fans out to. Reference = the pre-kernel semantics (one
    booster call per example, per-tree python traversal); compiled = one
    batched booster call through the flattened forest. Bit-identical by
    construction, and required to be at least 5x faster.
    """
    from itertools import cycle, islice

    from repro.models import XGBoostRuntimeModel
    from repro.models.dataset import PCCDataset
    from repro.models.xgboost_models import reference_window

    model = XGBoostRuntimeModel(
        BoosterParams(n_estimators=150, max_depth=6)
    ).fit(train_dataset)

    batch_size = 1024
    scoring = PCCDataset()
    scoring.examples = list(
        islice(cycle(train_dataset.examples), batch_size)
    )
    grids = [
        reference_window(example.observed_tokens)
        for example in scoring.examples
    ]

    compiled_s = _median_seconds(
        lambda: model.predict_curves(scoring, grids), rounds=5
    )

    def reference() -> list[np.ndarray]:
        with compiled_kernels.override(False):
            return model.predict_curves(scoring, grids)

    reference_s = _median_seconds(reference, rounds=3)

    fast = model.predict_curves(scoring, grids)
    slow = reference()
    assert all(np.array_equal(f, s) for f, s in zip(fast, slow))

    speedup = reference_s / compiled_s
    _PIPELINE["scoring_compiled_s"] = compiled_s
    _PIPELINE["scoring_reference_s"] = reference_s
    _PIPELINE["scoring_batch"] = batch_size
    _PIPELINE["scoring_speedup"] = speedup
    assert speedup >= 5.0


def test_perf_cache_hit_build(pipeline_repo, tmp_path):
    """Warm content-addressed rebuilds must be >=5x faster than cold.

    Both sides are medians: one cold build of about 0.1 s at
    ``REPRO_BENCH_SCALE=0.2`` swings enough to fail the floor alone.
    """
    cold_times = []
    for run in range(3):
        cache_dir = tmp_path / f"cold{run}"
        start = time.perf_counter()
        cold_dataset = build_dataset(
            pipeline_repo, cache=ArtifactCache(cache_dir)
        )
        cold_times.append(time.perf_counter() - start)
    cold_s = statistics.median(cold_times)

    warm_times = []
    for _ in range(5):
        cache = ArtifactCache(cache_dir)
        start = time.perf_counter()
        warm_dataset = build_dataset(pipeline_repo, cache=cache)
        warm_times.append(time.perf_counter() - start)
    warm_s = statistics.median(warm_times)

    assert cache.misses == 0 and cache.hits > 0
    assert len(warm_dataset) == len(cold_dataset)
    speedup = cold_s / warm_s
    _PIPELINE["cache_cold_build_s"] = cold_s
    _PIPELINE["cache_warm_build_s"] = warm_s
    _PIPELINE["cache_warm_speedup"] = speedup
    assert speedup >= 5.0
