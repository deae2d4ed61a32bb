"""Integration tests: the full TASQ loop on fresh data (Figure 4).

These tests exercise the complete system the way the production pipeline
would: generate history, train, then score *unseen next-day* jobs and act
on the recommendations.
"""

import pickle

import numpy as np
import pytest

from repro.arepas import AREPAS
from repro.models import build_dataset, evaluate_model, TrainConfig
from repro.scope import ClusterExecutor, WorkloadGenerator, decompose_stages, run_workload
from repro.tasq import ScoringPipeline, TasqConfig, TrainingPipeline


@pytest.fixture(scope="module")
def world():
    """History + next-day jobs from the same generator (shared templates)."""
    generator = WorkloadGenerator(seed=2024)
    history_jobs = generator.generate(150)
    tomorrow_jobs = generator.generate(40, start_day=1)
    repository = run_workload(history_jobs, seed=1)
    return generator, repository, tomorrow_jobs


@pytest.fixture(scope="module")
def trained(world):
    _, repository, _ = world
    config = TasqConfig(
        nn_train_config=TrainConfig(epochs=40),
        gnn_train_config=TrainConfig(epochs=8, batch_size=32,
                                     learning_rate=2e-3),
    )
    return TrainingPipeline(config).run(repository)


class TestEndToEnd:
    def test_models_generalize_to_next_day(self, world, trained):
        """Point prediction on unseen jobs lands in a usable error range."""
        _, _, tomorrow = world
        test_repo = run_workload(tomorrow, seed=2)
        test_dataset = build_dataset(test_repo)
        evaluation = evaluate_model(trained.get("nn"), test_dataset)
        # The paper reports <= 39% median error on unseen workloads; allow
        # ample slack at this tiny training scale.
        assert evaluation.runtime_median_ape < 120.0
        assert evaluation.pattern_non_increasing == 1.0

    def test_xgboost_beats_nn_at_point_prediction(self, world, trained):
        """The paper's consistent finding at the reference allocation."""
        _, _, tomorrow = world
        test_repo = run_workload(tomorrow, seed=2)
        test_dataset = build_dataset(test_repo)
        xgb = evaluate_model(trained.get("xgboost_ss"), test_dataset)
        nn = evaluate_model(trained.get("nn"), test_dataset)
        assert xgb.runtime_median_ape <= nn.runtime_median_ape + 5.0

    def test_recommendations_actually_hold_when_executed(self, world, trained):
        """Score unseen jobs, execute at the recommendation, check impact.

        The closed loop the paper cannot show for all jobs: we re-run the
        recommended allocation in the cluster simulator and verify the
        incurred slowdown stays moderate whenever tokens were cut.
        """
        _, _, tomorrow = world
        scorer = ScoringPipeline(
            trained.get("nn"), improvement_threshold=0.002, max_slowdown=0.10
        )
        executor = ClusterExecutor()
        slowdowns = []
        for job in tomorrow[:12]:
            recommendation = scorer.score(job.plan, job.requested_tokens)
            graph = decompose_stages(job.plan)
            base = executor.execute(graph, job.requested_tokens).makespan
            actual = executor.execute(graph, recommendation.optimal_tokens).makespan
            slowdowns.append(actual / base - 1.0)
        # Median incurred slowdown should stay within a loose multiple of
        # the 10% budget (the model is approximate, the budget predicted).
        assert np.median(slowdowns) < 0.5

    def test_arepas_consistent_with_executor(self, world):
        """AREPAS run-time estimates track real re-executions (Table 3)."""
        _, repository, _ = world
        executor = ClusterExecutor()
        simulator = AREPAS()
        errors = []
        for record in repository.records()[:15]:
            if record.peak_tokens < 4:
                continue
            graph = decompose_stages(record.plan)
            target_tokens = max(1, int(0.6 * record.requested_tokens))
            true_runtime = executor.execute(graph, target_tokens).makespan
            estimate = simulator.runtime(record.skyline, target_tokens)
            errors.append(abs(estimate - true_runtime) / true_runtime * 100)
        # The paper reports 9% median on real SCOPE; our executor violates
        # AREPAS's fixed-work assumption more strongly (wave scheduling),
        # so we only require the estimates to stay in a usable range.
        assert np.median(errors) < 45.0

    def test_store_roundtrip_serves_scoring(self, trained, world, tmp_path):
        """A model saved to disk can be reloaded and used for scoring."""
        _, _, tomorrow = world
        path = tmp_path / "nn.pkl"
        path.write_bytes(pickle.dumps(trained.get("nn")))
        reloaded = pickle.loads(path.read_bytes())
        scorer = ScoringPipeline(reloaded)
        recommendation = scorer.score(
            tomorrow[0].plan, tomorrow[0].requested_tokens
        )
        assert recommendation.optimal_tokens >= 1
