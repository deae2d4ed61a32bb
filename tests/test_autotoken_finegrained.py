"""Unit tests for the AutoToken baseline and fine-grained models."""

import numpy as np
import pytest

from repro.baselines import AutoToken
from repro.exceptions import ModelError, NotFittedError
from repro.models import FineGrainedPCCModel, NNPCCModel, TrainConfig, build_dataset
from repro.scope import WorkloadConfig, WorkloadGenerator, run_workload
from repro.tasq import ScoringPipeline


@pytest.fixture(scope="module")
def recurring_world():
    """A workload dominated by few templates, plus ad-hoc test jobs."""
    config = WorkloadConfig(recurring_fraction=0.8, num_templates=6)
    generator = WorkloadGenerator(config, seed=77)
    history = run_workload(generator.generate(120), seed=0)
    tomorrow = run_workload(generator.generate(50, start_day=1), seed=1)
    return history.records(), tomorrow.records()


class TestAutoToken:
    def test_fit_groups_recurring_jobs(self, recurring_world):
        history, _ = recurring_world
        model = AutoToken().fit(history)
        assert 1 <= model.num_groups <= 12

    def test_covers_recurring_not_adhoc(self, recurring_world):
        history, tomorrow = recurring_world
        model = AutoToken().fit(history)
        recurring = [r.plan for r in tomorrow if r.recurring]
        adhoc = [r.plan for r in tomorrow if not r.recurring]
        assert model.coverage(recurring) > 0.8
        if adhoc:
            assert model.coverage(adhoc) < 0.2

    def test_prediction_fields(self, recurring_world):
        history, tomorrow = recurring_world
        model = AutoToken().fit(history)
        covered = next(
            r for r in tomorrow if model.covers(r.plan)
        )
        prediction = model.predict(covered.plan)
        assert prediction is not None
        assert prediction.peak_tokens >= 1
        assert prediction.job_id == covered.job_id

    def test_uncovered_returns_none(self, recurring_world):
        history, tomorrow = recurring_world
        model = AutoToken().fit(history)
        uncovered = [r for r in tomorrow if not model.covers(r.plan)]
        if uncovered:
            assert model.predict(uncovered[0].plan) is None

    def test_peak_predictions_are_usable(self, recurring_world):
        """Predicted peaks land within a small factor of the true peaks."""
        history, tomorrow = recurring_world
        model = AutoToken().fit(history)
        ratios = []
        for record in tomorrow:
            prediction = model.predict(record.plan)
            if prediction is None or record.peak_tokens < 2:
                continue
            ratios.append(prediction.peak_tokens / record.peak_tokens)
        assert ratios, "no covered jobs to evaluate"
        assert 0.3 < np.median(ratios) < 3.0

    def test_not_fitted(self, recurring_world):
        _, tomorrow = recurring_world
        with pytest.raises(NotFittedError):
            AutoToken().predict(tomorrow[0].plan)

    def test_rejects_empty_history(self):
        with pytest.raises(ModelError):
            AutoToken().fit([])

    def test_rejects_bad_config(self):
        with pytest.raises(ModelError):
            AutoToken(min_group_size=1)
        with pytest.raises(ModelError):
            AutoToken(safety_quantile=0.2)


class TestFineGrained:
    @pytest.fixture(scope="class")
    def fitted(self, recurring_world):
        history, _ = recurring_world
        records = history
        dataset = build_dataset(records)
        plans = [r.plan for r in records if r.requested_tokens >= 2]
        model = FineGrainedPCCModel(
            model_factory=lambda: NNPCCModel(
                train_config=TrainConfig(epochs=15), seed=0
            ),
            min_group_size=5,
        )
        model.fit(dataset, plans=plans)
        return model, dataset, plans

    def test_groups_trained(self, fitted):
        model, _, _ = fitted
        assert model.num_groups >= 1

    def test_coverage_below_one(self, fitted, recurring_world):
        model, _, _ = fitted
        _, tomorrow = recurring_world
        coverage = model.coverage([r.plan for r in tomorrow])
        # The paper's point: fine-grained models cannot cover everything.
        assert 0 < coverage < 1

    def test_routed_prediction_on_covered_jobs(self, fitted, recurring_world):
        model, _, _ = fitted
        history, tomorrow = recurring_world
        covered_records = [
            r for r in tomorrow
            if r.requested_tokens >= 2 and model.covered_mask([r.plan])[0]
        ]
        assert covered_records
        dataset = build_dataset(covered_records)
        plans = [r.plan for r in covered_records]
        parameters = model.predict_parameters_routed(dataset, plans)
        assert parameters.shape == (len(covered_records), 2)
        assert np.all(parameters[:, 0] <= 0)  # still sign-guaranteed

        runtimes = model.predict_runtime_at_routed(
            dataset, dataset.observed_tokens(), plans
        )
        assert np.all(runtimes > 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda model, data, plans: model.predict_runtime_at(
                data, data.observed_tokens()
            ),
            lambda model, data, plans: model.predict_curves(
                data, [np.array([1.0, 2.0])] * len(data)
            ),
            lambda model, data, plans: model.predict_pccs(data),
            lambda model, data, plans: model.predict_pcc_intervals(data),
            lambda model, data, plans: ScoringPipeline(model).score_batch(
                plans[:3], [10, 10, 10]
            ),
        ],
        ids=["runtime_at", "curves", "pccs", "pcc_intervals", "score_batch"],
    )
    def test_plan_less_api_names_the_routed_methods(self, fitted, call):
        model, dataset, plans = fitted
        with pytest.raises(ModelError) as raised:
            call(model, dataset, plans)
        assert not isinstance(raised.value, NotFittedError)
        message = str(raised.value)
        assert "predict_parameters_routed(dataset, plans)" in message
        assert "predict_runtime_at_routed(dataset, tokens, plans)" in message

    def test_uncovered_job_raises(self, fitted, recurring_world):
        model, _, _ = fitted
        _, tomorrow = recurring_world
        uncovered = [
            r for r in tomorrow
            if r.requested_tokens >= 2 and not model.covered_mask([r.plan])[0]
        ]
        if not uncovered:
            pytest.skip("every test job happened to be covered")
        dataset = build_dataset(uncovered[:1])
        with pytest.raises(ModelError):
            model.predict_parameters_routed(dataset, [uncovered[0].plan])

    def test_fit_requires_aligned_plans(self, recurring_world):
        history, _ = recurring_world
        dataset = build_dataset(history[:10])
        model = FineGrainedPCCModel(
            model_factory=lambda: NNPCCModel(
                train_config=TrainConfig(epochs=1)
            )
        )
        with pytest.raises(ModelError):
            model.fit(dataset, plans=None)

    def test_all_adhoc_history_rejected(self):
        config = WorkloadConfig(recurring_fraction=0.0)
        generator = WorkloadGenerator(config, seed=5)
        records = run_workload(generator.generate(20), seed=0).records()
        dataset = build_dataset(records)
        plans = [r.plan for r in records if r.requested_tokens >= 2]
        model = FineGrainedPCCModel(
            model_factory=lambda: NNPCCModel(
                train_config=TrainConfig(epochs=1)
            ),
            min_group_size=5,
        )
        with pytest.raises(ModelError):
            model.fit(dataset, plans=plans)
