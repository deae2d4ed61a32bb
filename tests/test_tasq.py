"""Unit tests for the TASQ pipelines, model store, and what-if analysis."""

import threading

import numpy as np
import pytest

from repro.exceptions import FittingError, PipelineError
from repro.features import featurize
from repro.ml import compiled
from repro.ml.gbm import GammaDeviance, GradientBoostingRegressor
from repro.models import TrainConfig, XGBoostPL, XGBoostSS, reference_window
from repro.models.base import PCCPredictor
from repro.pcc.curve import PowerLawPCC
from repro.pcc.intervals import PCCInterval
from repro.tasq import (
    ModelStore,
    ScoringPipeline,
    TasqConfig,
    TrainingPipeline,
    minimum_tokens_within_budget,
    token_reduction_report,
)


@pytest.fixture(scope="module")
def trained(repository):
    config = TasqConfig(
        train_gnn=False,
        nn_train_config=TrainConfig(epochs=20),
    )
    return TrainingPipeline(config).run(repository)


class TestModelStore:
    def test_register_and_get(self, trained):
        store = ModelStore()
        store.register("nn", trained.get("nn"), metadata={"note": "test"})
        record = store.get("nn")
        assert record.version == 1
        assert record.metadata["note"] == "test"
        assert "nn" in store

    def test_versions_increment(self, trained):
        store = ModelStore()
        store.register("nn", trained.get("nn"))
        store.register("nn", trained.get("nn"))
        assert store.get("nn").version == 2
        assert store.get("nn", version=1).version == 1

    def test_missing_model(self):
        with pytest.raises(PipelineError):
            ModelStore().get("ghost")

    def test_missing_version(self, trained):
        store = ModelStore()
        store.register("nn", trained.get("nn"))
        with pytest.raises(PipelineError):
            store.get("nn", version=9)

    def test_latest_by_name(self, trained):
        """Without a version, ``get`` returns the newest one."""
        store = ModelStore()
        store.register("nn", trained.get("nn"))
        store.register("nn", trained.get("nn"), metadata={"round": 2})
        record = store.get("nn")
        assert (record.version, record.metadata) == (2, {"round": 2})

    def test_concurrent_register_and_get(self, trained):
        """Writers and readers race on the store without corruption."""
        store = ModelStore()
        model = trained.get("nn")
        store.register("nn", model)
        errors = []
        registrations_per_writer = 25

        def writer():
            try:
                for _ in range(registrations_per_writer):
                    store.register("nn", model)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                for _ in range(200):
                    record = store.get("nn")
                    assert record.version >= 1
                    assert store.get("nn").version >= record.version
                    assert "nn" in store
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # every registration got a unique, dense version number
        versions = [
            store.get("nn", version=v).version
            for v in range(1, 4 * registrations_per_writer + 2)
        ]
        assert versions == list(range(1, 4 * registrations_per_writer + 2))
        assert store.get("nn").version == 4 * registrations_per_writer + 1


class TestTrainingPipeline:
    def test_trains_configured_models(self, trained):
        assert set(trained.models) == {"xgboost_ss", "xgboost_pl", "nn"}

    def test_registers_in_store(self, repository):
        config = TasqConfig(train_nn=False, train_gnn=False)
        pipeline = TrainingPipeline(config)
        pipeline.run(repository)
        assert pipeline.store.names() == ["xgboost_pl", "xgboost_ss"]

    def test_rejects_empty_config(self, repository):
        config = TasqConfig(train_xgboost=False, train_nn=False, train_gnn=False)
        with pytest.raises(PipelineError):
            TrainingPipeline(config).run(repository)

    def test_get_unknown_model(self, trained):
        with pytest.raises(PipelineError):
            trained.get("transformer")

    def test_fits_the_shared_booster_once(self, repository, monkeypatch):
        gamma_fits = []
        fit = GradientBoostingRegressor.fit

        def counting_fit(booster, *args, **kwargs):
            if isinstance(booster.objective, GammaDeviance):
                gamma_fits.append(booster)
            return fit(booster, *args, **kwargs)

        monkeypatch.setattr(GradientBoostingRegressor, "fit", counting_fit)
        config = TasqConfig(train_nn=False, train_gnn=False)
        trained = TrainingPipeline(config).run(repository, workers=1)
        assert len(gamma_fits) == 1
        assert (
            trained.get("xgboost_ss")._booster
            is trained.get("xgboost_pl")._booster
        )

    def test_xgboost_models_equal_standalone_fits(self, trained):
        dataset = trained.dataset
        grids = [reference_window(ref) for ref in dataset.observed_tokens()]
        ss = XGBoostSS(seed=0).fit(dataset)
        pl = XGBoostPL(seed=0).fit(dataset)
        got = trained.get("xgboost_ss").predict_curves(dataset, grids)
        want = ss.predict_curves(dataset, grids)
        assert len(got) == len(want) == len(dataset)
        for got_curve, want_curve in zip(got, want):
            np.testing.assert_array_equal(got_curve, want_curve)
        np.testing.assert_array_equal(
            trained.get("xgboost_pl").predict_parameters(dataset),
            pl.predict_parameters(dataset),
        )


class TestTrainingPipelineWorkers:
    """Every family, trained serially and across a two-process pool."""

    CONFIG = TasqConfig(
        nn_train_config=TrainConfig(epochs=5),
        gnn_train_config=TrainConfig(
            epochs=2, batch_size=32, learning_rate=2e-3
        ),
    )

    @pytest.fixture(scope="class")
    def runs(self, repository):
        runs = {}
        for workers in (1, 2):
            pipeline = TrainingPipeline(self.CONFIG)
            trained = pipeline.run(repository, workers=workers)
            runs[workers] = (trained, pipeline.store)
        return runs

    def test_registration_order(self, runs):
        for trained, store in runs.values():
            assert list(trained.models) == [
                "xgboost_ss", "xgboost_pl", "nn", "gnn"
            ]
            assert store.names() == ["gnn", "nn", "xgboost_pl", "xgboost_ss"]
            assert all(store.get(name).version == 1 for name in trained.models)

    def test_same_models_at_any_worker_count(self, runs):
        serial, _ = runs[1]
        pooled, _ = runs[2]
        dataset = serial.dataset
        grids = [reference_window(ref) for ref in dataset.observed_tokens()]
        for name, model in serial.models.items():
            other = pooled.get(name)
            for got, want in zip(
                other.predict_curves(dataset, grids),
                model.predict_curves(dataset, grids),
            ):
                np.testing.assert_array_equal(got, want)
            if name != "xgboost_ss":
                np.testing.assert_array_equal(
                    other.predict_parameters(dataset),
                    model.predict_parameters(dataset),
                )


class TestScoringPipeline:
    def test_recommendation_fields(self, trained, workload_jobs):
        scorer = ScoringPipeline(trained.get("nn"))
        job = workload_jobs[0]
        rec = scorer.score(job.plan, job.requested_tokens)
        assert rec.job_id == job.job_id
        assert 1 <= rec.optimal_tokens <= job.requested_tokens
        assert rec.pcc.is_non_increasing
        assert rec.predicted_runtime_at_optimal >= rec.predicted_runtime_at_requested
        assert 0 <= rec.token_savings < 1
        assert rec.predicted_slowdown >= 0

    def test_batch_scoring(self, trained, workload_jobs):
        scorer = ScoringPipeline(trained.get("nn"))
        jobs = workload_jobs[:5]
        recs = scorer.score_batch(
            [j.plan for j in jobs], [j.requested_tokens for j in jobs]
        )
        assert len(recs) == 5

    def test_slo_floor_respected(self, trained, workload_jobs):
        job = workload_jobs[0]
        loose = ScoringPipeline(trained.get("nn"), improvement_threshold=0.5)
        tight = ScoringPipeline(
            trained.get("nn"), improvement_threshold=0.5, max_slowdown=0.01
        )
        loose_rec = loose.score(job.plan, job.requested_tokens)
        tight_rec = tight.score(job.plan, job.requested_tokens)
        assert tight_rec.optimal_tokens >= loose_rec.optimal_tokens
        assert tight_rec.predicted_slowdown <= 0.011

    def test_rejects_nonparametric_model(self, repository, dataset):
        model = XGBoostSS(seed=0).fit(dataset)
        scorer = ScoringPipeline(model)
        record = repository.records()[0]
        with pytest.raises(PipelineError):
            scorer.score(record.plan, record.requested_tokens)

    def test_rejects_bad_tokens(self, trained, workload_jobs):
        scorer = ScoringPipeline(trained.get("nn"))
        with pytest.raises(PipelineError):
            scorer.score(workload_jobs[0].plan, 0)

    @pytest.mark.parametrize("tokens", [np.nan, np.inf, 2.5])
    def test_rejects_non_integer_tokens(self, trained, workload_jobs, tokens):
        scorer = ScoringPipeline(trained.get("nn"))
        plan = workload_jobs[0].plan
        features = [featurize(plan)]
        with pytest.raises(PipelineError, match="integers"):
            scorer.score_batch([plan], [tokens])
        with pytest.raises(PipelineError, match="integers"):
            scorer.score_batch([plan], [tokens], features)
        with pytest.raises(PipelineError, match="integers"):
            scorer.score_features([plan.job_id], [tokens], features)

    def test_numpy_integer_tokens_score_like_ints(
        self, trained, workload_jobs
    ):
        scorer = ScoringPipeline(trained.get("nn"))
        plans = [job.plan for job in workload_jobs[:4]]
        tokens = [job.requested_tokens for job in workload_jobs[:4]]
        assert scorer.score_batch(
            plans, np.array(tokens, dtype=np.int64)
        ) == scorer.score_batch(plans, tokens)

    def test_rejects_bad_threshold(self, trained):
        with pytest.raises(PipelineError):
            ScoringPipeline(trained.get("nn"), improvement_threshold=0)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"improvement_threshold": np.nan}, "improvement threshold"),
            ({"improvement_threshold": np.inf}, "improvement threshold"),
            ({"improvement_threshold": -0.01}, "improvement threshold"),
            ({"max_slowdown": np.nan}, "slowdown budget"),
            ({"max_slowdown": -0.5}, "slowdown budget"),
        ],
        ids=[
            "nan-threshold", "inf-threshold", "negative-threshold",
            "nan-slowdown", "negative-slowdown",
        ],
    )
    def test_rejects_bad_settings(self, trained, setting, message):
        with pytest.raises(PipelineError, match=message):
            ScoringPipeline(trained.get("nn"), **setting)

    def test_misaligned_batch(self, trained, workload_jobs):
        scorer = ScoringPipeline(trained.get("nn"))
        with pytest.raises(PipelineError):
            scorer.score_batch([workload_jobs[0].plan], [10, 20])

    def test_misaligned_features(self, trained, workload_jobs):
        scorer = ScoringPipeline(trained.get("nn"))
        plan = workload_jobs[0].plan
        with pytest.raises(PipelineError):
            scorer.score_batch([plan], [10], [featurize(plan)] * 2)

    @pytest.mark.parametrize("risk", [None, 0.9])
    def test_outer_override_wins_over_use_compiled(
        self, trained, workload_jobs, risk
    ):
        model = trained.get("xgboost_pl")
        model._booster._compiled = None
        job = workload_jobs[0]
        with compiled.override(False):
            ScoringPipeline(model, risk=risk).score_batch(
                [job.plan], [job.requested_tokens]
            )
        assert model._booster._compiled is None  # reference path only


class IncreasingForJobs(PCCPredictor):
    """A fitted model whose curves increase for the marked jobs only.

    Other rows keep the wrapped model's exponent, clamped to <= 0. Each
    job's q90 curve sits 0-4 % above its median, by job, so a risk floor
    computed from another row's interval would change the answer.
    """

    name = "increasing_for_jobs"

    def __init__(self, model, job_ids):
        super().__init__()
        self.model = model
        self.job_ids = set(job_ids)
        self._fitted = True

    def fit(self, dataset):
        return self

    def predict_runtime_at(self, dataset, tokens):
        return self.model.predict_runtime_at(dataset, tokens)

    def predict_curves(self, dataset, grids):
        return self.model.predict_curves(dataset, grids)

    def predict_parameters(self, dataset):
        parameters = self.model.predict_parameters(dataset).copy()
        marked = [e.job_id in self.job_ids for e in dataset.examples]
        parameters[:, 0] = np.where(
            marked, 0.25, np.minimum(parameters[:, 0], 0.0)
        )
        return parameters

    def predict_pcc_intervals(self, dataset):
        intervals = []
        for example, pcc in zip(dataset.examples, self.predict_pccs(dataset)):
            width = 1.0 + 0.01 * (sum(example.job_id.encode()) % 5)
            hi = PowerLawPCC(a=pcc.a, b=pcc.b * width)
            intervals.append(PCCInterval(lo=pcc, mid=pcc, hi=hi))
        return intervals


class TestUnusableCurves:
    """An increasing predicted PCC is a per-row answer, not a batch error."""

    @pytest.fixture()
    def jobs(self, workload_jobs):
        return workload_jobs[:8]

    @pytest.fixture()
    def marked(self, jobs):
        return {jobs[i].job_id for i in (1, 4, 5)}

    @pytest.mark.parametrize("risk", [None, 0.9])
    def test_none_exactly_at_increasing_rows(
        self, trained, jobs, marked, risk
    ):
        scorer = ScoringPipeline(
            IncreasingForJobs(trained.get("xgboost_pl"), marked),
            improvement_threshold=0.5,  # small optima: the floors bind
            max_slowdown=0.05,
            risk=risk,
        )
        recs = scorer.score_batch(
            [j.plan for j in jobs], [j.requested_tokens for j in jobs]
        )
        assert [rec is None for rec in recs] == [
            j.job_id in marked for j in jobs
        ]
        for job, rec in zip(jobs, recs):
            if rec is not None:
                # bit-identical to scoring the row alone
                assert rec == scorer.score(job.plan, job.requested_tokens)
                assert rec.risk == risk

    @pytest.mark.parametrize("risk", [None, 0.9])
    def test_score_raises_for_an_increasing_row(
        self, trained, jobs, marked, risk
    ):
        scorer = ScoringPipeline(
            IncreasingForJobs(trained.get("xgboost_pl"), marked), risk=risk
        )
        job = jobs[1]
        with pytest.raises(FittingError, match="increasing PCC"):
            scorer.score(job.plan, job.requested_tokens)
        assert scorer.score_features(
            [job.job_id], [job.requested_tokens], [featurize(job.plan)]
        ) == [None]


class TestFeaturize:
    def test_training_examples_carry_the_served_features(
        self, repository, dataset
    ):
        # Training and serving featurize through one function, so a
        # model is scored on exactly the bits it was fitted on.
        plans = {record.job_id: record.plan for record in repository.records()}
        for example in dataset.examples:
            served = featurize(plans[example.job_id])
            assert (
                example.job_features.tobytes() == served.job_vector.tobytes()
            )
            assert (
                example.graph.node_features.tobytes()
                == served.graph.node_features.tobytes()
            )
            assert (
                example.graph.adjacency.tobytes()
                == served.graph.adjacency.tobytes()
            )

    def test_precomputed_features_give_identical_recommendations(
        self, trained, workload_jobs
    ):
        scorer = ScoringPipeline(trained.get("nn"))
        jobs = workload_jobs[:5]
        plans = [j.plan for j in jobs]
        tokens = [j.requested_tokens for j in jobs]
        fresh = scorer.score_batch(plans, tokens)
        reused = scorer.score_batch(
            plans, tokens, [featurize(p) for p in plans]
        )
        for a, b in zip(fresh, reused):
            assert a.job_id == b.job_id
            assert a.optimal_tokens == b.optimal_tokens
            assert a.pcc.a == pytest.approx(b.pcc.a)
            assert a.pcc.b == pytest.approx(b.pcc.b)

    def test_single_score_accepts_features(self, trained, workload_jobs):
        scorer = ScoringPipeline(trained.get("nn"))
        job = workload_jobs[0]
        rec = scorer.score(
            job.plan, job.requested_tokens, features=featurize(job.plan)
        )
        assert rec.optimal_tokens == scorer.score(
            job.plan, job.requested_tokens
        ).optimal_tokens


class TestWhatIf:
    def test_minimum_tokens_monotone_in_budget(self, repository):
        record = max(repository.records(), key=lambda r: r.peak_tokens)
        tight = minimum_tokens_within_budget(record, 0.0)
        loose = minimum_tokens_within_budget(record, 0.10)
        assert loose <= tight <= record.requested_tokens

    def test_zero_budget_allows_trim_to_peak(self, repository):
        for record in repository.records()[:10]:
            minimum = minimum_tokens_within_budget(record, 0.0)
            # Allocating the (rounded-up) peak changes nothing.
            assert minimum <= int(np.ceil(record.peak_tokens)) + 1

    def test_report_fractions_sum_to_one(self, repository):
        report = token_reduction_report(repository, 0.05)
        assert sum(report.bucket_fractions.values()) == pytest.approx(1.0)
        assert 0 <= report.fraction_reducible() <= 1
        assert 0 <= report.fraction_halvable() <= 1

    def test_looser_budget_more_reducible(self, repository):
        strict = token_reduction_report(repository, 0.0)
        loose = token_reduction_report(repository, 0.10)
        assert loose.fraction_reducible() >= strict.fraction_reducible()
        assert loose.mean_reduction >= strict.mean_reduction

    def test_rejects_negative_budget(self, repository):
        with pytest.raises(PipelineError):
            token_reduction_report(repository, -0.1)

    def test_rejects_empty(self):
        with pytest.raises(PipelineError):
            token_reduction_report([], 0.0)
