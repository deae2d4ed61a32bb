"""Unit tests for the TASQ prediction models (Section 4.4, Tables 4-6)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.exceptions import ModelError, NotFittedError
from repro.flighting.evaluation import evaluate_on_flighted
from repro.ml import compiled
from repro.ml.gbm import BoosterParams
from repro.models import (
    GNNPCCModel,
    NNPCCModel,
    PCCDataset,
    TrainConfig,
    XGBoostPL,
    XGBoostRuntimeModel,
    XGBoostSS,
    build_dataset,
    evaluate_model,
    evaluation_table,
    reference_window,
)
from repro.ml.losses import LF1, LF3
from repro.models import gnn_model


@pytest.fixture(scope="module")
def fitted_xgb(dataset):
    return XGBoostRuntimeModel(seed=0).fit(dataset)


@pytest.fixture(scope="module")
def fitted_nn(dataset):
    return NNPCCModel(train_config=TrainConfig(epochs=25), seed=0).fit(dataset)


@pytest.fixture(scope="module")
def fitted_gnn(dataset):
    config = TrainConfig(epochs=6, batch_size=32, learning_rate=2e-3)
    return GNNPCCModel(train_config=config, seed=0).fit(dataset)


@pytest.fixture(scope="module")
def families(fitted_xgb, fitted_nn, fitted_gnn):
    """One fitted model per family; SS and PL share the booster."""
    return {
        "xgboost": fitted_xgb,
        "xgboost_ss": XGBoostSS.from_fitted(fitted_xgb),
        "xgboost_pl": XGBoostPL.from_fitted(fitted_xgb),
        "nn": fitted_nn,
        "gnn": fitted_gnn,
    }


class TestDatasetBuilding:
    def test_one_example_per_usable_job(self, repository, dataset):
        usable = [r for r in repository if r.requested_tokens >= 2]
        assert len(dataset) == len(usable)

    def test_targets_are_non_increasing_curves(self, dataset):
        targets = dataset.target_matrix()
        assert np.all(targets[:, 0] <= 1e-9)  # a <= 0
        assert np.all(np.isfinite(targets))

    def test_point_rows_expand_observations(self, dataset):
        rows, targets = dataset.point_rows()
        expected = sum(len(e.point_observations) for e in dataset)
        assert rows.shape == (expected, 52)  # 51 job features + log tokens
        assert targets.shape == (expected,)
        assert np.all(targets > 0)

    def test_matrix_views_aligned(self, dataset):
        assert dataset.job_feature_matrix().shape[0] == len(dataset)
        assert dataset.observed_tokens().shape[0] == len(dataset)
        assert dataset.observed_runtimes().shape[0] == len(dataset)
        assert len(dataset.graph_samples()) == len(dataset)

    def test_graph_samples_need_every_graph(self, dataset):
        examples = list(dataset.examples[:3])
        examples[1] = dataclasses.replace(examples[1], graph=None)
        with pytest.raises(ModelError, match="without its graph"):
            PCCDataset(examples).graph_samples()

    def test_only_the_gnn_reads_graphs(self):
        assert GNNPCCModel.reads_graph
        for family in (NNPCCModel, XGBoostPL, XGBoostSS, XGBoostRuntimeModel):
            assert not family.reads_graph


class TestReferenceWindow:
    def test_window_spans_40_percent(self):
        grid = reference_window(100.0)
        assert grid[0] == pytest.approx(60.0)
        assert grid[-1] == pytest.approx(140.0)

    def test_window_floor(self):
        assert np.all(reference_window(1.0) >= 1.0)

    def test_rejects_bad_reference(self):
        with pytest.raises(ModelError):
            reference_window(0.0)

    @pytest.mark.parametrize("reference", [np.nan, np.inf])
    def test_rejects_non_finite_reference(self, reference):
        with pytest.raises(ModelError):
            reference_window(np.array([100.0, reference]))


class TestXGBoostModels:
    def test_point_predictions_positive(self, fitted_xgb, dataset):
        predictions = fitted_xgb.predict_runtime_at(
            dataset, dataset.observed_tokens()
        )
        assert np.all(predictions > 0)

    def test_point_predictions_reasonable(self, fitted_xgb, dataset):
        predictions = fitted_xgb.predict_runtime_at(
            dataset, dataset.observed_tokens()
        )
        true = dataset.observed_runtimes()
        median_ape = np.median(np.abs(predictions - true) / true)
        assert median_ape < 0.5  # in-sample: should be well under 50%

    def test_ss_smooths_curves(self, dataset):
        model = XGBoostSS(seed=0).fit(dataset)
        grids = [reference_window(t) for t in dataset.observed_tokens()]
        curves = model.predict_curves(dataset, grids)
        assert len(curves) == len(dataset)
        assert all(c.shape == g.shape for c, g in zip(curves, grids))
        assert all(np.all(c > 0) for c in curves)

    def test_ss_has_no_parameters(self, dataset):
        model = XGBoostSS(seed=0).fit(dataset)
        assert model.predict_parameters(dataset) is None
        assert model.predict_pccs(dataset) is None

    def test_pl_produces_parameters(self, dataset):
        model = XGBoostPL(seed=0).fit(dataset)
        params = model.predict_parameters(dataset)
        assert params.shape == (len(dataset), 2)
        pccs = model.predict_pccs(dataset)
        assert len(pccs) == len(dataset)

    def test_pl_cannot_guarantee_monotonicity(self, dataset):
        """The headline Table 4-6 observation: no sign guarantee for PL."""
        assert not XGBoostPL().guarantees_monotonic

    def test_predict_before_fit(self, dataset):
        with pytest.raises(NotFittedError):
            XGBoostSS().predict_runtime_at(dataset, dataset.observed_tokens())

    def test_rejects_nonpositive_tokens(self, fitted_xgb, dataset):
        bad = dataset.observed_tokens().copy()
        bad[0] = 0.0
        with pytest.raises(ModelError):
            fitted_xgb.predict_runtime_at(dataset, bad)


class TestNNModel:
    def test_guaranteed_non_increasing(self, fitted_nn, dataset):
        params = fitted_nn.predict_parameters(dataset)
        assert np.all(params[:, 0] <= 0)
        for pcc in fitted_nn.predict_pccs(dataset):
            assert pcc.is_non_increasing

    def test_loss_decreases(self, fitted_nn):
        history = fitted_nn.loss_history_
        assert history[-1] < history[0]

    def test_parameter_count_near_paper(self, fitted_nn):
        """Table 7 reports 2,216 parameters for the NN."""
        assert 1800 <= fitted_nn.num_parameters() <= 2600

    def test_curves_follow_parameters(self, fitted_nn, dataset):
        grids = [np.array([10.0, 20.0, 40.0])] * len(dataset)
        curves = fitted_nn.predict_curves(dataset, grids)
        params = fitted_nn.predict_parameters(dataset)
        expected = np.exp(params[0, 1] + params[0, 0] * np.log(grids[0]))
        assert np.allclose(curves[0], expected)

    def test_lf3_requires_xgb(self, dataset):
        model = NNPCCModel(loss=LF3(), train_config=TrainConfig(epochs=1))
        with pytest.raises(ModelError):
            model.fit(dataset)

    def test_lf3_with_xgb(self, dataset, fitted_xgb):
        model = NNPCCModel(
            loss=LF3(),
            train_config=TrainConfig(epochs=2),
            xgb_model=fitted_xgb,
        )
        model.fit(dataset)
        assert model.predict_parameters(dataset).shape == (len(dataset), 2)

    def test_predict_before_fit(self, dataset):
        with pytest.raises(NotFittedError):
            NNPCCModel().predict_parameters(dataset)

    def test_curves_need_one_grid_per_example(self, fitted_nn, dataset):
        with pytest.raises(ModelError):
            fitted_nn.predict_curves(dataset, [np.array([1.0, 2.0])])


class TestGNNModel:
    def test_guaranteed_non_increasing(self, fitted_gnn, dataset):
        params = fitted_gnn.predict_parameters(dataset)
        assert np.all(params[:, 0] <= 0)

    def test_parameter_count_near_paper(self, fitted_gnn):
        """Table 7 reports 19,210 parameters for the GNN."""
        assert 15_000 <= fitted_gnn.num_parameters() <= 23_000

    def test_gnn_heavier_than_nn(self, fitted_gnn, fitted_nn):
        assert fitted_gnn.num_parameters() > 5 * fitted_nn.num_parameters()

    def test_chunked_prediction_matches_order(
        self, fitted_gnn, dataset, monkeypatch
    ):
        """Chunked prediction returns rows in the dataset's order."""
        whole = fitted_gnn.predict_parameters(dataset)
        monkeypatch.setattr(gnn_model, "_PREDICT_CHUNK", 16)
        chunked = fitted_gnn.predict_parameters(dataset)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-12)

    def test_fit_independent_of_blas_thread_count(
        self, dataset, blas_threads
    ):
        """Fits run on one BLAS thread, whatever the caller's count."""
        config = TrainConfig(epochs=2, batch_size=32, learning_rate=2e-3)

        def fit_at(count):
            if blas_threads(count) != count:
                pytest.skip(f"OpenBLAS cannot run {count} threads here")
            model = GNNPCCModel(train_config=config, seed=0).fit(dataset)
            return model.predict_parameters(dataset)

        np.testing.assert_array_equal(fit_at(2), fit_at(1))


class TestEvaluation:
    def test_nn_pattern_is_100_percent(self, fitted_nn, dataset):
        evaluation = evaluate_model(fitted_nn, dataset)
        assert evaluation.pattern_non_increasing == 1.0
        assert evaluation.curve_param_mae is not None

    def test_ss_pattern_below_100(self, dataset):
        model = XGBoostSS(seed=0).fit(dataset)
        evaluation = evaluate_model(model, dataset)
        assert evaluation.curve_param_mae is None
        assert evaluation.pattern_non_increasing < 1.0

    def test_table_rendering(self, fitted_nn, dataset):
        evaluation = evaluate_model(fitted_nn, dataset)
        table = evaluation_table([evaluation])
        assert "NN" in table
        assert "%" in table

    def test_custom_ground_truth(self, fitted_nn, dataset):
        true = dataset.observed_runtimes() * 2
        doubled = evaluate_model(fitted_nn, dataset, true_runtimes=true)
        base = evaluate_model(fitted_nn, dataset)
        assert doubled.runtime_median_ape != base.runtime_median_ape


@pytest.mark.parametrize(
    "enabled", [True, False], ids=["compiled", "reference"]
)
@pytest.mark.parametrize(
    "family", ["xgboost", "xgboost_ss", "xgboost_pl", "nn", "gnn"]
)
class TestSharedChecks:
    """Every family checks tokens and grids alike, kernels on and off."""

    def test_rejects_one_grid_too_few(self, families, family, enabled, dataset):
        grids = [reference_window(t) for t in dataset.observed_tokens()]
        with compiled.override(enabled):
            with pytest.raises(ModelError, match="one grid per example"):
                families[family].predict_curves(dataset, grids[:-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_rejects_bad_tokens(self, families, family, enabled, bad, dataset):
        tokens = dataset.observed_tokens().copy()
        tokens[3] = bad
        grids = [reference_window(t) for t in dataset.observed_tokens()]
        grids[3] = np.array([10.0, bad, 30.0])
        model = families[family]
        with compiled.override(enabled):
            with pytest.raises(ModelError, match="positive and finite"):
                model.predict_runtime_at(dataset, tokens)
            with pytest.raises(ModelError, match="positive and finite"):
                model.predict_curves(dataset, grids)


def _surface_digest(model, dataset, flighted):
    """sha256 over a fitted model's whole prediction surface.

    Covers run times at two token vectors, curves over each example's
    reference window, the ``(a, log b)`` parameters, every interval's
    three curves and both evaluations (Tables 4-6 and Table 8), each with
    the compiled kernels on and off.
    """
    digest = hashlib.sha256()
    tokens = dataset.observed_tokens()
    grids = [reference_window(t) for t in tokens]
    for enabled in (True, False):
        with compiled.override(enabled):
            for at in (tokens, np.maximum(1.0, np.floor(tokens / 3))):
                digest.update(model.predict_runtime_at(dataset, at).tobytes())
            for curve in model.predict_curves(dataset, grids):
                digest.update(curve.tobytes())
            parameters = model.predict_parameters(dataset)
            digest.update(
                b"none" if parameters is None else parameters.tobytes()
            )
            for interval in model.predict_pcc_intervals(dataset) or ():
                for pcc in (interval.lo, interval.mid, interval.hi):
                    digest.update(np.array([pcc.a, pcc.b]).tobytes())
            for evaluation in (
                evaluate_model(model, dataset),
                evaluate_on_flighted(model, flighted),
            ):
                digest.update(repr(dataclasses.astuple(evaluation)).encode())
    return digest.hexdigest()


def _fit_family(family, dataset):
    small = BoosterParams(n_estimators=30, max_depth=4)
    if family == "xgboost_pl":
        return XGBoostPL(small, seed=0).fit(dataset)
    if family == "xgboost_pl_heads":
        return XGBoostPL(small, seed=0, quantile_heads=True).fit(dataset)
    if family == "xgboost_ss":
        return XGBoostSS.from_fitted(XGBoostPL(small, seed=0).fit(dataset))
    if family == "xgboost":
        return XGBoostRuntimeModel(small, seed=0).fit(dataset)
    config = TrainConfig(epochs=3)
    if family == "nn":
        return NNPCCModel(train_config=config, seed=0).fit(dataset)
    if family == "nn_ensemble":
        return NNPCCModel(train_config=config, seed=0, ensemble_size=3).fit(
            dataset
        )
    gnn_config = TrainConfig(epochs=2, batch_size=32, learning_rate=2e-3)
    return GNNPCCModel(train_config=gnn_config, seed=0).fit(dataset)


#: :func:`_surface_digest` per family, taken before the families shared
#: one power-law evaluation, one token check and one trend-metric block
#: (x86-64 with AVX-512, OpenBLAS 0.3.31 SkylakeX kernels). The booster
#: families use no BLAS; the NN and GNN fits do, so a CPU on which
#: OpenBLAS picks other kernels may round those two apart.
SURFACE_DIGESTS = {
    "xgboost": (
        "2ff300b0d15b7541fe4dcf4d2f66f0f8fe879ed1266c2e3e5c5e0debcc84d306"
    ),
    "xgboost_pl": (
        "9101413dba208336690e52ad9fe516e142a81abffdf17ae1d3cc6d1f0175c259"
    ),
    "xgboost_pl_heads": (
        "dfc0f3f75892f12f71e8e34e8259597957be694950597bd4824942c640e38bdc"
    ),
    "xgboost_ss": (
        "3ac33a0249d7dfc95f2059d567aa2c7b4d4b7d8c415a9c7b554b29dc0d2b4a6a"
    ),
    "nn": "dae5aae54811b5b6ef11b998fe9c0a50f98eab153ca38618c687092cf78b4c1f",
    "nn_ensemble": (
        "2840b16a7bb1640386fff40abdd07e70000a1b28c4b848bb23b7ee20e40027f7"
    ),
    "gnn": "65d0e67d14c38d4d584ef4c4dafdcd7c332ea76b424a0b1c368a7f0381c4bf16",
}


class TestSurfacePin:
    """Every family answers bit for bit as it did before the refactor."""

    @pytest.mark.parametrize("family", sorted(SURFACE_DIGESTS))
    def test_surface_digest(self, family, dataset, flighted):
        model = _fit_family(family, dataset)
        digest = _surface_digest(model, dataset, flighted)
        assert digest == SURFACE_DIGESTS[family]
