"""Differential tests: compiled inference kernels vs reference paths.

The contract under test (see ``repro.ml.compiled``):

* the flattened GBM forest is **bit-identical** to the per-tree python
  traversal — asserted with ``np.array_equal``, never ``allclose``;
* the fused float32 MLP matches the float64 autograd stack to float32
  round-off, and preserves the PCC head's sign guarantee exactly;
* the ``override`` escape hatch really does route back to the
  reference implementations;
* refitting a model drops its lazily compiled kernel.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.ml import compiled
from repro.ml.autograd import Tensor
from repro.ml.compiled import FlattenedForest, FusedMLP, compile_network
from repro.ml.gbm import BoosterParams, GradientBoostingRegressor
from repro.ml.nn import Activation, Dense, Module, PCCParameterHead, Sequential
from repro.models.nn_model import NNPCCModel
from repro.models.xgboost_models import XGBoostPL, XGBoostRuntimeModel


def _training_data(seed=0, rows=300, cols=8):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 10, size=(rows, cols))
    targets = np.exp(rng.normal(3.0, 0.8, rows))
    return features, targets


@pytest.fixture(scope="module")
def fitted_booster():
    features, targets = _training_data()
    params = BoosterParams(n_estimators=30, max_depth=4, subsample=0.8)
    return GradientBoostingRegressor(params, seed=1).fit(features, targets)


class TestFlattenedForestExact:
    """GBM kernel: np.array_equal against the python traversal."""

    @pytest.mark.parametrize("objective", ["gamma", "squared_error"])
    @pytest.mark.parametrize(
        "params",
        [
            BoosterParams(n_estimators=20, max_depth=5),
            BoosterParams(n_estimators=10, max_depth=1),
            BoosterParams(
                n_estimators=12, max_depth=3, subsample=0.6, colsample=0.5
            ),
            # min_child_weight so high every tree degenerates to one leaf
            BoosterParams(n_estimators=4, max_depth=3, min_child_weight=1e9),
        ],
    )
    def test_bit_identical_across_configs(self, objective, params):
        features, targets = _training_data(seed=2)
        if objective == "squared_error":
            targets = np.log(targets) - 3.0  # signed targets
        model = GradientBoostingRegressor(
            params, objective=objective, seed=3
        ).fit(features, targets)
        batch = features[:64]
        assert np.array_equal(
            model.predict(batch), model.predict_reference(batch)
        )
        assert np.array_equal(
            model.predict_raw(batch), model.predict_raw_reference(batch)
        )

    @pytest.mark.parametrize(
        "make_batch",
        [
            lambda f: f[:0],  # empty
            lambda f: f[:1],  # single row
            lambda f: np.zeros((5, f.shape[1])),  # constant features
            lambda f: np.full((3, f.shape[1]), 1e12),  # beyond every bin
            lambda f: np.full((3, f.shape[1]), -1e12),  # below every bin
        ],
    )
    def test_adversarial_batches(self, fitted_booster, make_batch):
        features, _ = _training_data()
        batch = make_batch(features)
        assert np.array_equal(
            fitted_booster.predict(batch),
            fitted_booster.predict_reference(batch),
        )

    def test_packed_and_unpacked_traversals_agree(self, fitted_booster):
        features, _ = _training_data()
        forest = fitted_booster.compiled_forest()
        assert forest._packed is not None
        binned = fitted_booster._mapper.transform(features[:40])
        base = fitted_booster._base_score
        assert np.array_equal(
            forest._predict_raw_packed(binned, base),
            forest._predict_raw_unpacked(binned, base),
        )

    def test_oversized_fields_fall_back_to_unpacked(self):
        # A hand-built single-split tree on feature 900: the 9-bit packed
        # encoding cannot represent it, so packing must be skipped while
        # prediction still works through the unpacked walk.
        feature = np.array([900, 0, 0], dtype=np.int64)
        threshold = np.array([3, -1, -1], dtype=np.int64)
        left = np.array([1, 1, 2], dtype=np.int64)
        right = np.array([2, 1, 2], dtype=np.int64)
        value = np.array([0.0, -1.5, 2.5])
        forest = FlattenedForest.from_trees(
            [(feature, threshold, left, right, value)], learning_rate=0.5
        )
        assert forest._packed is None
        binned = np.zeros((2, 901), dtype=np.uint8)
        binned[1, 900] = 10
        raw = forest.predict_raw(binned, base_score=1.0)
        assert np.array_equal(raw, np.array([1.0 - 0.75, 1.0 + 1.25]))

    @given(
        seed=st.integers(0, 2**16),
        n_estimators=st.integers(1, 8),
        max_depth=st.integers(1, 3),
        subsample=st.floats(0.5, 1.0),
        batch_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_models_and_batches(
        self, seed, n_estimators, max_depth, subsample, batch_seed
    ):
        rng = np.random.default_rng(seed)
        features = rng.uniform(-5, 5, size=(60, 4))
        targets = np.exp(rng.normal(0, 1, 60))
        params = BoosterParams(
            n_estimators=n_estimators, max_depth=max_depth, subsample=subsample
        )
        model = GradientBoostingRegressor(params, seed=seed).fit(
            features, targets
        )
        batch_rng = np.random.default_rng(batch_seed)
        batch = batch_rng.uniform(-10, 10, size=(batch_rng.integers(0, 33), 4))
        assert np.array_equal(
            model.predict(batch), model.predict_reference(batch)
        )


class TestFusedMLP:
    """NN kernel: float32 agreement plus exact structural guarantees."""

    @pytest.mark.parametrize(
        "activation", ["relu", "tanh", "sigmoid", "softplus"]
    )
    def test_matches_autograd_within_float32(self, activation):
        rng = np.random.default_rng(7)
        network = Sequential(
            Dense(6, 16, rng),
            Activation(activation),
            Dense(16, 8, rng),
            Activation(activation),
            Dense(8, 3, rng),
        )
        fused = compile_network(network)
        batch = rng.normal(0, 2, size=(40, 6))
        got = fused.predict(batch)
        want = network(Tensor(batch)).numpy()
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=5e-5, atol=5e-5)

    def test_pcc_head_sign_guarantee_is_exact(self):
        rng = np.random.default_rng(8)
        network = Sequential(
            Dense(5, 12, rng), Activation("relu"), PCCParameterHead(12, rng)
        )
        fused = compile_network(network)
        batch = rng.normal(0, 3, size=(64, 5))
        got = fused.predict(batch)
        want = network(Tensor(batch)).numpy()
        np.testing.assert_allclose(got, want, rtol=5e-5, atol=5e-5)
        assert np.all(got[:, 0] <= 0.0)  # a = -softplus(raw) exactly

    @pytest.mark.parametrize("rows", [0, 1, 37])
    def test_degenerate_batch_sizes(self, rows):
        rng = np.random.default_rng(9)
        network = Sequential(Dense(4, 6, rng), Activation("tanh"), Dense(6, 2, rng))
        fused = compile_network(network)
        batch = rng.normal(size=(rows, 4))
        got = fused.predict(batch)
        want = network(Tensor(batch)).numpy()
        assert got.shape == want.shape == (rows, 2)
        np.testing.assert_allclose(got, want, rtol=5e-5, atol=5e-5)

    def test_does_not_mutate_caller_input(self):
        rng = np.random.default_rng(10)
        fused = FusedMLP([("act", "relu"), ("dense",
                          rng.normal(size=(3, 2)).astype(np.float32),
                          np.zeros(2, dtype=np.float32))])
        batch = np.asarray(rng.normal(size=(5, 3)), dtype=np.float32)
        snapshot = batch.copy()
        fused.predict(batch)
        assert np.array_equal(batch, snapshot)

    def test_unfusable_module_raises(self):
        class Mystery(Module):
            def forward(self, inputs):
                return inputs

        rng = np.random.default_rng(11)
        with pytest.raises(ModelError):
            compile_network(Sequential(Dense(3, 3, rng), Mystery()))

    def test_head_must_be_final(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ModelError):
            compile_network(
                Sequential(PCCParameterHead(3, rng), Dense(2, 2, rng))
            )

    def test_pickle_roundtrip_after_compilation(self):
        # ModelStore disk roundtrips pickle fitted models; the fused
        # pass holds thread-local scratch buffers and must shed them.
        import pickle

        rng = np.random.default_rng(15)
        network = Sequential(Dense(4, 6, rng), Activation("relu"), Dense(6, 2, rng))
        fused = compile_network(network)
        batch = rng.normal(size=(8, 4))
        expected = fused.predict(batch)  # warm the buffer pool first
        clone = pickle.loads(pickle.dumps(fused))
        assert np.array_equal(clone.predict(batch), expected)

    def test_thread_local_buffers_give_identical_results(self):
        rng = np.random.default_rng(13)
        network = Sequential(Dense(6, 8, rng), Activation("relu"), Dense(8, 2, rng))
        fused = compile_network(network)
        batch = rng.normal(size=(16, 6))
        expected = fused.predict(batch)
        results: dict[int, np.ndarray] = {}

        def worker(slot):
            results[slot] = fused.predict(batch)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results.values():
            assert np.array_equal(got, expected)


class TestRoutingAndEscapeHatches:
    def test_override_is_nested_and_thread_local(self):
        assert compiled.is_enabled()
        with compiled.override(False):
            assert not compiled.is_enabled()
            with compiled.override(True):
                assert compiled.is_enabled()
            assert not compiled.is_enabled()

            seen = []
            probe = threading.Thread(
                target=lambda: seen.append(compiled.is_enabled())
            )
            probe.start()
            probe.join()
            assert seen == [True]  # override does not leak across threads
        assert compiled.is_enabled()

    def test_override_false_routes_to_reference(self):
        features, targets = _training_data(seed=4)
        params = BoosterParams(n_estimators=10, max_depth=3)
        model = GradientBoostingRegressor(params, seed=5).fit(
            features, targets
        )
        assert model._compiled is None
        with compiled.override(False):
            predicted = model.predict(features[:8])
        assert model._compiled is None  # never compiled
        assert np.array_equal(
            predicted, model.predict_reference(features[:8])
        )

    def test_refit_invalidates_compiled_forest(self, fitted_booster):
        features, targets = _training_data(seed=6)
        params = BoosterParams(n_estimators=5, max_depth=2)
        model = GradientBoostingRegressor(params, seed=7).fit(
            features, targets
        )
        model.predict(features[:4])
        first = model._compiled
        assert first is not None
        model.fit(features, targets + 1.0)
        assert model._compiled is None
        model.predict(features[:4])
        assert model._compiled is not first


class TestModelLayerRouting:
    """The model wrappers route through (and can bypass) the kernels."""

    @pytest.fixture(scope="class")
    def xgb_model(self, dataset):
        return XGBoostRuntimeModel(
            BoosterParams(n_estimators=25, max_depth=4)
        ).fit(dataset)

    def test_predict_curves_batched_is_bit_identical(self, xgb_model, dataset):
        rng = np.random.default_rng(14)
        grids = [
            np.maximum(1.0, rng.uniform(10, 1000, size=rng.integers(1, 9)))
            for _ in range(len(dataset))
        ]
        batched = xgb_model.predict_curves(dataset, grids)
        with compiled.override(False):
            looped = xgb_model.predict_curves(dataset, grids)
        assert len(batched) == len(looped)
        for got, want in zip(batched, looped):
            assert np.array_equal(got, want)

    def test_predict_curves_handles_empty_grids(self, xgb_model, dataset):
        grids = [np.empty(0) for _ in range(len(dataset))]
        batched = xgb_model.predict_curves(dataset, grids)
        assert all(curve.size == 0 for curve in batched)

    def test_xgboost_pl_parameters_unchanged_by_kernels(self, dataset):
        model = XGBoostPL(BoosterParams(n_estimators=20, max_depth=3)).fit(
            dataset
        )
        compiled_params = model.predict_parameters(dataset)
        with compiled.override(False):
            reference_params = model.predict_parameters(dataset)
        assert np.array_equal(compiled_params, reference_params)

    def test_nn_routing_and_reference(self, dataset):
        from repro.models.training import TrainConfig

        model = NNPCCModel(
            hidden_sizes=(8,), train_config=TrainConfig(epochs=2), seed=2
        ).fit(dataset)
        fused = model.predict_parameters(dataset)
        reference = model.predict_parameters_reference(dataset)
        np.testing.assert_allclose(fused, reference, rtol=5e-5, atol=5e-5)
        assert np.all(fused[:, 0] <= 0.0)
        with compiled.override(False):
            assert np.array_equal(
                model.predict_parameters(dataset), reference
            )
        first = model._compiled
        assert first is not None
        model.fit(dataset)  # refit drops the fused pass
        assert model._compiled is None
