"""Unit tests for the shared NN/GNN training loop."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.autograd import Tensor
from repro.ml.losses import LF1, LF2, LossInputs
from repro.ml.nn import Dense, PCCParameterHead, Sequential
from repro.models.training import TrainConfig, train_parameter_model


@pytest.fixture()
def toy_problem(rng):
    """A learnable mapping: features linearly determine (a, log b)."""
    n = 120
    features = rng.normal(size=(n, 4))
    true_a = -0.3 - 0.5 / (1 + np.exp(-features[:, 0]))  # in (-0.8, -0.3)
    true_log_b = 5.0 + 0.5 * features[:, 1]
    targets = np.column_stack([true_a, true_log_b])
    tokens = rng.uniform(10, 200, size=n)
    runtimes = np.exp(true_log_b + true_a * np.log(tokens))
    inputs = LossInputs(
        target_params=targets,
        param_scale=np.abs(targets).mean(axis=0),
        log_tokens=np.log(tokens),
        true_runtime=runtimes,
    )
    return features, inputs


def _make_network(rng):
    return Sequential(Dense(4, 16, rng), PCCParameterHead(16, rng))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            TrainConfig(epochs=0)
        with pytest.raises(ModelError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize(
        "learning_rate", [float("nan"), float("inf"), 0.0, -1e-3]
    )
    def test_rejects_learning_rate_outside_positive_reals(
        self, learning_rate
    ):
        with pytest.raises(ModelError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)


class TestTrainingLoop:
    def test_loss_decreases(self, toy_problem, rng):
        features, inputs = toy_problem
        network = _make_network(rng)

        history = train_parameter_model(
            lambda batch: network(Tensor(features[batch])),
            network.parameters(),
            LF1(),
            inputs,
            num_examples=features.shape[0],
            config=TrainConfig(epochs=30, batch_size=32,
                               learning_rate=5e-3),
            rng=np.random.default_rng(0),
        )
        assert len(history) == 30
        assert history[-1] < 0.5 * history[0]

    def test_learns_toy_mapping(self, toy_problem, rng):
        features, inputs = toy_problem
        network = _make_network(rng)
        train_parameter_model(
            lambda batch: network(Tensor(features[batch])),
            network.parameters(),
            LF2(runtime_weight=0.3),
            inputs,
            num_examples=features.shape[0],
            config=TrainConfig(epochs=80, batch_size=32,
                               learning_rate=5e-3),
            rng=np.random.default_rng(1),
        )
        predictions = network(Tensor(features)).numpy()
        mae_a = np.abs(predictions[:, 0] - inputs.target_params[:, 0]).mean()
        assert mae_a < 0.12
        assert np.all(predictions[:, 0] <= 0)  # head guarantee survives

    def test_deterministic_given_rngs(self, toy_problem):
        features, inputs = toy_problem

        def run(seed):
            rng = np.random.default_rng(seed)
            network = _make_network(rng)
            train_parameter_model(
                lambda batch: network(Tensor(features[batch])),
                network.parameters(),
                LF1(),
                inputs,
                num_examples=features.shape[0],
                config=TrainConfig(epochs=5, batch_size=16),
                rng=np.random.default_rng(seed + 1),
            )
            return network(Tensor(features)).numpy()

        assert np.allclose(run(7), run(7))
        assert not np.allclose(run(7), run(8))

    def test_batch_smaller_than_dataset(self, toy_problem, rng):
        """Trailing partial batches must be processed, not dropped."""
        features, inputs = toy_problem
        network = _make_network(rng)
        seen = []

        def forward(batch):
            seen.append(len(batch))
            return network(Tensor(features[batch]))

        train_parameter_model(
            forward,
            network.parameters(),
            LF1(),
            inputs,
            num_examples=features.shape[0],
            config=TrainConfig(epochs=1, batch_size=50),
            rng=np.random.default_rng(0),
        )
        assert seen == [50, 50, 20]
