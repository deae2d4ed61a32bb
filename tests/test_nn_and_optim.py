"""Unit tests for neural layers, heads, and the Adam optimizer."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml import Adam, Dense, PCCParameterHead, ReLU, Sequential, Tensor


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_parameter_count(self, rng):
        layer = Dense(4, 3, rng)
        assert sum(p.data.size for p in layer.parameters()) == 4 * 3 + 3

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ModelError):
            Dense(0, 3, rng)

    def test_rejects_unknown_init(self, rng):
        with pytest.raises(ModelError):
            Dense(2, 2, rng, init="magic")


class TestActivationAndSequential:
    def test_relu_activation(self, rng):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        assert list(out.data) == [0.0, 2.0]

    def test_sequential_composes(self, rng):
        net = Sequential(Dense(4, 8, rng), ReLU(), Dense(8, 2, rng))
        out = net(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert net.num_parameters() == (4 * 8 + 8) + (8 * 2 + 2)

    def test_sequential_needs_modules(self):
        with pytest.raises(ModelError):
            Sequential()


class TestPCCParameterHead:
    def test_sign_guarantee(self, rng):
        """The head structurally forces a <= 0 for any input."""
        head = PCCParameterHead(6, rng)
        inputs = Tensor(rng.normal(0, 100, size=(50, 6)))  # extreme inputs
        out = head(inputs)
        assert out.shape == (50, 2)
        assert np.all(out.data[:, 0] <= 0)

    def test_gradients_flow(self, rng):
        head = PCCParameterHead(3, rng)
        out = head(Tensor(rng.normal(size=(4, 3))))
        out.abs().sum().backward()
        for p in head.parameters():
            assert p.grad is not None


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        weight = Tensor(np.zeros(2), requires_grad=True)

        def loss():
            delta = weight - Tensor(target)
            return (delta * delta).sum()

        return weight, target, loss

    def test_adam_converges(self):
        weight, target, loss = self._quadratic_problem()
        optimizer = Adam([weight], learning_rate=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            loss().backward()
            optimizer.step()
        assert np.allclose(weight.data, target, atol=1e-3)

    def test_zero_grad_clears(self):
        weight, _, loss = self._quadratic_problem()
        optimizer = Adam([weight], learning_rate=0.1)
        loss().backward()
        optimizer.zero_grad()
        assert weight.grad is None

    def test_step_skips_gradless_params(self):
        weight = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([weight])
        optimizer.step()  # no gradient yet: must not crash or move
        assert np.allclose(weight.data, 1.0)

    def test_rejects_bad_config(self):
        weight = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ModelError):
            Adam([weight], learning_rate=0)
        with pytest.raises(ModelError):
            Adam([], learning_rate=0.1)
        with pytest.raises(ModelError):
            Adam([Tensor(np.ones(1))])  # requires_grad=False
