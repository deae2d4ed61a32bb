"""Unit tests for the reverse-mode autograd engine."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml import Tensor, concat


def numeric_gradient(func, value, eps=1e-6):
    """Central-difference gradient of scalar ``func`` at array ``value``."""
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = func(value)
        flat[i] = original - eps
        lower = func(value)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(build, shape, seed=0, atol=1e-6):
    """Compare autograd and numeric gradients of ``build(Tensor)``."""
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape)
    t = Tensor(value.copy(), requires_grad=True)
    loss = build(t)
    loss.backward()
    numeric = numeric_gradient(lambda v: build(Tensor(v)).item(), value.copy())
    assert np.allclose(t.grad, numeric, atol=atol), (
        f"autograd {t.grad} vs numeric {numeric}"
    )


class TestElementwiseGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0 + 2.0) * t).sum(), (4,))

    def test_sub_div(self):
        # Division by a constant is a product with its reciprocal, as in
        # the losses' relative errors.
        check_gradient(lambda t: ((t - 1.5) * (1.0 / 2.0)).abs().sum(), (5,))

    def test_exp(self):
        check_gradient(lambda t: ((t * 0.5).exp() * t).sum(), (4,))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), (6,))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), (6,))

    def test_softplus(self):
        check_gradient(lambda t: t.softplus().sum(), (6,))

    def test_relu(self):
        check_gradient(lambda t: (t.relu() * t).sum(), (8,), seed=3)

    def test_abs(self):
        check_gradient(lambda t: (t.abs() * 2.0).sum(), (5,), seed=1)

    def test_softplus_extreme_values_stable(self):
        t = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
        out = t.softplus()
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(t.grad))


class TestMatmulGradients:
    def test_matrix_matrix(self):
        other = np.random.default_rng(1).normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (4, 3))

    def test_matrix_matrix_right(self):
        other = np.random.default_rng(1).normal(size=(5, 4))

        def build(t):
            return (Tensor(other) @ t).tanh().sum()
        check_gradient(build, (4, 2))

    def test_batched_matmul(self):
        other = np.random.default_rng(2).normal(size=(3, 4, 2))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (3, 5, 4))

    def test_batched_matmul_broadcast_weight(self):
        """(B, N, F) @ (F, G) — the GCN pattern."""
        weight_shape = (4, 3)

        def build(t):
            weight = Tensor(np.ones(weight_shape))
            return (t @ weight).sum()
        check_gradient(build, (2, 5, 4))

    def test_vector_matrix(self):
        other = np.random.default_rng(1).normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (3,))


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0).abs() * t[0]).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(
            lambda t: (t - t.sum(axis=1, keepdims=True)).abs().sum(), (3, 4)
        )

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) * t[:, 0]).sum(), (2, 5))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) * 2.0).sum(), (2, 3))

    def test_getitem(self):
        check_gradient(lambda t: (t[:, 1:3] * t[:, 0:2]).sum(), (3, 4))

    def test_broadcasting_add(self):
        other = np.random.default_rng(0).normal(size=(1, 4))
        check_gradient(lambda t: (t + Tensor(other)).sum(), (3, 4))

    def test_broadcast_grad_shape(self):
        bias = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(np.ones((5, 4)))
        (x + bias).sum().backward()
        assert bias.grad.shape == (4,)
        assert np.allclose(bias.grad, 5.0)


class TestHelpers:
    def test_concat(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_concat_empty_raises(self):
        with pytest.raises(ModelError):
            concat([])

    def test_tensor_constructor(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.requires_grad
        assert t.shape == (2,)


class TestBackwardSemantics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ModelError):
            (t * 2.0).backward()

    def test_gradient_accumulates_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * t).sum().backward()  # d(t^2)/dt = 2t = 4
        assert t.grad[0] == pytest.approx(4.0)

    def test_zero_grad(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * 3.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_tracking_for_constants(self):
        a = Tensor(np.ones(3))
        out = a * 2.0
        assert not out.requires_grad

    def test_diamond_graph(self):
        """Gradient through a reused intermediate accumulates once per path."""
        t = Tensor(np.array([3.0]), requires_grad=True)
        shared = t * 2.0
        loss = (shared * shared).sum()  # (2t)^2 -> d/dt = 8t = 24
        loss.backward()
        assert t.grad[0] == pytest.approx(24.0)

    def test_deep_chain_iterative_topo(self):
        """1000-deep chains must not hit recursion limits."""
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(1000):
            out = out + 1.0
        out.sum().backward()
        assert t.grad[0] == 1.0
