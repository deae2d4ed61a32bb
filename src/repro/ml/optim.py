"""The Adam optimizer that trains the NN and GNN models."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.ml.autograd import Tensor

__all__ = ["Adam"]

#: Kingma & Ba's defaults, which every model trains with.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam (Kingma & Ba) with bias correction over parameter tensors."""

    def __init__(
        self, parameters: list[Tensor], learning_rate: float = 1e-3
    ) -> None:
        if learning_rate <= 0:
            raise ModelError("learning rate must be positive")
        if not parameters:
            raise ModelError("optimizer needs at least one parameter")
        for p in parameters:
            if not p.requires_grad:
                raise ModelError("all optimized tensors must require grad")
        self.parameters = parameters
        self.learning_rate = learning_rate
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in parameters]
        self._v = [np.zeros_like(p.data) for p in parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._step += 1
        correction1 = 1.0 - BETA1**self._step
        correction2 = 1.0 - BETA2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= BETA1
            m += (1.0 - BETA1) * p.grad
            v *= BETA2
            v += (1.0 - BETA2) * p.grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            p.data = p.data - self.learning_rate * m_hat / (
                np.sqrt(v_hat) + EPSILON
            )
