"""Feed-forward neural network building blocks on the autograd engine."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.ml.autograd import Tensor, concat

__all__ = ["Module", "Dense", "ReLU", "Sequential", "PCCParameterHead"]


class Module:
    """Base class: anything with parameters and a forward pass."""

    def parameters(self) -> list[Tensor]:
        return []

    def __call__(self, inputs: Tensor) -> Tensor:
        return self.forward(inputs)

    def forward(self, inputs: Tensor) -> Tensor:
        raise NotImplementedError

    def num_parameters(self) -> int:
        """Total scalar parameter count (Table 7)."""
        return int(sum(p.data.size for p in self.parameters()))


class Dense(Module):
    """Fully connected layer ``y = x W + b`` with He/Xavier init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        init: str = "he",
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ModelError("layer dimensions must be positive")
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(1.0 / in_features)
        else:
            raise ModelError(f"unknown init scheme: {init!r}")
        self.weight = Tensor(
            rng.normal(0.0, scale, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs @ self.weight + self.bias


class ReLU(Module):
    """The rectifier between layers, the networks' one activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        if not modules:
            raise ModelError("Sequential needs at least one module")
        self.modules = list(modules)

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

    def forward(self, inputs: Tensor) -> Tensor:
        out = inputs
        for module in self.modules:
            out = module(out)
        return out


class PCCParameterHead(Module):
    """Output head producing sign-guaranteed PCC parameters.

    The head maps a hidden representation to two raw values and constrains
    them (Section 4.5, LF1: "the signs of the two predicted curve
    parameters are guaranteed to be different"):

    * exponent ``a = -softplus(raw_a)`` — always non-positive,
    * scale ``log b = raw_logb`` — so ``b = exp(log b)`` is always
      positive.

    Together these *structurally* guarantee a monotonically non-increasing
    PCC for every prediction, which is the paper's headline advantage of
    NN/GNN over XGBoost.

    The forward pass returns a column-stacked ``(batch, 2)`` tensor of
    ``[a, log_b]``.
    """

    def __init__(self, in_features: int, rng: np.random.Generator) -> None:
        self.linear = Dense(in_features, 2, rng, init="xavier")
        # Start near a = -0.5, log_b = 5 (a generic mildly parallel job)
        # so early training predictions are already plausible curves.
        self.linear.bias.data = np.array([0.0, 5.0])

    def parameters(self) -> list[Tensor]:
        return self.linear.parameters()

    def forward(self, inputs: Tensor) -> Tensor:
        raw = self.linear(inputs)
        raw_a = raw[:, 0:1]
        raw_logb = raw[:, 1:2]
        a = -raw_a.softplus()
        return concat([a, raw_logb], axis=1)
