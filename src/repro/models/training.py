"""Shared training loop for the parameter-predicting networks (NN/GNN)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.ml.autograd import Tensor
from repro.ml.losses import CompositeLoss, LossInputs
from repro.ml.optim import Adam

__all__ = ["TrainConfig", "train_parameter_model"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyper-parameters for NN/GNN training."""

    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 3e-3
    shuffle: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ModelError("epochs and batch_size must be positive")


def train_parameter_model(
    forward: Callable[[np.ndarray], Tensor],
    parameters: list[Tensor],
    loss_fn: CompositeLoss,
    inputs: LossInputs,
    num_examples: int,
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Mini-batch Adam training of a ``(a, log b)`` prediction model.

    Parameters
    ----------
    forward:
        Maps an index array (into the training set) to a ``(batch, 2)``
        prediction tensor. Index-based so the same loop drives both the
        dense NN (slicing a feature matrix) and the GNN (cutting a batch
        out of its packed graphs).
    parameters:
        The trainable tensors.
    loss_fn, inputs:
        The composite loss and its per-example constants.
    num_examples:
        Size of the training set.
    config:
        Optimisation schedule.
    rng:
        Source of shuffling randomness.

    Returns
    -------
    list of float
        Mean epoch losses, for convergence diagnostics.
    """
    optimizer = Adam(parameters, learning_rate=config.learning_rate)
    history: list[float] = []
    indices = np.arange(num_examples)

    for epoch in range(config.epochs):
        if config.shuffle:
            rng.shuffle(indices)
        epoch_losses: list[float] = []
        for start in range(0, num_examples, config.batch_size):
            batch = indices[start : start + config.batch_size]
            optimizer.zero_grad()
            predictions = forward(batch)
            loss = loss_fn(predictions, inputs.subset(batch))
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        if config.verbose:
            print(f"epoch {epoch + 1:3d}/{config.epochs}: loss={mean_loss:.5f}")
    return history
