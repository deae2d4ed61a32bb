"""Shared training loop for the parameter-predicting networks (NN/GNN)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.features.encoders import TargetScaler
from repro.ml.autograd import Tensor
from repro.ml.losses import CompositeLoss, LossInputs
from repro.ml.optim import Adam
from repro.models.base import PCCPredictor
from repro.models.dataset import PCCDataset

__all__ = ["TrainConfig", "loss_inputs", "train_parameter_model"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyper-parameters for NN/GNN training."""

    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 3e-3

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ModelError("epochs and batch_size must be positive")
        if not 0 < self.learning_rate < float("inf"):
            raise ModelError(
                "learning_rate must be finite and positive, "
                f"got {self.learning_rate}"
            )


def loss_inputs(
    dataset: PCCDataset,
    loss: CompositeLoss,
    target_scaler: TargetScaler,
    xgb_model: PCCPredictor | None,
) -> LossInputs:
    """Fit ``target_scaler`` to the targets; the loss's per-example inputs.

    LF3 also reads ``xgb_model``'s run times at the observed tokens, so
    it needs that model fitted (:class:`ModelError` without one).
    """
    targets = dataset.target_matrix()
    target_scaler.fit(targets)
    xgb_runtime = None
    if loss.needs_xgb:
        if xgb_model is None:
            raise ModelError("LF3 requires a fitted XGBoost model")
        xgb_runtime = xgb_model.predict_runtime_at(
            dataset, dataset.observed_tokens()
        )
    return LossInputs(
        target_params=targets,
        param_scale=target_scaler.scale_,
        log_tokens=np.log(dataset.observed_tokens()),
        true_runtime=dataset.observed_runtimes(),
        xgb_runtime=xgb_runtime,
    )


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
        Shuffles the example order at the start of every epoch.

    Returns
    -------
    list of float
        Mean epoch losses, for convergence diagnostics.
    """
    optimizer = Adam(parameters, learning_rate=config.learning_rate)
    history: list[float] = []
    indices = np.arange(num_examples)

    for _ in range(config.epochs):
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
        history.append(float(np.mean(epoch_losses)))
    return history
