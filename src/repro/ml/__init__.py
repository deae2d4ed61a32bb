"""ML substrate: autograd, neural layers, GBM, GNN, losses, metrics.

``repro.ml.compiled`` holds the flattened batch-inference kernels the
online layers score through (see ``docs/performance.md``).
"""

from repro.ml.autograd import Tensor, concat, maximum, tensor, where
from repro.ml.compiled import FlattenedForest, FusedMLP, compile_network
from repro.ml.gbm import BoosterParams, GradientBoostingRegressor
from repro.ml.gnn import (
    AttentionPooling,
    GNNEncoder,
    GraphConvolution,
    PackedBatch,
    PackedGraphs,
)
from repro.ml.losses import LF1, LF2, LF3, CompositeLoss, LossInputs
from repro.ml.metrics import (
    fraction_non_increasing,
    mean_absolute_error,
    mean_absolute_percentage_error,
    median_absolute_percentage_error,
)
from repro.ml.nn import Activation, Dense, Module, PCCParameterHead, Sequential
from repro.ml.optim import SGD, Adam, Optimizer

__all__ = [
    "Tensor",
    "tensor",
    "concat",
    "maximum",
    "where",
    "Module",
    "Dense",
    "Activation",
    "Sequential",
    "PCCParameterHead",
    "Optimizer",
    "SGD",
    "Adam",
    "CompositeLoss",
    "LossInputs",
    "LF1",
    "LF2",
    "LF3",
    "mean_absolute_error",
    "median_absolute_percentage_error",
    "mean_absolute_percentage_error",
    "fraction_non_increasing",
    "BoosterParams",
    "GradientBoostingRegressor",
    "FlattenedForest",
    "FusedMLP",
    "compile_network",
    "PackedBatch",
    "PackedGraphs",
    "GraphConvolution",
    "AttentionPooling",
    "GNNEncoder",
]
