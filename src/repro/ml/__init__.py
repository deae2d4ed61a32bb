"""ML substrate: autograd, neural layers, GBM, GNN, losses, metrics.

``repro.ml.compiled`` holds the flattened batch-inference kernels the
online layers score through (see ``docs/performance.md``).
"""

from repro.ml.autograd import Tensor, concat
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
    median_absolute_percentage_error,
)
from repro.ml.nn import Dense, Module, PCCParameterHead, ReLU, Sequential
from repro.ml.optim import Adam

__all__ = [
    "Tensor",
    "concat",
    "Module",
    "Dense",
    "ReLU",
    "Sequential",
    "PCCParameterHead",
    "Adam",
    "CompositeLoss",
    "LossInputs",
    "LF1",
    "LF2",
    "LF3",
    "median_absolute_percentage_error",
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
