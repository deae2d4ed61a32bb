"""Gradient-boosted regression trees (XGBoost stand-in)."""

from repro.ml.gbm.booster import BoosterParams, GradientBoostingRegressor
from repro.ml.gbm.objectives import GammaDeviance, Objective, PinballLoss
from repro.ml.gbm.tree import BinMapper, RegressionTree

__all__ = [
    "BoosterParams",
    "GradientBoostingRegressor",
    "Objective",
    "GammaDeviance",
    "PinballLoss",
    "BinMapper",
    "RegressionTree",
]
