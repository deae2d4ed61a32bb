"""Boosting objectives (first/second-order gradients).

The booster optimises in *raw score* space; objectives define the link
between raw scores and predictions and supply the per-sample gradient and
hessian of the loss with respect to the raw score. The paper trains
"XGBoost with Gamma regression trees" for run-time prediction —
:class:`GammaDeviance` reproduces ``reg:gamma`` (log link, gamma negative
log-likelihood), which is natural for positive, right-skewed run times.

:class:`PinballLoss` adds quantile regression on the same log link:
fitting it at q10/q50/q90 turns the run-time booster into an interval
predictor ("Runtime Variation in Big Data Analytics" shows run times are
distributions, not points). Quantiles are preserved under monotone maps,
so the q-th quantile of ``log(runtime)`` maps through ``exp`` to the
q-th quantile of ``runtime`` — fitting in log space costs nothing in
quantile semantics and keeps the positive, right-skewed response well
conditioned (see ``docs/uncertainty.md``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ModelError

__all__ = ["Objective", "GammaDeviance", "PinballLoss"]


class Objective(ABC):
    """Defines link, inverse link, and loss derivatives."""

    @abstractmethod
    def base_score(self, y: np.ndarray) -> float:
        """Initial raw score minimising the loss with no features."""

    @abstractmethod
    def gradients(
        self, y: np.ndarray, raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample (gradient, hessian) of the loss wrt the raw score."""

    @abstractmethod
    def predict(self, raw: np.ndarray) -> np.ndarray:
        """Map raw scores to the response scale."""

    def validate_targets(self, y: np.ndarray) -> None:
        """Raise if the targets are unusable for this objective."""


def _require_positive_finite(y: np.ndarray, objective: str) -> None:
    """Both log-link objectives need finite targets above zero: one NaN
    target, or +inf under gamma, would make every prediction NaN."""
    y = np.asarray(y)
    if not np.isfinite(y).all():
        raise ModelError(f"{objective} requires finite targets")
    if np.any(y <= 0):
        raise ModelError(f"{objective} requires strictly positive targets")


class GammaDeviance(Objective):
    """Gamma negative log-likelihood with a log link (``reg:gamma``).

    With ``mu = exp(raw)`` and unit shape, the relevant part of the
    deviance is ``raw + y * exp(-raw)``; hence

    * gradient  = ``1 - y * exp(-raw)``
    * hessian   = ``y * exp(-raw)``
    """

    def validate_targets(self, y: np.ndarray) -> None:
        _require_positive_finite(y, "gamma regression")

    def base_score(self, y: np.ndarray) -> float:
        self.validate_targets(y)
        return float(np.log(np.mean(y)))

    def gradients(
        self, y: np.ndarray, raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        exp_neg = np.exp(-np.clip(raw, -60, 60)) * y
        return 1.0 - exp_neg, exp_neg

    def predict(self, raw: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(raw, -60, 60))


class PinballLoss(Objective):
    """Quantile (pinball) loss on ``log(y)`` with a log link.

    With ``u = log(y) - raw`` the pinball loss at quantile ``q`` is
    ``L = max(q * u, (q - 1) * u)``; its subgradient with respect to the
    raw score is

    * gradient = ``1[raw > log(y)] - q``  (``-q`` on the kink),
    * hessian  = ``1`` (the loss is piecewise linear; a unit surrogate
      turns the Newton step into a plain gradient step, the standard
      boosting treatment of quantile objectives).

    The base score is the empirical q-quantile of ``log(y)``, the raw
    score minimising the loss with no features.
    """

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ModelError("pinball quantile must be inside (0, 1)")
        self.quantile = float(quantile)

    def validate_targets(self, y: np.ndarray) -> None:
        _require_positive_finite(y, "pinball regression (log link)")

    def base_score(self, y: np.ndarray) -> float:
        self.validate_targets(y)
        return float(np.quantile(np.log(y), self.quantile))

    def gradients(
        self, y: np.ndarray, raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        over = raw > np.log(y)
        return over.astype(float) - self.quantile, np.ones_like(raw)

    def predict(self, raw: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(raw, -60, 60))
