"""XGBoost-style point-prediction models (Section 4.4).

Both variants share one gradient-boosted run-time regressor trained on
``[job features, log(tokens)] -> runtime`` rows, where each job
contributes its observed run plus the AREPAS point augmentation (80%/60%
under-allocations, 120%/140% over-peak observations with floored run
times). Fitted with the same parameters and seed, the two boosters are
identical, so :meth:`XGBoostRuntimeModel.from_fitted` derives one
variant from the other's fit instead of training the booster twice.

* **XGBoost SS** forms the PCC by querying the booster at multiple token
  counts and smoothing the points (a smoothing spline). No shape
  assumption, and — as the paper shows — no monotonicity guarantee.
* **XGBoost PL** fits a power law through point predictions taken within
  +/-40% of the job's reference token count. The fitted curve may end up
  *increasing* when the point predictions trend the wrong way, which is
  exactly the failure mode Tables 4-6 report (~27% of jobs).

**Quantile heads** (opt-in, ``quantile_heads=True``): alongside the
gamma point booster, two additional boosters are fitted on the *same*
rows with the pinball objective at q10 and q90
(:class:`~repro.ml.gbm.objectives.PinballLoss`), turning the model into
an interval predictor. The heads use their own, deliberately *shallower*
default hyper-parameters: the point booster's deep trees memorise the
training rows, and a memorised conditional quantile collapses onto the
point prediction — held-out coverage craters. The point booster's fit is
byte-identical with heads on or off (every booster draws from its own
seeded stream), so enabling intervals never perturbs the point
predictions. XGBoost PL
additionally refits a power law through each quantile head's point
curve and repairs crossings via
:meth:`~repro.pcc.intervals.PCCInterval.from_quantiles`
(see ``docs/uncertainty.md``).
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import UnivariateSpline

from repro.exceptions import ModelError
from repro.ml import compiled as compiled_kernels
from repro.ml.gbm import BoosterParams, GradientBoostingRegressor, PinballLoss
from repro.models.base import PCCPredictor
from repro.models.dataset import PCCDataset
from repro.pcc.curve import PowerLawPCC
from repro.pcc.fitting import fit_power_law
from repro.pcc.intervals import PCCInterval

__all__ = ["XGBoostRuntimeModel", "XGBoostSS", "XGBoostPL", "reference_window"]

#: Default hyper-parameters for the pinball quantile heads. Quantile
#: regression overfits much faster than the gamma point objective — a
#: deep booster reproduces the training rows' empirical quantiles and
#: under-covers held-out data — so the heads default to shallow,
#: strongly regularised trees (held-out q10-q90 coverage ~0.75 on the
#: seeded workload vs ~0.44 with the point booster's parameters).
QUANTILE_HEAD_PARAMS = BoosterParams(
    n_estimators=40, max_depth=3, learning_rate=0.1, subsample=0.9
)


def reference_window(
    reference_tokens: float, num_points: int = 9, spread: float = 0.4
) -> np.ndarray:
    """Token grid spanning +/-``spread`` of the reference count."""
    if reference_tokens <= 0:
        raise ModelError("reference token count must be positive")
    grid = reference_tokens * np.linspace(1 - spread, 1 + spread, num_points)
    return np.maximum(1.0, grid)


class XGBoostRuntimeModel(PCCPredictor):
    """The shared booster: direct run-time point predictions."""

    name = "XGBoost"
    guarantees_monotonic = False

    def __init__(
        self,
        booster_params: BoosterParams | None = None,
        seed: int = 0,
        quantile_heads: bool = False,
        quantiles: tuple[float, float] = (0.1, 0.9),
        quantile_params: BoosterParams | None = None,
    ) -> None:
        super().__init__()
        self.booster_params = booster_params or BoosterParams(
            n_estimators=150, max_depth=6, learning_rate=0.1, subsample=0.9
        )
        self.quantile_params = quantile_params or QUANTILE_HEAD_PARAMS
        self._seed = seed
        if len(quantiles) != 2 or not 0 < quantiles[0] < 0.5 < quantiles[1] < 1:
            raise ModelError(
                "quantiles must be a (lo, hi) pair straddling the median"
            )
        self.quantile_heads = quantile_heads
        self.quantiles = (float(quantiles[0]), float(quantiles[1]))
        self._booster: GradientBoostingRegressor | None = None
        self._quantile_boosters: dict[float, GradientBoostingRegressor] = {}

    @classmethod
    def from_fitted(
        cls, model: "XGBoostRuntimeModel"
    ) -> "XGBoostRuntimeModel":
        """A fitted ``cls`` that shares ``model``'s boosters.

        Every variant trains the same boosters on the same rows and
        differs only in how it turns point predictions into curves, so
        one fit serves them all: the result is bit-identical to fitting
        ``cls`` with ``model``'s booster parameters, seed and quantile
        heads. Its other constructor arguments keep their defaults.
        """
        model._check_fitted()
        twin = cls(
            booster_params=model.booster_params,
            seed=model._seed,
            quantile_heads=model.quantile_heads,
            quantiles=model.quantiles,
            quantile_params=model.quantile_params,
        )
        twin._booster = model._booster
        twin._quantile_boosters = dict(model._quantile_boosters)
        twin._fitted = True
        return twin

    def fit(self, dataset: PCCDataset) -> "XGBoostRuntimeModel":
        rows, targets = dataset.point_rows()
        self._booster = GradientBoostingRegressor(
            self.booster_params,
            objective="gamma",
            seed=self._seed,
        )
        self._booster.fit(rows, targets)
        self._quantile_boosters = {}
        if self.quantile_heads:
            # Independent boosters with independent seeded streams: the
            # point booster above is byte-identical with heads on or off.
            for offset, quantile in enumerate(self.quantiles):
                booster = GradientBoostingRegressor(
                    self.quantile_params,
                    objective=PinballLoss(quantile),
                    seed=self._seed + 101 + offset,
                )
                booster.fit(rows, targets)
                self._quantile_boosters[quantile] = booster
        self._fitted = True
        return self

    @property
    def supports_intervals(self) -> bool:
        return bool(self._quantile_boosters)

    # ------------------------------------------------------------------
    def _query(
        self,
        dataset: PCCDataset,
        tokens: np.ndarray,
        booster: GradientBoostingRegressor | None = None,
    ) -> np.ndarray:
        """Booster predictions for example ``i`` at ``tokens[i]``."""
        self._check_fitted()
        booster = booster if booster is not None else self._booster
        assert booster is not None
        tokens = np.asarray(tokens, dtype=float)
        if np.any(tokens <= 0):
            raise ModelError("token counts must be positive")
        features = dataset.job_feature_matrix()
        rows = np.column_stack([features, np.log(tokens)])
        return booster.predict(rows)

    def predict_runtime_at(
        self, dataset: PCCDataset, tokens: np.ndarray
    ) -> np.ndarray:
        return self._query(dataset, tokens)

    def predict_curves(
        self, dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Raw booster point predictions over each grid (no smoothing).

        With compiled inference on, all grids are evaluated with a
        *single* booster call (repeat the feature rows, concatenate the
        grids, split the predictions back). Binning, traversal and
        accumulation are all elementwise per row, so the batched call is
        bit-identical to the per-example loop it replaces.
        """
        return self._point_curves(dataset, grids, self._booster)

    def _point_curves(
        self,
        dataset: PCCDataset,
        grids: list[np.ndarray],
        booster: GradientBoostingRegressor | None,
    ) -> list[np.ndarray]:
        self._check_fitted()
        assert booster is not None
        features = dataset.job_feature_matrix()
        if compiled_kernels.is_enabled():
            return self._predict_curves_batched(features, grids, booster)
        curves = []
        for feature_row, grid in zip(features, grids):
            grid = np.asarray(grid, dtype=float)
            rows = np.column_stack(
                [np.tile(feature_row, (grid.size, 1)), np.log(grid)]
            )
            curves.append(booster.predict(rows))
        return curves

    def _predict_curves_batched(
        self,
        features: np.ndarray,
        grids: list[np.ndarray],
        booster: GradientBoostingRegressor,
    ) -> list[np.ndarray]:
        # zip() semantics of the reference loop: truncate to the shorter.
        count = min(features.shape[0], len(grids))
        flat_grids = [np.asarray(grids[i], dtype=float) for i in range(count)]
        sizes = [grid.size for grid in flat_grids]
        if count == 0:
            return []
        rows = np.column_stack(
            [
                np.repeat(features[:count], sizes, axis=0),
                np.log(np.concatenate(flat_grids)),
            ]
        )
        predictions = booster.predict(rows)
        return np.split(predictions, np.cumsum(sizes)[:-1])

    def predict_interval(
        self, dataset: PCCDataset, tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """q10/q50/q90 run times of example ``i`` at ``tokens[i]``.

        ``mid`` is the unchanged gamma point prediction; ``lo``/``hi``
        come from the pinball heads, crossing-fixed pointwise
        (``lo = min(lo, mid)``, ``hi = max(hi, mid)``) so the triple is
        always ordered. Without heads this is the degenerate default.
        """
        mid = self._query(dataset, tokens)
        if not self._quantile_boosters:
            return mid, mid, mid
        q_lo, q_hi = self.quantiles
        lo = self._query(dataset, tokens, self._quantile_boosters[q_lo])
        hi = self._query(dataset, tokens, self._quantile_boosters[q_hi])
        return np.minimum(lo, mid), mid, np.maximum(hi, mid)


class XGBoostSS(XGBoostRuntimeModel):
    """XGBoost + smoothing spline over point predictions."""

    name = "XGBoost SS"

    def __init__(
        self,
        booster_params: BoosterParams | None = None,
        smoothing: float = 0.05,
        seed: int = 0,
        quantile_heads: bool = False,
        quantiles: tuple[float, float] = (0.1, 0.9),
        quantile_params: BoosterParams | None = None,
    ) -> None:
        super().__init__(
            booster_params, seed, quantile_heads, quantiles, quantile_params
        )
        if smoothing < 0:
            raise ModelError("smoothing must be non-negative")
        self.smoothing = smoothing

    def predict_curves(
        self, dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        raw_curves = super().predict_curves(dataset, grids)
        smoothed = []
        for grid, curve in zip(grids, raw_curves):
            grid = np.asarray(grid, dtype=float)
            if grid.size < 4:
                smoothed.append(curve)
                continue
            # Smooth in log space; s scales with variance of the points.
            log_curve = np.log(curve)
            spline = UnivariateSpline(
                np.log(grid),
                log_curve,
                k=min(3, grid.size - 1),
                s=self.smoothing * grid.size * np.var(log_curve),
            )
            smoothed.append(np.exp(spline(np.log(grid))))
        return smoothed


class XGBoostPL(XGBoostRuntimeModel):
    """XGBoost + power-law refit of point predictions."""

    name = "XGBoost PL"

    def __init__(
        self,
        booster_params: BoosterParams | None = None,
        window_points: int = 9,
        window_spread: float = 0.4,
        seed: int = 0,
        quantile_heads: bool = False,
        quantiles: tuple[float, float] = (0.1, 0.9),
        quantile_params: BoosterParams | None = None,
    ) -> None:
        super().__init__(
            booster_params, seed, quantile_heads, quantiles, quantile_params
        )
        self.window_points = window_points
        self.window_spread = window_spread

    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray:
        """Fit ``(a, log b)`` through predictions near each reference."""
        self._check_fitted()
        references = dataset.observed_tokens()
        grids = [
            reference_window(ref, self.window_points, self.window_spread)
            for ref in references
        ]
        point_curves = XGBoostRuntimeModel.predict_curves(self, dataset, grids)
        parameters = np.zeros((len(grids), 2))
        for i, (grid, curve) in enumerate(zip(grids, point_curves)):
            pcc = fit_power_law(grid, np.maximum(curve, 1e-9))
            parameters[i] = pcc.log_parameters()
        return parameters

    def predict_curves(
        self, dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Evaluate the refit power law over each requested grid."""
        parameters = self.predict_parameters(dataset)
        return [
            np.exp(log_b + a * np.log(np.asarray(grid, dtype=float)))
            for (a, log_b), grid in zip(parameters, grids)
        ]

    def predict_pcc_intervals(
        self, dataset: PCCDataset
    ) -> list[PCCInterval] | None:
        """Power-law interval per example from the quantile heads.

        The quantile curves share the median's exponent and differ only
        in scale: each head is queried once, at the job's reference
        token count, and the q10/q90-to-median *ratio* there shifts the
        median curve down/up in ``log b`` (a multiplicative — log-normal
        — error model, the same one :func:`~repro.pcc.intervals
        .pcc_at_risk` interpolates under). Refitting a separate power
        law through each head's curve looks more expressive but fails in
        practice: the regularised heads are nearly constant across the
        ±40% reference window, so the refit quantile curves come out
        flat (exponent ~0) and a risk-adjusted deadline search on them
        concludes no token count can ever buy down the q90 — parallel
        curves keep "more tokens help" exactly as true at q90 as at the
        median. Shifts are clamped non-negative so the triple is ordered
        by construction. Without heads, falls back to the base
        degenerate intervals.
        """
        if not self._quantile_boosters:
            return super().predict_pcc_intervals(dataset)
        self._check_fitted()
        references = dataset.observed_tokens()
        q_lo, q_hi = self.quantiles
        mid_params = self.predict_parameters(dataset)
        mid_at_ref = self._query(dataset, references)
        lo_at_ref = self._query(
            dataset, references, self._quantile_boosters[q_lo]
        )
        hi_at_ref = self._query(
            dataset, references, self._quantile_boosters[q_hi]
        )
        floor = 1e-9
        up = np.log(np.maximum(hi_at_ref, floor)) - np.log(
            np.maximum(mid_at_ref, floor)
        )
        down = np.log(np.maximum(mid_at_ref, floor)) - np.log(
            np.maximum(lo_at_ref, floor)
        )
        up = np.maximum(up, 0.0)
        down = np.maximum(down, 0.0)
        intervals = []
        for (a, log_b), shift_up, shift_down in zip(mid_params, up, down):
            intervals.append(
                PCCInterval(
                    lo=PowerLawPCC.from_log_parameters(a, log_b - shift_down),
                    mid=PowerLawPCC.from_log_parameters(a, log_b),
                    hi=PowerLawPCC.from_log_parameters(a, log_b + shift_up),
                )
            )
        return intervals
