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
rows with the pinball objective at the lo and hi quantiles of
:data:`~repro.pcc.intervals.INTERVAL_QUANTILES`
(:class:`~repro.ml.gbm.objectives.PinballLoss`), turning the model into
an interval predictor. The heads use their own, deliberately *shallower*
hyper-parameters (:data:`QUANTILE_HEAD_PARAMS`): the point booster's
deep trees memorise the training rows, and a memorised conditional
quantile collapses onto the point prediction — held-out coverage
craters. The point booster's fit is byte-identical with heads on or off
(every booster draws from its own seeded stream), so enabling intervals
never perturbs the point predictions. XGBoost PL shifts its median power
law by each head's ratio to the median at the job's reference token
count (see :meth:`XGBoostPL.predict_pcc_intervals` and
``docs/uncertainty.md``).
"""

from __future__ import annotations

import numpy as np

from repro.ml import compiled as compiled_kernels
from repro.ml.gbm import BoosterParams, GradientBoostingRegressor, PinballLoss
from repro.models.base import PCCPredictor, check_tokens
from repro.models.dataset import PCCDataset
from repro.pcc.curve import PowerLawPCC
from repro.pcc.fitting import fit_power_law, fit_power_laws
from repro.pcc.intervals import INTERVAL_QUANTILES, PCCInterval

__all__ = ["XGBoostRuntimeModel", "XGBoostSS", "XGBoostPL", "reference_window"]

#: Hyper-parameters of the pinball quantile heads. Quantile regression
#: overfits much faster than the gamma point objective — a deep booster
#: reproduces the training rows' empirical quantiles and under-covers
#: held-out data — so the heads use shallow, strongly regularised trees
#: (held-out q10-q90 coverage ~0.75 on the seeded workload vs ~0.44 with
#: the point booster's parameters).
QUANTILE_HEAD_PARAMS = BoosterParams(
    n_estimators=40, max_depth=3, learning_rate=0.1, subsample=0.9
)
#: Token counts in a reference window, and its half-width as a share of
#: the reference count: the paper's 9 points within +/-40%.
WINDOW_POINTS = 9
WINDOW_SPREAD = 0.4
#: XGBoost SS's spline smoothing, per point and unit of log-run-time
#: variance.
SPLINE_SMOOTHING = 0.05


def reference_window(reference_tokens: float | np.ndarray) -> np.ndarray:
    """Token grid spanning +/-40% of the reference count, floored at 1.

    Given an array of reference counts, returns one grid row per count.
    """
    references = check_tokens(reference_tokens)
    grid = references[..., None] * np.linspace(
        1 - WINDOW_SPREAD, 1 + WINDOW_SPREAD, WINDOW_POINTS
    )
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
    ) -> None:
        super().__init__()
        self.booster_params = booster_params or BoosterParams(
            n_estimators=150, max_depth=6, learning_rate=0.1, subsample=0.9
        )
        self._seed = seed
        self.quantile_heads = quantile_heads
        self._booster: GradientBoostingRegressor | None = None
        #: The (lo, hi) pinball heads; empty without quantile heads.
        self._quantile_boosters: tuple[GradientBoostingRegressor, ...] = ()

    @classmethod
    def from_fitted(
        cls, model: "XGBoostRuntimeModel"
    ) -> "XGBoostRuntimeModel":
        """A fitted ``cls`` that shares ``model``'s boosters.

        Every variant trains the same boosters on the same rows and
        differs only in how it turns point predictions into curves, so
        one fit serves them all: the result is bit-identical to fitting
        ``cls`` with ``model``'s booster parameters, seed and quantile
        heads.
        """
        model._check_fitted()
        twin = cls(
            booster_params=model.booster_params,
            seed=model._seed,
            quantile_heads=model.quantile_heads,
        )
        twin._booster = model._booster
        twin._quantile_boosters = model._quantile_boosters
        twin._fitted = True
        return twin

    def fit(self, dataset: PCCDataset) -> "XGBoostRuntimeModel":
        rows, targets = dataset.point_rows()
        self._booster = GradientBoostingRegressor(
            self.booster_params, seed=self._seed
        )
        self._booster.fit(rows, targets)
        self._quantile_boosters = ()
        if self.quantile_heads:
            # Independent boosters with independent seeded streams: the
            # point booster above is byte-identical with heads on or off.
            self._quantile_boosters = tuple(
                GradientBoostingRegressor(
                    QUANTILE_HEAD_PARAMS,
                    objective=PinballLoss(quantile),
                    seed=self._seed + 101 + offset,
                ).fit(rows, targets)
                for offset, quantile in enumerate(
                    (INTERVAL_QUANTILES[0], INTERVAL_QUANTILES[-1])
                )
            )
        self._fitted = True
        return self

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
        tokens = check_tokens(tokens)
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
        self._check_fitted()
        grids = self._check_grids(dataset, grids)
        features = dataset.job_feature_matrix()
        if compiled_kernels.is_enabled():
            return self._predict_curves_batched(features, grids)
        curves = []
        for feature_row, grid in zip(features, grids):
            rows = np.column_stack(
                [np.tile(feature_row, (grid.size, 1)), np.log(grid)]
            )
            curves.append(self._booster.predict(rows))
        return curves

    def _predict_curves_batched(
        self, features: np.ndarray, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Point booster predictions for row ``i`` over float ``grids[i]``."""
        if not grids:
            return []
        sizes = [grid.size for grid in grids]
        rows = np.column_stack(
            [
                np.repeat(features, sizes, axis=0),
                np.log(np.concatenate(grids)),
            ]
        )
        predictions = self._booster.predict(rows)
        return np.split(predictions, np.cumsum(sizes)[:-1])


class XGBoostSS(XGBoostRuntimeModel):
    """XGBoost + smoothing spline over point predictions."""

    name = "XGBoost SS"

    def predict_curves(
        self, dataset: PCCDataset, grids: list[np.ndarray]
    ) -> list[np.ndarray]:
        from scipy.interpolate import UnivariateSpline  # heavy; first use

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
                s=SPLINE_SMOOTHING * grid.size * np.var(log_curve),
            )
            smoothed.append(np.exp(spline(np.log(grid))))
        return smoothed


class XGBoostPL(XGBoostRuntimeModel):
    """XGBoost + power-law refit of point predictions.

    Run times at a token count stay the booster's point predictions;
    curves, PCCs and intervals come from the refit power law.
    """

    name = "XGBoost PL"

    predict_curves = PCCPredictor.predict_curves

    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray:
        """Fit ``(a, log b)`` through predictions near each reference.

        With compiled inference on, every reference window is one row of
        a single token grid: one booster call scores the whole grid and
        one :func:`~repro.pcc.fitting.fit_power_laws` pass refits every
        row. Both are row-wise, so the parameters are bit-identical to
        the per-job loop behind ``override(False)``.
        """
        self._check_fitted()
        references = dataset.observed_tokens()
        if compiled_kernels.is_enabled():
            grid = reference_window(references)
            curves = self._predict_curves_batched(
                dataset.job_feature_matrix(), list(grid)
            )
            a, b = fit_power_laws(grid, np.maximum(np.vstack(curves), 1e-9))
            # log(b) of b = exp(log b): the same round trip through
            # PowerLawPCC that the loop below takes, ulp for ulp.
            return np.column_stack([a, np.log(b)])
        grids = [reference_window(ref) for ref in references]
        point_curves = XGBoostRuntimeModel.predict_curves(self, dataset, grids)
        parameters = np.zeros((len(grids), 2))
        for i, (grid, curve) in enumerate(zip(grids, point_curves)):
            pcc = fit_power_law(grid, np.maximum(curve, 1e-9))
            parameters[i] = pcc.log_parameters()
        return parameters

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
        lo_head, hi_head = self._quantile_boosters
        mid_params = self.predict_parameters(dataset)
        log_lo, log_mid, log_hi = (
            np.log(np.maximum(self._query(dataset, references, booster), 1e-9))
            for booster in (lo_head, self._booster, hi_head)
        )
        up = np.maximum(log_hi - log_mid, 0.0)
        down = np.maximum(log_mid - log_lo, 0.0)
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
