"""Fitting power-law PCCs to (tokens, run time) observations.

Because a power law is linear in log-log space (Figure 9), fitting reduces
to ordinary least squares on ``log(runtime) ~ log(tokens)``. Weighted
variants let the caller up-weight the actually observed point relative to
AREPAS-simulated ones.
"""

from __future__ import annotations

import numpy as np

from repro.arepas.augmentation import AugmentedObservation
from repro.exceptions import FittingError
from repro.obs import get_registry, trace
from repro.pcc.curve import PowerLawPCC

__all__ = [
    "fit_power_law",
    "fit_power_laws",
    "fit_observations",
    "fit_from_skyline",
    "fit_quality",
]


def fit_power_law(
    tokens: np.ndarray,
    runtimes: np.ndarray,
    weights: np.ndarray | None = None,
) -> PowerLawPCC:
    """Least-squares power-law fit in log-log space.

    The one-row call of :func:`fit_power_laws`.

    Parameters
    ----------
    tokens, runtimes:
        Positive observation vectors of equal length (>= 2 distinct token
        values are required to identify the slope).
    weights:
        Optional per-observation weights.

    Raises
    ------
    FittingError
        On degenerate inputs (non-positive values, fewer than two distinct
        token counts).
    """
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    if tokens.shape != runtimes.shape or tokens.ndim != 1:
        raise FittingError("tokens and runtimes must be equal-length vectors")
    a, b = fit_power_laws(
        tokens[None],
        runtimes[None],
        None if weights is None else np.asarray(weights, dtype=float)[None],
    )
    return PowerLawPCC(a=float(a[0]), b=float(b[0]))


def fit_power_laws(
    tokens: np.ndarray,
    runtimes: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One power law per row, fitted in one least-squares pass.

    Row ``i`` of the ``(curves, observations)`` matrices holds one
    curve's observations. Returns the ``(a, b)`` arrays of the fitted
    curves: ``PowerLawPCC(a[i], b[i])`` is what
    :func:`fit_power_law` returns for row ``i`` alone, bit for bit,
    because every operation is elementwise and every sum runs along one
    contiguous row, which numpy adds up exactly as the row on its own.

    Raises :class:`FittingError` as a loop of :func:`fit_power_law`
    calls would: with the first failing row's message, after counting
    the fits that row's predecessors (and a row failing only the
    :class:`PowerLawPCC` checks) completed.
    """
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    if tokens.shape != runtimes.shape or tokens.ndim != 2:
        raise FittingError("tokens and runtimes must be equal-shape matrices")
    if tokens.shape[1] < 2:
        raise FittingError("need at least two observations to fit a PCC")

    nonpositive = np.any(tokens <= 0, axis=1) | np.any(runtimes <= 0, axis=1)
    # Fewer than two distinct tokens; NaNs are one value, as in np.unique.
    first = tokens[:, :1]
    single = np.all(
        (tokens == first) | (np.isnan(tokens) & np.isnan(first)), axis=1
    )
    if weights is None:
        w = np.ones_like(tokens)
        bad_weights = np.zeros(tokens.shape[0], dtype=bool)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != tokens.shape:
            bad_weights = np.ones(tokens.shape[0], dtype=bool)
        else:
            bad_weights = np.any(w < 0, axis=1) | (w.sum(axis=1) == 0)
    invalid = nonpositive | single | bad_weights
    if invalid.any():
        row = _fit_rows_before(invalid, tokens, runtimes, weights)
        if nonpositive[row]:
            raise FittingError("tokens and runtimes must be positive")
        if single[row]:
            raise FittingError("need at least two distinct token counts")
        raise FittingError("weights must be non-negative and not all zero")

    x = np.log(tokens)
    y = np.log(runtimes)
    w_sum = w.sum(axis=1)
    x_mean = (w * x).sum(axis=1) / w_sum
    y_mean = (w * y).sum(axis=1) / w_sum
    dx = x - x_mean[:, None]
    var_x = (w * dx**2).sum(axis=1)
    flat = var_x <= 0
    if flat.any():
        _fit_rows_before(flat, tokens, runtimes, weights)
        raise FittingError("token counts are not distinguishable in log space")
    cov_xy = (w * dx * (y - y_mean[:, None])).sum(axis=1)
    a = cov_xy / var_x
    b = np.exp(y_mean - a * x_mean)

    # The PowerLawPCC checks; the fit itself counted, as in the scalar.
    unusable = ~(np.isfinite(a) & np.isfinite(b) & (b > 0))
    fitted = int(np.argmax(unusable)) + 1 if unusable.any() else a.size
    if trace.enabled:
        get_registry().counter("pcc_power_law_fits").increment(fitted)
    if unusable.any():
        row = fitted - 1
        PowerLawPCC(a=float(a[row]), b=float(b[row]))  # raises its error
    return a, b


def _fit_rows_before(
    failed: np.ndarray,
    tokens: np.ndarray,
    runtimes: np.ndarray,
    weights: np.ndarray | None,
) -> int:
    """Fit the rows before the first failed one; return that row.

    A loop of single fits reaches the first failed row only after
    fitting (and counting, or failing on) every row before it.
    """
    row = int(np.argmax(failed))
    if row:
        fit_power_laws(
            tokens[:row],
            runtimes[:row],
            None if weights is None else np.asarray(weights)[:row],
        )
    return row


def fit_observations(
    observations: list[AugmentedObservation],
    observed_weight: float = 1.0,
) -> PowerLawPCC:
    """Fit a PCC to augmented observations.

    ``observed_weight`` (>= 1) multiplies the weight of samples whose
    source is ``"observed"``, keeping the true telemetry point first-class
    relative to simulated ones (Section 4's pitfall discussion).
    """
    if observed_weight < 1:
        raise FittingError("observed_weight must be at least 1")
    tokens = np.array([o.tokens for o in observations])
    runtimes = np.array([o.runtime for o in observations])
    weights = np.array(
        [observed_weight if o.source == "observed" else 1.0 for o in observations]
    )
    return fit_power_law(tokens, runtimes, weights)


def fit_from_skyline(
    skyline,
    reference_tokens: float,
    grid: np.ndarray | None = None,
) -> PowerLawPCC:
    """End-to-end: AREPAS-sweep a skyline and fit the PCC (Section 3 + 4).

    This is the labelling step of the TASQ training pipeline: one observed
    run of the job is enough to synthesise the whole curve.
    """
    from repro.arepas.augmentation import default_token_grid, sweep_token_grid

    if grid is None:
        grid = default_token_grid(reference_tokens)
    with trace.span("pcc.fit_from_skyline") as span:
        observations = sweep_token_grid(
            skyline, grid, observed_tokens=reference_tokens
        )
        span.set("points", len(observations))
        return fit_observations(observations)


def fit_quality(
    pcc: PowerLawPCC, tokens: np.ndarray, runtimes: np.ndarray
) -> dict[str, float]:
    """Goodness-of-fit diagnostics in log-log space.

    Returns R^2 and the median/max absolute percentage error of the fitted
    run times against the provided observations.
    """
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    predicted = np.asarray(pcc.runtime(tokens), dtype=float)
    ape = np.abs(predicted - runtimes) / runtimes * 100.0

    y = np.log(runtimes)
    residual = y - np.log(predicted)
    total = y - y.mean()
    ss_res = float((residual**2).sum())
    ss_tot = float((total**2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "r_squared": r_squared,
        "median_ape": float(np.median(ape)),
        "max_ape": float(ape.max()),
    }
