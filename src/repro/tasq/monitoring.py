"""Prediction monitoring and retraining signals.

The production TASQ deployment (Figure 4) feeds completed jobs back into
the job repository; a serving system additionally needs to know *when the
deployed model has drifted* — workloads change (new business units, input
growth) and a model trained months ago degrades silently.

:class:`PredictionMonitor` accumulates (predicted, actual) run-time pairs
as jobs finish, tracks a rolling median absolute percentage error, and
raises a retraining signal once the rolling error exceeds a threshold for
long enough. It is deliberately model-agnostic: anything that predicted a
run time can be monitored.

**Point-estimate assumption, made explicit.** The APE rule watches only
the *median* of the error distribution: a model whose point predictions
stay centred while its error spread explodes (or whose claimed
uncertainty is mis-calibrated) never trips it. Monitors therefore also
accept the predicted ``(lo, hi)`` interval with each observation and
track rolling *coverage* — the fraction of actual run times landing
inside their predicted q10–q90 interval. Well-calibrated intervals cover
a ``coverage_target`` (default 0.8) fraction; sustained coverage below
``coverage_target - coverage_tolerance`` (default 0.8 - 0.15 = 0.65) is
a second, independent breach condition feeding the same debounced
retraining signal. Interval observations are optional per call, so
point-only models keep the exact legacy behaviour (see
``docs/uncertainty.md``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.exceptions import PipelineError

__all__ = ["MonitorSnapshot", "PredictionMonitor"]


@dataclass(frozen=True)
class MonitorSnapshot:
    """State of the monitor at one point in time."""

    observations: int
    rolling_median_ape: float | None
    consecutive_breaches: int
    needs_retraining: bool
    #: Rolling q10-q90 coverage (None with no interval observations).
    rolling_coverage: float | None = None
    #: Which rule the current breach streak is riding ("ape",
    #: "coverage", or None when not breaching).
    breach_reason: str | None = None


class PredictionMonitor:
    """Rolling-error monitor with a debounced retraining signal.

    Parameters
    ----------
    window:
        Number of most recent jobs in the rolling error window.
    error_threshold:
        Rolling median APE (percent) above which the window *breaches*.
    patience:
        Number of consecutive breaching observations required before the
        retraining signal fires — a debounce against noisy bursts.
    min_observations:
        No signal is raised before this many jobs have been observed.
        Applies per rule: the coverage rule needs this many *interval*
        observations before it can breach.
    coverage_target:
        Nominal interval coverage (0.8 for q10-q90 intervals).
    coverage_tolerance:
        Slack below the target before the coverage rule breaches: the
        rolling coverage must fall below ``coverage_target -
        coverage_tolerance`` (default 0.65).
    """

    def __init__(
        self,
        window: int = 200,
        error_threshold: float = 50.0,
        patience: int = 20,
        min_observations: int = 50,
        coverage_target: float = 0.8,
        coverage_tolerance: float = 0.15,
    ) -> None:
        if window < 2:
            raise PipelineError("window must hold at least two jobs")
        if error_threshold <= 0:
            raise PipelineError("error threshold must be positive")
        if patience < 1:
            raise PipelineError("patience must be at least 1")
        if min_observations < 2:
            raise PipelineError("min_observations must be at least 2")
        if not 0.0 < coverage_target < 1.0:
            raise PipelineError("coverage target must be inside (0, 1)")
        if not 0.0 < coverage_tolerance < coverage_target:
            raise PipelineError(
                "coverage tolerance must be in (0, coverage_target)"
            )
        self.window = window
        self.error_threshold = error_threshold
        self.patience = patience
        self.min_observations = min_observations
        self.coverage_target = coverage_target
        self.coverage_tolerance = coverage_tolerance
        self._errors: deque[float] = deque(maxlen=window)
        self._covered: deque[bool] = deque(maxlen=window)
        self._total = 0
        self._interval_total = 0
        self._consecutive_breaches = 0
        self._breach_reason: str | None = None

    # ------------------------------------------------------------------
    def observe(
        self,
        predicted_runtime: float,
        actual_runtime: float,
        interval: tuple[float, float] | None = None,
    ) -> None:
        """Record one completed job's prediction outcome.

        ``interval`` optionally carries the predicted ``(lo, hi)`` run
        times (the q10/q90) at the granted allocation; when given, the
        coverage drift rule sees whether the actual run time landed
        inside it.
        """
        # One NaN in the window would make the rolling median NaN, and
        # the APE rule would stop breaching until it left the window.
        if not (
            0 < predicted_runtime < math.inf and 0 < actual_runtime < math.inf
        ):
            raise PipelineError("run times must be positive and finite")
        ape = abs(predicted_runtime - actual_runtime) / actual_runtime * 100.0
        self._errors.append(ape)
        self._total += 1
        if interval is not None:
            lo, hi = float(interval[0]), float(interval[1])
            if not 0.0 < lo <= hi:
                raise PipelineError(
                    "interval must satisfy 0 < lo <= hi"
                )
            self._covered.append(lo <= actual_runtime <= hi)
            self._interval_total += 1

        ape_breach = (
            self._total >= self.min_observations
            and self.rolling_median_ape is not None
            and self.rolling_median_ape > self.error_threshold
        )
        coverage = self.rolling_coverage
        coverage_breach = (
            self._interval_total >= self.min_observations
            and coverage is not None
            and coverage < self.coverage_target - self.coverage_tolerance
        )
        if ape_breach or coverage_breach:
            self._consecutive_breaches += 1
            self._breach_reason = "ape" if ape_breach else "coverage"
        else:
            self._consecutive_breaches = 0
            self._breach_reason = None

    # ------------------------------------------------------------------
    @property
    def rolling_median_ape(self) -> float | None:
        """Median APE over the window (None before any observation)."""
        if not self._errors:
            return None
        return float(np.median(self._errors))

    @property
    def rolling_coverage(self) -> float | None:
        """Fraction of actuals inside their predicted q10-q90 interval
        over the window (None with no interval observations)."""
        if not self._covered:
            return None
        return float(np.mean(self._covered))

    @property
    def needs_retraining(self) -> bool:
        """True once the error has breached for ``patience`` jobs."""
        return self._consecutive_breaches >= self.patience

    def snapshot(self) -> MonitorSnapshot:
        return MonitorSnapshot(
            observations=self._total,
            rolling_median_ape=self.rolling_median_ape,
            consecutive_breaches=self._consecutive_breaches,
            needs_retraining=self.needs_retraining,
            rolling_coverage=self.rolling_coverage,
            breach_reason=self._breach_reason,
        )

    def reset(self) -> None:
        """Clear state (call after retraining + redeployment)."""
        self._errors.clear()
        self._covered.clear()
        self._total = 0
        self._interval_total = 0
        self._consecutive_breaches = 0
        self._breach_reason = None
