"""Prediction intervals over power-law PCCs, and the ``risk`` knob.

"Runtime Variation in Big Data Analytics" (PAPERS.md) shows big-data run
times are distributions; a single predicted PCC silently over-promises.
A :class:`PCCInterval` carries three power-law curves — the q10 / q50 /
q90 predictions of the run-time distribution at every token count — so
downstream consumers can ask for *risk-adjusted* answers: "how many
tokens so that, with probability 0.9, the run time meets the deadline?"

Two invariants make the triple safe to consume (see
``docs/uncertainty.md`` for the full specification):

* **ordering** — for every allocation ``A >= 1`` the curves satisfy
  ``lo.runtime(A) <= mid.runtime(A) <= hi.runtime(A)``. For power laws
  on ``A >= 1`` this is equivalent to elementwise ordering of the log
  parameters (``a_lo <= a_mid <= a_hi`` and
  ``log b_lo <= log b_mid <= log b_hi``), which the constructor
  enforces. :meth:`PCCInterval.from_quantiles` repairs independently
  fitted quantile curves into this form (the *crossing fix*), anchoring
  each clamped curve at the job's reference allocation so its fitted
  run time there is preserved.
* **closure under risk interpolation** — linear blends of ``(a, log b)``
  are again power laws, so :func:`pcc_at_risk` can interpolate between
  the median and a tail curve with a z-score weight and hand back an
  ordinary :class:`~repro.pcc.curve.PowerLawPCC` every existing decision
  path (optimal tokens, deadline search, fleet floors) already accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FittingError
from repro.pcc.curve import PowerLawPCC

__all__ = [
    "INTERVAL_QUANTILES",
    "PCCInterval",
    "pcc_at_risk",
    "tokens_within_slowdown_at_risk",
]

#: The three quantiles an interval represents, lo / mid / hi.
INTERVAL_QUANTILES = (0.1, 0.5, 0.9)

#: z-score of the hi quantile, ``float(scipy.special.ndtri(0.9))`` to
#: the last bit: risk weights are normalised so that ``risk=0.9`` lands
#: exactly on the hi curve. A literal, so importing this module does
#: not import ``scipy.special``.
_Z_HI = 1.2815515655446004


@dataclass(frozen=True)
class PCCInterval:
    """q10 / q50 / q90 run-time curves for one job.

    ``mid`` is the ordinary point-estimate PCC (everything that ignores
    uncertainty keeps consuming it unchanged); ``lo`` and ``hi`` bound
    the predicted run-time distribution at nominal 80% coverage.
    """

    lo: PowerLawPCC
    mid: PowerLawPCC
    hi: PowerLawPCC

    def __post_init__(self) -> None:
        tol = 1e-9
        a = [self.lo.a, self.mid.a, self.hi.a]
        log_b = [np.log(self.lo.b), np.log(self.mid.b), np.log(self.hi.b)]
        if not (a[0] <= a[1] + tol and a[1] <= a[2] + tol):
            raise FittingError(
                "interval curves must have ordered exponents "
                f"(a_lo={a[0]:+.4f}, a_mid={a[1]:+.4f}, a_hi={a[2]:+.4f}); "
                "use PCCInterval.from_quantiles to repair crossings"
            )
        if not (log_b[0] <= log_b[1] + tol and log_b[1] <= log_b[2] + tol):
            raise FittingError(
                "interval curves must have ordered scales "
                "(log b_lo <= log b_mid <= log b_hi); "
                "use PCCInterval.from_quantiles to repair crossings"
            )

    @classmethod
    def degenerate(cls, mid: PowerLawPCC) -> "PCCInterval":
        """An interval collapsed onto the point estimate (zero width)."""
        return cls(lo=mid, mid=mid, hi=mid)

    @property
    def is_degenerate(self) -> bool:
        """True when the interval carries no uncertainty information."""
        return self.lo == self.mid == self.hi

    @classmethod
    def from_quantiles(
        cls,
        lo: PowerLawPCC,
        mid: PowerLawPCC,
        hi: PowerLawPCC,
        reference_tokens: float = 1.0,
    ) -> "PCCInterval":
        """Build an interval from independently fitted quantile curves.

        Independently fitted q10/q90 curves can cross the median (and
        each other) — the same failure mode that makes ~27% of XGBoost
        PL point curves increase. The crossing fix projects them onto
        the ordered parameter cone around ``mid``:

        * ``hi``'s exponent is clamped into ``[a_mid, 0]`` (never
          steeper than the median; never increasing when the median is
          valid) and ``lo``'s to at most ``a_mid``;
        * a clamped curve is re-anchored so its run time at
          ``reference_tokens`` (where the quantile fit actually looked)
          is unchanged;
        * scales are then clamped so ``log b_lo <= log b_mid <=
          log b_hi``, which can only *widen* the interval.
        """
        if reference_tokens <= 0:
            raise FittingError("reference token count must be positive")
        log_ref = float(np.log(max(reference_tokens, 1.0)))
        a_mid, lb_mid = mid.log_parameters()

        def reanchor(a_old: float, lb_old: float, a_new: float) -> float:
            # Preserve runtime at the reference: lb + a*log_ref constant.
            return lb_old + (a_old - a_new) * log_ref

        a_hi, lb_hi = hi.log_parameters()
        a_hi_new = max(a_hi, a_mid)
        if a_mid <= 0.0:
            a_hi_new = min(a_hi_new, 0.0)
        if a_hi_new != a_hi:
            lb_hi = reanchor(a_hi, lb_hi, a_hi_new)
            a_hi = a_hi_new
        lb_hi = max(lb_hi, lb_mid)

        a_lo, lb_lo = lo.log_parameters()
        a_lo_new = min(a_lo, a_mid)
        if a_lo_new != a_lo:
            lb_lo = reanchor(a_lo, lb_lo, a_lo_new)
            a_lo = a_lo_new
        lb_lo = min(lb_lo, lb_mid)

        return cls(
            lo=PowerLawPCC.from_log_parameters(a_lo, lb_lo),
            mid=mid,
            hi=PowerLawPCC.from_log_parameters(a_hi, lb_hi),
        )

    def runtime_interval(
        self, tokens: float
    ) -> tuple[float, float, float]:
        """``(lo, mid, hi)`` predicted run times at one allocation."""
        return (
            float(self.lo.runtime(tokens)),
            float(self.mid.runtime(tokens)),
            float(self.hi.runtime(tokens)),
        )


def _risk_weight(risk: float) -> float:
    """Signed interpolation weight: 0 at the median, +1 at q90, -1 at q10."""
    if not 0.0 < risk < 1.0:
        raise FittingError("risk must be inside (0, 1)")
    from scipy.special import ndtri  # heavy; imported on first use

    return float(ndtri(risk)) / _Z_HI


def pcc_at_risk(interval: PCCInterval, risk: float) -> PowerLawPCC:
    """The power-law curve at one risk level of the predicted interval.

    ``risk=0.5`` returns the median curve exactly; ``risk=0.9`` the hi
    curve; ``risk=0.1`` the lo curve. Intermediate (and extrapolated)
    levels interpolate linearly in ``(a, log b)`` with the normalised
    z-score weight ``w = ndtri(risk) / ndtri(0.9)`` — the exact level
    set under a Gaussian model of ``log(runtime)``, and a monotone,
    closed-form family regardless. When the median curve is
    non-increasing the blended exponent is clamped to ``a <= 0`` so
    extrapolation beyond q90 cannot manufacture an increasing PCC.
    """
    w = _risk_weight(risk)
    a_mid, lb_mid = interval.mid.log_parameters()
    if w >= 0:
        a_t, lb_t = interval.hi.log_parameters()
    else:
        a_t, lb_t = interval.lo.log_parameters()
        w = -w
    a = a_mid + w * (a_t - a_mid)
    log_b = lb_mid + w * (lb_t - lb_mid)
    if a_mid <= 0.0:
        a = min(a, 0.0)
    return PowerLawPCC.from_log_parameters(a, log_b)


def tokens_within_slowdown_at_risk(
    interval: PCCInterval,
    risk: float,
    reference_tokens: float,
    max_slowdown: float,
) -> int | None:
    """Smallest allocation whose *risk-quantile* run time stays within
    ``(1 + max_slowdown)`` of the **expected** run time at the reference.

    The point-estimate floor (:func:`repro.pcc.optimal
    .tokens_for_slowdown`) promises ``E[runtime(A)] <= (1 + s) *
    E[runtime(ref)]``; this risk-adjusted floor strengthens it to the
    risk quantile: ``Q_risk[runtime(A)] <= (1 + s) * E[runtime(ref)]``,
    i.e. the slowdown SLO holds with probability ``risk``, not merely in
    expectation. Closed form for power laws: with the risk curve
    ``(a_r, log b_r)`` and bound ``B = log(1+s) + log mid.runtime(ref)``,
    the constraint is ``log A >= (log b_r - B) / (-a_r)``.

    Returns None when no finite allocation satisfies the bound (a flat
    risk curve above the bound, or an astronomically distant boundary).
    """
    if reference_tokens <= 0:
        raise FittingError("reference token count must be positive")
    if max_slowdown < 0:
        raise FittingError("max slowdown must be non-negative")
    risk_pcc = pcc_at_risk(interval, risk)
    bound = float(
        np.log1p(max_slowdown)
        + interval.mid.log_runtime(np.log(reference_tokens))
    )
    a_r, lb_r = risk_pcc.log_parameters()
    if lb_r <= bound:  # already within budget at a single token
        return 1
    if a_r >= 0:  # flat (or invalid) risk curve above the bound: hopeless
        return None
    log_boundary = (lb_r - bound) / (-a_r)
    if log_boundary > 700.0:  # exp() overflows: no finite allocation fits
        return None
    return max(1, int(np.ceil(np.exp(log_boundary) - 1e-9)))
