"""Choosing the optimal token allocation from a PCC (Section 2.1).

Given a job's PCC, the *optimal* allocation is the smallest token count
whose marginal performance gain still clears a user/administrator
threshold — e.g. "require at least 1% run-time improvement per additional
token". Related utilities find the curve's elbow (Figure 3) and the
cheapest allocation meeting a slowdown budget relative to a reference
allocation (the Figure 2 what-if analysis).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FittingError
from repro.pcc.curve import PowerLawPCC

__all__ = [
    "optimal_tokens",
    "tokens_for_slowdown",
    "find_elbow",
]


def optimal_tokens(
    pcc: PowerLawPCC,
    improvement_threshold: float = 0.01,
    min_tokens: int = 1,
    max_tokens: int | None = None,
) -> int:
    """Smallest allocation whose marginal gain still meets the threshold.

    The paper's termination condition: stop adding tokens once one more
    token no longer improves run time by at least
    ``improvement_threshold`` (fractionally). For a power law the relative
    improvement per token is ``-a / A``, so the closed form is
    ``A* = -a / threshold``, clamped to ``[min_tokens, max_tokens]``.

    Raises
    ------
    FittingError
        If the threshold is not positive or the PCC is increasing (no
        allocation beyond the minimum ever helps — the minimum is
        returned for flat curves, but an *increasing* curve signals an
        upstream modeling bug worth surfacing).
    """
    if improvement_threshold <= 0:
        raise FittingError("improvement threshold must be positive")
    if min_tokens < 1:
        raise FittingError("min_tokens must be at least 1")
    if not pcc.is_non_increasing:
        raise FittingError(
            "optimal allocation is undefined for an increasing PCC"
        )

    ideal = -pcc.a / improvement_threshold
    tokens = max(min_tokens, int(np.floor(ideal)))
    if max_tokens is not None:
        tokens = min(tokens, max_tokens)
    return tokens


def tokens_for_slowdown(
    pcc: PowerLawPCC,
    reference_tokens: float,
    max_slowdown: float,
    min_tokens: int = 1,
) -> int:
    """Cheapest allocation within a slowdown budget of the reference.

    Finds the smallest integer ``A`` such that
    ``runtime(A) <= (1 + max_slowdown) * runtime(reference_tokens)``.
    ``max_slowdown = 0`` asks for no estimated performance loss at all;
    0.05 and 0.10 are the 5%/10% loss scenarios of Figure 2.

    For the power law the bound solves in closed form:
    ``A >= reference * (1 + max_slowdown)^(1/a)`` (for ``a < 0``).
    """
    if reference_tokens <= 0:
        raise FittingError("reference token count must be positive")
    if not max_slowdown >= 0:
        raise FittingError(
            f"slowdown budget must be non-negative, got {max_slowdown}"
        )
    if not pcc.is_non_increasing:
        raise FittingError("slowdown search requires a non-increasing PCC")

    if pcc.a == 0:
        # Flat curve: any allocation achieves the reference run time.
        return max(min_tokens, 1)

    ideal = reference_tokens * (1.0 + max_slowdown) ** (1.0 / pcc.a)
    tokens = int(np.ceil(ideal - 1e-9))
    return max(min_tokens, min(tokens, int(np.ceil(reference_tokens))))


def find_elbow(
    tokens: np.ndarray, runtimes: np.ndarray
) -> tuple[float, float]:
    """Locate the elbow of an empirical PCC (the red marker in Figure 3).

    Uses the standard maximum-distance-to-chord ("kneedle"-style)
    criterion on the normalised curve: the elbow is the point farthest
    from the straight line joining the curve's endpoints.

    Returns
    -------
    tuple
        ``(tokens_at_elbow, runtime_at_elbow)``.
    """
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    if tokens.shape != runtimes.shape or tokens.size < 3:
        raise FittingError("need at least three points to find an elbow")
    order = np.argsort(tokens)
    x = tokens[order]
    y = runtimes[order]

    # Normalise both axes to [0, 1] so the distance is scale-free.
    x_span = x[-1] - x[0]
    y_span = y.max() - y.min()
    if x_span <= 0 or y_span <= 0:
        raise FittingError("degenerate curve: no spread in tokens or runtimes")
    xn = (x - x[0]) / x_span
    yn = (y - y.min()) / y_span

    # Distance from each point to the chord between the first and last.
    x0, y0 = xn[0], yn[0]
    x1, y1 = xn[-1], yn[-1]
    numerator = np.abs((y1 - y0) * xn - (x1 - x0) * yn + x1 * y0 - y1 * x0)
    denominator = float(np.hypot(y1 - y0, x1 - x0))
    distances = numerator / denominator
    index = int(np.argmax(distances))
    return float(x[index]), float(y[index])
