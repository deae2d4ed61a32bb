"""Alternative PCC function families (Section 2.3).

The paper notes that the *specific* mathematical form of the PCC is a
platform-specific choice — a power law for SCOPE tokens, other forms for
other platforms — while the methodology (fit a small parametric curve,
learn its parameters) is general. This module provides two alternatives
to :class:`~repro.pcc.curve.PowerLawPCC` so the choice can be evaluated:

* :class:`AmdahlPCC` — ``runtime = S + P / A`` (Amdahl's law): a serial
  floor plus perfectly divisible work. Two parameters, captures the
  high-token plateau the pure power law cannot.
* :class:`ShiftedPowerLawPCC` — ``runtime = b * A^a + c``: the paper's
  power law plus a non-negative floor. Three parameters; strictly
  generalises both of the above.

All families share the tiny :class:`PCCFamily` protocol (fit /
runtime / is_non_increasing), so fit-quality comparisons are uniform —
see ``benchmarks/test_ablation_pcc_families.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import FittingError
from repro.pcc.curve import PowerLawPCC
from repro.pcc.fitting import fit_power_law

__all__ = ["PCCFamily", "AmdahlPCC", "ShiftedPowerLawPCC", "fit_family"]


@runtime_checkable
class PCCFamily(Protocol):
    """What any PCC representation must provide."""

    def runtime(self, tokens):  # pragma: no cover - protocol signature
        ...

    @property
    def is_non_increasing(self) -> bool:  # pragma: no cover
        ...


def _validate_observations(
    tokens: np.ndarray, runtimes: np.ndarray, min_points: int
) -> tuple[np.ndarray, np.ndarray]:
    tokens = np.asarray(tokens, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    if tokens.shape != runtimes.shape or tokens.ndim != 1:
        raise FittingError("tokens and runtimes must be equal-length vectors")
    if tokens.size < min_points:
        raise FittingError(f"need at least {min_points} observations")
    if np.any(tokens <= 0) or np.any(runtimes <= 0):
        raise FittingError("tokens and runtimes must be positive")
    if np.unique(tokens).size < min_points:
        raise FittingError(f"need {min_points} distinct token counts")
    return tokens, runtimes


@dataclass(frozen=True)
class AmdahlPCC:
    """``runtime = S + P / A`` with non-negative serial/parallel parts."""

    serial: float
    parallel: float

    def __post_init__(self) -> None:
        if self.serial < 0 or self.parallel < 0:
            raise FittingError("Amdahl parts must be non-negative")
        if self.serial == 0 and self.parallel == 0:
            raise FittingError("Amdahl curve needs some work")

    def runtime(self, tokens):
        tokens_arr = np.asarray(tokens, dtype=float)
        if np.any(tokens_arr <= 0):
            raise FittingError("token counts must be positive")
        result = self.serial + self.parallel / tokens_arr
        if np.isscalar(tokens) or tokens_arr.ndim == 0:
            return float(result)
        return result

    @property
    def is_non_increasing(self) -> bool:
        return True  # by construction: parallel >= 0

    @classmethod
    def fit(cls, tokens: np.ndarray, runtimes: np.ndarray) -> "AmdahlPCC":
        """Non-negative least squares on the basis ``[1, 1/A]``."""
        tokens, runtimes = _validate_observations(tokens, runtimes, 2)
        design = np.column_stack([np.ones_like(tokens), 1.0 / tokens])
        from scipy import optimize  # heavy; imported on first use

        coefficients, _ = optimize.nnls(design, runtimes)
        serial, parallel = float(coefficients[0]), float(coefficients[1])
        if serial == 0 and parallel == 0:
            raise FittingError("degenerate Amdahl fit")
        return cls(serial=serial, parallel=parallel)


@dataclass(frozen=True)
class ShiftedPowerLawPCC:
    """``runtime = b * A^a + c`` with ``b > 0``, ``a <= 0``, ``c >= 0``."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.b <= 0:
            raise FittingError("scale b must be positive")
        if self.a > 0:
            raise FittingError("exponent a must be non-positive")
        if self.c < 0:
            raise FittingError("floor c must be non-negative")

    def runtime(self, tokens):
        tokens_arr = np.asarray(tokens, dtype=float)
        if np.any(tokens_arr <= 0):
            raise FittingError("token counts must be positive")
        result = self.b * np.power(tokens_arr, self.a) + self.c
        if np.isscalar(tokens) or tokens_arr.ndim == 0:
            return float(result)
        return result

    @property
    def is_non_increasing(self) -> bool:
        return True  # a <= 0 and c constant

    @classmethod
    def fit(
        cls, tokens: np.ndarray, runtimes: np.ndarray
    ) -> "ShiftedPowerLawPCC":
        """Bounded nonlinear least squares, seeded by the plain power law."""
        tokens, runtimes = _validate_observations(tokens, runtimes, 3)
        seed = fit_power_law(tokens, runtimes)
        x0 = np.array([min(seed.a, -1e-6), seed.b, 0.0])

        def residuals(params):
            a, b, c = params
            return b * np.power(tokens, a) + c - runtimes

        from scipy import optimize  # heavy; imported on first use

        result = optimize.least_squares(
            residuals,
            x0,
            bounds=([-5.0, 1e-9, 0.0], [0.0, np.inf, np.inf]),
            max_nfev=200,
        )
        a, b, c = result.x
        return cls(a=float(min(a, 0.0)), b=float(max(b, 1e-9)),
                   c=float(max(c, 0.0)))


def fit_family(
    family: str, tokens: np.ndarray, runtimes: np.ndarray
) -> PCCFamily:
    """Fit a PCC of the named family (``power_law``/``amdahl``/``shifted``)."""
    if family == "power_law":
        return fit_power_law(tokens, runtimes)
    if family == "amdahl":
        return AmdahlPCC.fit(tokens, runtimes)
    if family == "shifted":
        return ShiftedPowerLawPCC.fit(tokens, runtimes)
    raise FittingError(f"unknown PCC family: {family!r}")
