"""Performance characteristic curves: representation, fitting, decisions.

Reproduces the PCC core of the paper: §2 / Figure 3 (run time as a
monotonically non-increasing function of allocated tokens, its elbow,
and the optimal allocation chosen by a marginal-improvement threshold),
§4.1 / Figure 9 (the power-law form ``runtime = b * tokens**a`` with
``a <= 0``, fitted by least squares in log-log space), and §2.3's
observation that the curve family is platform-specific
(`repro.pcc.families` adds Amdahl and shifted-power-law alternatives).
"""

from repro.pcc.curve import PowerLawPCC
from repro.pcc.families import (
    AmdahlPCC,
    PCCFamily,
    ShiftedPowerLawPCC,
    fit_family,
)
from repro.pcc.intervals import (
    INTERVAL_QUANTILES,
    PCCInterval,
    pcc_at_risk,
    tokens_within_slowdown_at_risk,
)
from repro.pcc.fitting import (
    fit_from_skyline,
    fit_observations,
    fit_power_law,
    fit_power_laws,
    fit_quality,
)
from repro.pcc.optimal import find_elbow, optimal_tokens, tokens_for_slowdown

__all__ = [
    "PowerLawPCC",
    "PCCInterval",
    "INTERVAL_QUANTILES",
    "pcc_at_risk",
    "tokens_within_slowdown_at_risk",
    "PCCFamily",
    "AmdahlPCC",
    "ShiftedPowerLawPCC",
    "fit_family",
    "fit_power_law",
    "fit_power_laws",
    "fit_observations",
    "fit_from_skyline",
    "fit_quality",
    "optimal_tokens",
    "tokens_for_slowdown",
    "find_elbow",
]
