"""Seeded arrival processes for the multi-tenant replay harness.

Every process is a pure function of ``(spec, duration, rng)`` — the
replay engine hands each tenant its own deterministic substream, so the
full arrival timeline is reproducible bit-for-bit from the replay seed.

Four families:

* ``poisson`` — homogeneous Poisson: i.i.d. exponential gaps.
* ``diurnal`` — inhomogeneous Poisson whose rate follows a sinusoidal
  day/night cycle (``period_s``, peak-to-mean swing ``amplitude``),
  realized by Lewis-Shedler thinning against the peak rate.
* ``bursty`` — a two-state Markov-modulated Poisson process: calm
  stretches at the base rate broken by bursts at ``burst_factor`` times
  the base rate, ``burst_fraction`` of the time.
* ``trace`` — replay of explicit timestamps (e.g. parsed from a
  production trace file); no randomness at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ReplayError

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "arrival_times",
    "load_trace",
    "split_round_robin",
]

ARRIVAL_KINDS = ("poisson", "diurnal", "bursty", "trace")


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative description of one tenant's arrival process."""

    kind: str = "poisson"
    #: Mean inter-arrival gap (seconds) — the base rate is ``1 / gap``.
    mean_gap_s: float = 30.0
    #: Diurnal cycle length (seconds).
    period_s: float = 600.0
    #: Diurnal swing: rate(t) = base * (1 + amplitude * sin(...)),
    #: so 0 degenerates to plain Poisson; must stay below 1.
    amplitude: float = 0.6
    #: Burst-state rate multiplier (bursty only).
    burst_factor: float = 6.0
    #: Long-run fraction of time spent bursting.
    burst_fraction: float = 0.15
    #: Mean length of one burst (seconds).
    burst_mean_s: float = 60.0
    #: Explicit timestamps (trace replay only): finite, non-negative and
    #: non-decreasing.
    trace: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ReplayError(
                f"unknown arrival kind {self.kind!r}; "
                f"known: {', '.join(ARRIVAL_KINDS)}"
            )
        # Written so that NaN fails every check. An infinite gap or
        # burst factor would divide by a zero rate or never end a burst.
        if not 0 < self.mean_gap_s < math.inf:
            raise ReplayError(
                "mean inter-arrival gap must be positive and finite"
            )
        if not 0 <= self.amplitude < 1:
            raise ReplayError("diurnal amplitude must be in [0, 1)")
        if not self.period_s > 0:
            raise ReplayError("diurnal period must be positive")
        if not 1 <= self.burst_factor < math.inf:
            raise ReplayError("burst factor must be finite and at least 1")
        if not 0 <= self.burst_fraction < 1:
            raise ReplayError("burst fraction must be in [0, 1)")
        if not self.burst_mean_s > 0:
            raise ReplayError("burst length must be positive")
        if self.kind == "trace":
            if not self.trace:
                raise ReplayError("trace arrivals need timestamps")
            times = np.asarray(self.trace, dtype=float)
            if (
                not np.isfinite(times).all()
                or (times < 0).any()
                or (np.diff(times) < 0).any()
            ):
                raise ReplayError(
                    "trace timestamps must be finite, non-negative and "
                    "sorted"
                )


def arrival_times(
    spec: ArrivalSpec, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """All arrival timestamps in ``[0, duration_s)`` for one tenant."""
    if not 0 < duration_s < math.inf:
        raise ReplayError("replay duration must be positive and finite")
    if spec.kind == "poisson":
        times = _poisson(1.0 / spec.mean_gap_s, duration_s, rng)
    elif spec.kind == "diurnal":
        times = _diurnal(spec, duration_s, rng)
    elif spec.kind == "bursty":
        times = _bursty(spec, duration_s, rng)
    else:  # trace
        trace = np.asarray(spec.trace, dtype=float)
        times = trace[trace < duration_s]
    return times


def _poisson(
    rate: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    # Draw gaps in slabs (cheaper than one-at-a-time) until past the end.
    expected = max(16, int(rate * duration_s * 1.5))
    gaps = rng.exponential(1.0 / rate, size=expected)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration_s:
        more = np.cumsum(
            rng.exponential(1.0 / rate, size=expected)
        )
        times = np.concatenate([times, times[-1] + more])
    return times[times < duration_s]


def _diurnal(
    spec: ArrivalSpec, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    base = 1.0 / spec.mean_gap_s
    peak = base * (1.0 + spec.amplitude)
    candidates = _poisson(peak, duration_s, rng)
    # Thin each candidate by the instantaneous relative rate. The
    # uniforms are drawn in candidate order, so the realization is a
    # pure function of the rng stream.
    keep_p = (
        base
        * (
            1.0
            + spec.amplitude
            * np.sin(2.0 * np.pi * candidates / spec.period_s)
        )
        / peak
    )
    return candidates[rng.random(candidates.size) < keep_p]


def _bursty(
    spec: ArrivalSpec, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    base = 1.0 / spec.mean_gap_s
    burst_rate = base * spec.burst_factor
    # Sojourn means chosen so the long-run burst-time share is
    # burst_fraction: mean_calm = mean_burst * (1 - f) / f.
    mean_burst = spec.burst_mean_s
    mean_calm = mean_burst * (1.0 - spec.burst_fraction) / max(
        spec.burst_fraction, 1e-9
    )
    times: list[float] = []
    clock = 0.0
    bursting = False
    while clock < duration_s:
        sojourn = float(
            rng.exponential(mean_burst if bursting else mean_calm)
        )
        end = min(duration_s, clock + sojourn)
        rate = burst_rate if bursting else base
        t = clock
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            times.append(t)
        clock += sojourn
        bursting = not bursting
    return np.asarray(times, dtype=float)


def load_trace(path: str | Path) -> tuple[float, ...]:
    """Parse a trace file: one finite, non-negative timestamp per line.

    Blank lines and ``#`` comments are ignored; timestamps are sorted.
    """
    values: list[float] = []
    for lineno, raw in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ReplayError(f"{path}:{lineno}: not a timestamp: {line!r}")
        if value < 0:
            raise ReplayError(f"{path}:{lineno}: negative timestamp")
        values.append(value)
    if not values:
        raise ReplayError(f"{path}: trace file has no timestamps")
    return tuple(sorted(values))


def split_round_robin(
    times: tuple[float, ...], parts: int
) -> list[tuple[float, ...]]:
    """Deal one trace's timestamps across ``parts`` tenants, in order."""
    if parts < 1:
        raise ReplayError("need at least one tenant")
    return [tuple(times[i::parts]) for i in range(parts)]
