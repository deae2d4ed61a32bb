"""Replay benchmark: closed-loop multi-tenant replay across policies.

One seeded three-tenant arrival stream is replayed through the live
serving stack — every arrival is scored by the :class:`AllocationServer`,
admitted by the :class:`FleetScheduler` under a shared cap, executed on
the simulated cluster, and its outcome fed back to the drift monitor —
once per allocation regime. The study compares tail wait (p95) across
user defaults, clairvoyant peak, per-job TASQ, and global
water-filling.

The tenants all draw from the ``tpch`` family the bootstrap model was
trained on, so the comparison isolates *allocation policy* rather than
out-of-distribution prediction error (drift and retraining have their
own tests). Like the fleet benchmark, the study shape is fixed —
independent of ``REPRO_BENCH_SCALE`` — so its acceptance assertions are
stable across CI scales. Results land in
``benchmarks/results/BENCH_replay.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.replay import REPLAY_POLICIES, ReplayConfig, TenantSpec, run_replay

_RESULTS_DIR = Path(__file__).parent / "results"

#: Fixed study shape — deliberately NOT scaled by REPRO_BENCH_SCALE.
_SEED = 3
_DURATION_S = 300.0
_BOOTSTRAP_JOBS = 40
_TENANTS = tuple(
    TenantSpec(name=f"tenant-{i}", family="tpch") for i in range(3)
)


def _replay(policy: str):
    return run_replay(
        ReplayConfig(
            duration_s=_DURATION_S,
            bootstrap_jobs=_BOOTSTRAP_JOBS,
            seed=_SEED,
            policy=policy,
        ),
        _TENANTS,
    )


def test_replay_fleet_policies_beat_baselines(benchmark, report):
    reports = benchmark.pedantic(
        lambda: {policy: _replay(policy) for policy in REPLAY_POLICIES},
        rounds=1,
        iterations=1,
    )

    _RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "study": {
            "seed": _SEED,
            "duration_s": _DURATION_S,
            "bootstrap_jobs": _BOOTSTRAP_JOBS,
            "tenants": [
                {"name": t.name, "family": t.family} for t in _TENANTS
            ],
        },
        "policies": {
            policy: r.to_json() for policy, r in reports.items()
        },
    }
    out = _RESULTS_DIR / "BENCH_replay.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [
        f"{'policy':<16}{'p95 wait':>10}{'p50 wait':>10}"
        f"{'p95 slow':>10}{'completed':>11}{'rejected':>10}"
    ]
    for policy, r in reports.items():
        lines.append(
            f"{policy:<16}{r.p95_wait:>10.1f}{r.p50_wait:>10.1f}"
            f"{r.p95_slowdown:>10.2f}{r.completed:>11d}{r.rejected:>10d}"
        )
    report.add(
        "Replay policy comparison",
        f"3 tpch tenants, {_DURATION_S:.0f}s window, seed {_SEED}\n"
        + "\n".join(lines),
    )

    for r in reports.values():
        assert r.arrived == r.completed + r.rejected
        assert r.peak_committed_tokens <= r.capacity

    default = reports["default"]
    peak = reports["peak"]
    # Acceptance: global water-filling beats BOTH the Default and
    # clairvoyant Peak baselines on tail (p95) wait.
    assert reports["water_filling"].p95_wait < min(
        default.p95_wait, peak.p95_wait
    ), "global allocation did not beat Default and Peak on p95 wait"
