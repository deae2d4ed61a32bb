"""compare.py's regression, unresolved and claim logic on canned numbers."""

import json

import compare
from harness.catalog import METRICS


def test_a_median_worse_than_the_bound_is_a_regression():
    # p50_ms: lower is better, relative bound.
    bound = METRICS["p50_ms"][3]
    parent = [3.00, 3.02, 3.05, 3.03, 3.01]
    near = [p * (1 + bound / 2) for p in parent]
    far = [p * (1 + 2 * bound) for p in parent]
    assert compare.verdict(parent, near, "p50_ms")["status"] == "ok"
    v = compare.verdict(parent, far, "p50_ms")
    assert v["status"] == "REGRESSION"
    assert v["worse_by"] > bound


def test_a_wide_parent_spread_is_unresolved_unless_every_run_wins():
    # capacity_rps: higher is better; the parent's IQR exceeds the bound.
    parent = [400.0, 800.0, 500.0, 900.0]
    assert compare.verdict(parent, [600.0, 650.0], "capacity_rps")[
        "status"
    ] == "unresolved"
    assert compare.verdict(parent, [950.0, 1000.0], "capacity_rps")[
        "status"
    ] == "better"
    # Worse beyond the bound and worse in every run stays a regression.
    assert compare.verdict(parent, [100.0, 120.0], "capacity_rps")[
        "status"
    ] == "REGRESSION"


def test_absolute_bounds_and_identical_deterministic_values():
    # model_share moves by absolute shares; failed_share tolerates nothing.
    bound = METRICS["model_share"][3]
    assert compare.verdict(
        [0.90, 0.90], [0.90 - bound / 2] * 2, "model_share"
    )["status"] == "ok"
    assert compare.verdict(
        [0.90, 0.90], [0.90 - 2 * bound] * 2, "model_share"
    )["status"] == "REGRESSION"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "failed_share")[
        "status"
    ] == "ok"
    assert compare.verdict([0.0, 0.0], [0.001, 0.0], "failed_share")[
        "status"
    ] == "REGRESSION"
    assert compare.verdict([1e5, 1e5], [1e5, 1e5], "p95_wait_s")[
        "status"
    ] == "ok"


def test_a_claim_needs_nine_in_ten_pairs_and_a_gap_wider_than_the_iqr():
    parent = [100.0 + i for i in range(10)]
    won_all = [120.0 + i for i in range(10)]
    assert compare.claim(parent, won_all, "jobs_per_s")["holds"]
    lost_two = won_all[:8] + [90.0, 91.0]
    c = compare.claim(parent, lost_two, "jobs_per_s")
    assert c["wins"] == 8 and not c["holds"]
    small_gap = [p + 1.0 for p in parent]
    assert not compare.claim(parent, small_gap, "jobs_per_s")["holds"]


def write_runs(directory, workload, metric, values):
    directory.mkdir()
    for i, value in enumerate(values):
        payload = {"workloads": {workload: {"metrics": {metric: value}}}}
        (directory / f"run{i}.json").write_text(json.dumps(payload))


def test_the_command_exits_non_zero_on_a_regression(tmp_path, capsys):
    write_runs(tmp_path / "parent", "replay", "jobs_per_s", [200, 201, 202])
    write_runs(tmp_path / "same", "replay", "jobs_per_s", [199, 201, 203])
    write_runs(tmp_path / "slow", "replay", "jobs_per_s", [150, 151, 152])
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "slow")]) == 1
    assert "REGRESSION" in capsys.readouterr().out
