"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC]

PARENT and CHANGE are directories (or single files) of result files that
``run.py`` wrote, two or more runs each. For every (workload, metric) the
tool prints each side's median and quartiles and a verdict:

* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the metric's bound (``harness/catalog.py``);
* ``unresolved`` — the parent's own inter-quartile spread exceeds the
  bound, so a difference that size cannot be told from noise, unless
  every change run beats every parent run (``better``);
* ``ok`` — neither.

``--claim`` names a metric a change claims to improve. Runs are paired in
file-name order; the claim holds when the change wins at least 9 of every
10 pairs (ties count for neither) and the medians differ by more than the
parent's inter-quartile distance. The tool exits non-zero on a regression
or an unmet claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness.catalog import METRICS  # noqa: E402

CLAIM_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load_set(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run file, in file-name order."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = {}
    for file in files:
        for workload, result in json.loads(file.read_text())["workloads"].items():
            for metric, value in result["metrics"].items():
                if metric in METRICS:
                    values.setdefault((workload, metric), []).append(value)
    return values


def _better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def _worse_by(parent: float, change: float, direction: str, kind: str) -> float:
    """How far the change's median is worse, in the bound's own terms."""
    worse = change - parent if direction == "lower" else parent - change
    return worse / abs(parent) if kind == "rel" and parent else worse


def _spread(values: list[float], kind: str) -> float:
    q1, median, q3 = quartiles(values)
    if kind == "abs":
        return q3 - q1
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: list[float], change: list[float], metric: str) -> dict:
    _, direction, kind, bound = METRICS[metric]
    parent_q = quartiles(parent)
    change_q = quartiles(change)
    worse = _worse_by(parent_q[1], change_q[1], direction, kind)
    all_better = all(_better(c, p, direction) for c in change for p in parent)
    all_worse = all(_better(p, c, direction) for c in change for p in parent)
    spread = _spread(parent, kind)
    if all_better:
        status = "better"
    elif spread > bound:
        status = "REGRESSION" if worse > bound and all_worse else "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    else:
        status = "ok"
    return {
        "parent": parent_q, "change": change_q, "worse_by": worse,
        "spread": spread, "bound": bound, "kind": kind, "status": status,
    }


def claim(parent: list[float], change: list[float], metric: str) -> dict:
    """The 9-in-10 pair rule, plus a median gap wider than the parent IQR."""
    direction = METRICS[metric][1]
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, direction) for p, c in pairs)
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gap = (
        change_median - parent_median
        if direction == "higher"
        else parent_median - change_median
    )
    holds = bool(pairs) and wins >= CLAIM_SHARE * len(pairs) and gap > q3 - q1
    return {"wins": wins, "pairs": len(pairs), "gap": gap, "iqr": q3 - q1,
            "holds": holds}


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--claim", action="append", default=[], metavar="WORKLOAD:METRIC"
    )
    args = parser.parse_args(argv)
    parent, change = load_set(args.parent), load_set(args.change)
    failed = False
    print(
        f"{'workload':<16} {'metric':<24} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'worse by':>9} {'bound':>7}  verdict"
    )
    for key in sorted(parent.keys() & change.keys()):
        workload, metric = key
        if min(len(parent[key]), len(change[key])) < 2:
            print(f"{workload:<16} {metric:<24} needs two or more runs a side")
            failed = True
            continue
        v = verdict(parent[key], change[key], metric)
        bound = f"{v['bound']:.0%}" if v["kind"] == "rel" else f"{v['bound']:g}"
        worse = (
            f"{v['worse_by']:+.1%}" if v["kind"] == "rel"
            else f"{v['worse_by']:+.4g}"
        )
        print(
            f"{workload:<16} {metric:<24} {_fmt(v['parent']):<34} "
            f"{_fmt(v['change']):<34} {worse:>9} {bound:>7}  {v['status']}"
        )
        failed |= v["status"] == "REGRESSION"
    for named in args.claim:
        workload, _, metric = named.partition(":")
        key = (workload, metric)
        if min(len(parent.get(key, ())), len(change.get(key, ()))) < 2:
            print(f"claim {named}: needs two or more runs a side")
            failed = True
            continue
        c = claim(parent[key], change[key], metric)
        print(
            f"claim {named}: change won {c['wins']}/{c['pairs']} pairs, "
            f"median gap {c['gap']:.5g} vs parent IQR {c['iqr']:.5g} -> "
            f"{'holds' if c['holds'] else 'NOT MET'}"
        )
        failed |= not c["holds"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
