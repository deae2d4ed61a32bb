"""The run context every result file records."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(repo: Path, *args: str) -> str | None:
    # The ceiling keeps git from answering for an enclosing repository
    # when the benchmark runs from a plain copy of the tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(repo.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=repo, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def run_context(repo: Path) -> dict:
    import numpy
    import scipy

    commit = _git(repo, "rev-parse", "HEAD")
    status = _git(repo, "status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }
