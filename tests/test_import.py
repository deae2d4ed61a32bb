"""What ``import repro`` loads.

Every process that uses the package pays its import: each benchmark
workload's set-up, each CLI call and each pool worker started by spawn.
scipy's ``stats``, ``optimize``, ``interpolate`` and ``special``
submodules took about half a second of it and are each needed by one
rarely called function, which imports its submodule on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

from scipy.special import ndtri

from repro.pcc.intervals import INTERVAL_QUANTILES, _Z_HI

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.special")
SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_leaves_heavy_scipy_submodules_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, repro; "
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert result.stdout.strip() == "[]"


def test_hi_quantile_z_score_is_scipy_bit_for_bit():
    # The literal stands in for the import-time ndtri call it replaced.
    assert _Z_HI == float(ndtri(INTERVAL_QUANTILES[2]))
