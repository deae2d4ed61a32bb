"""What ``import repro`` loads.

Every process that uses the package pays its import: each benchmark
workload's set-up, each CLI call and each pool worker started by spawn.
scipy's ``stats``, ``optimize``, ``interpolate`` and ``special``
submodules took about half a second of it, and ``scipy.sparse`` another
0.2 s. Each is needed by a few functions (the GNN's graph packing among
them), which import it on first use, so ``import repro`` loads no scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

from scipy.special import ndtri

from repro.pcc.intervals import INTERVAL_QUANTILES, _Z_HI

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, repro; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert result.stdout.strip() == "[]"


def test_hi_quantile_z_score_is_scipy_bit_for_bit():
    # The literal stands in for the import-time ndtri call it replaced.
    assert _Z_HI == float(ndtri(INTERVAL_QUANTILES[2]))
