"""The experiment scripts run end to end and hold their bounds on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, printed", [
    # the eighth instance draws 17 candidates: 2^17 - 1 subsets in all, of
    # which the menu walk visits only those of at most 2 n_types; menus and
    # mechanisms are scored by one reduction, so every gap is exactly 0
    ("run_equivalence_sweep.py", ["--instances", "8"], "gaps exactly 0: 8 of 8"),
    ("run_market_closed_forms.py", ["--drifts", "3"], ""),
    # the benchmark's market shape: 16 drift types on 200 nodes
    ("run_market_closed_forms.py", ["--drifts", "16", "--nodes", "200"], ""),
    ("run_solver_vs_oracle.py", ["--instances", "2", "--levels", "3", "--max-iters", "300"],
     ""),
    ("run_refinement.py", ["--max-nodes", "48", "--max-types", "16"], ""),
], ids=["equivalence_sweep", "market_closed_forms", "market_closed_forms_16x200",
        "solver_vs_oracle", "refinement"])
def test_script_exits_zero(script, args, printed):
    # each script exits non-zero when its bound is broken
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert printed in done.stdout
