#!/usr/bin/env python3
"""Check the certified solver against the exhaustive grid oracle.

The oracle is exact on its grid and the solver's dual bound, inner
slack included, holds over the full box, so the oracle value never exceeds
the bound, and the solver's value sits within its certified gap of the
bound. The excess column is oracle minus bound (at most 1e-12); the gap
column is bound minus solver value (between -1e-12 and the solver
tolerance: a bound below a feasible mechanism's value is no bound). The
script exits nonzero if any of these is violated or a solve does not
converge.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import scipy.optimize  # noqa: F401  (imported before any timing: `solve_mechanism`
# imports it on its first call, and the first row would time the import)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import rcl
from conftest import make_instance

ORACLE_SLACK = 1e-12


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--levels", type=int, default=4)
    parser.add_argument("--max-iters", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    opts = rcl.SolveOptions(max_iters=args.max_iters)
    print(f"{'#':>3} {'solver':>12} {'bound':>12} {'gap':>9} {'oracle':>12} "
          f"{'excess':>10} {'secs':>6}")
    worst_gap = worst_excess = -np.inf
    failures = 0
    for i in range(args.instances):
        inst = make_instance(rng, m=2, n=2)
        uu = rcl.to_utility_units(inst)
        t0 = time.perf_counter()
        res = rcl.solve_mechanism(uu, opts)
        oracle = rcl.grid_oracle(uu, args.levels)
        excess = oracle.value - res.bound
        worst_gap, worst_excess = max(worst_gap, res.gap), max(worst_excess, excess)
        bad = (not res.converged or not -ORACLE_SLACK <= res.gap <= opts.tol
               or excess > ORACLE_SLACK)
        failures += bad
        flag = "" if res.converged else "  NOT CONVERGED"
        print(f"{i:>3} {res.value:>12.8f} {res.bound:>12.8f} {res.gap:>9.1e} "
              f"{oracle.value:>12.8f} {excess:>10.1e} {time.perf_counter() - t0:>6.2f}{flag}")
    print(f"\nworst gap {worst_gap:.2e} (bound {opts.tol:g}), worst oracle - bound "
          f"{worst_excess:.2e} (bound {ORACLE_SLACK:g}), {failures} failing")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
