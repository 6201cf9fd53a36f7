#!/usr/bin/env python3
"""Sweep the menu-vs-mechanism equivalence certificate over random instances.

Prints one row per instance with both optimal values and their gap, then
the worst gap and how many gaps are exactly 0. Each instance draws 4 to 18
candidate contracts. Both values are one reduction of per-type values, so a
gap is exactly 0 wherever the two optima credit each type the same contract;
the exit code holds every gap to 1e-9.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import rcl
from conftest import make_instance, random_contracts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=25)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'#':>3} {'atoms':>5} {'types':>5} {'cands':>5} "
          f"{'menu value':>14} {'mech value':>14} {'gap':>10}")
    worst, zeros = 0.0, 0
    for i in range(args.instances):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        inst = make_instance(rng, m=m, n=n,
                             n_priors=int(rng.integers(1, 4)),
                             random_penalties=True)
        uu = rcl.to_utility_units(inst)
        candidates = random_contracts(rng, uu, int(rng.integers(4, 19)))
        candidates[0] = uu.c_hi
        report = rcl.equivalence_check(candidates, uu)
        worst = max(worst, report.gap)
        zeros += report.gap == 0.0
        print(f"{i:>3} {m:>5} {n:>5} {len(candidates):>5} "
              f"{report.menu_value:>14.10f} {report.mechanism_value:>14.10f} "
              f"{report.gap:>10.2e}")
    print(f"\nworst gap over {args.instances} instances: {worst:.2e}")
    print(f"gaps exactly 0: {zeros} of {args.instances}")
    return 0 if worst <= 1e-9 else 1


if __name__ == "__main__":
    raise SystemExit(main())
