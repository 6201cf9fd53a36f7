#!/usr/bin/env python3
"""Solve `cara_hedging` on ever finer grids of states and of types.

States: the preset discretises the Brownian terminal law with m nodes; its
certified optimum V_m should settle as m grows. Each row prints m, V_m, the
certified gap and the step |V_m - V_m'| from the previous grid m'. The steps
need not fall monotonically: the clamped-linear drift has a kink at its
support, which slows Gauss-Hermite convergence.

Types: at TYPE_NODES nodes, n drift slopes evenly spaced in +-TYPE_SPAN
(under the preset's ambiguity: the uniform prior over the n types and a
point prior on the first) for each n in TYPES, a doubling each time. Each
row prints n, V_n, the gap, the step |V_n - V_n/2| and its ratio to the
step before. A ratio near 1/2 is a first-order trend in 1/n.

Both show a stable optimum of the discretised problems, not a proof about
the continuous one. The script exits nonzero if a solve does not converge,
a gap exceeds the solver tolerance, a node step exceeds STEP_BOUND or a
type step ratio exceeds RATIO_BOUND.
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import scipy.optimize  # noqa: F401  (imported before any timing: `solve_mechanism`
# imports it on its first call, and the first row would time the import)

import rcl

NODES = (6, 12, 24, 48, 96, 200)
STEP_BOUND = 1e-4   # fixed before any run; the largest step seen is 3.9e-5 (6 -> 12)
TYPES = (8, 16, 32, 64)
TYPE_NODES = 40
TYPE_SPAN = 0.35
RATIO_BOUND = 0.75  # fixed before any run; the ratios seen were about 0.47


def solve(params: dict, opts: rcl.SolveOptions):
    uu = rcl.to_utility_units(rcl.build_preset("cara_hedging", params))
    t0 = time.perf_counter()
    res = rcl.solve_mechanism(uu, opts)
    return res, time.perf_counter() - t0, not res.converged or res.gap > opts.tol


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nodes", type=int, default=NODES[-1],
                        help="solve only the node grids of at most this many nodes")
    parser.add_argument("--max-types", type=int, default=TYPES[-1],
                        help="solve only the type grids of at most this many types")
    args = parser.parse_args()

    opts = rcl.SolveOptions()
    failures = 0
    print(f"{'m':>4} {'V_m':>12} {'gap':>9} {'step':>9} {'secs':>6}")
    previous = None
    for m in (m for m in NODES if m <= args.max_nodes):
        res, secs, bad = solve({"n_nodes": m}, opts)
        step = abs(res.value - previous) if previous is not None else None
        previous = res.value
        bad |= (step or 0.0) > STEP_BOUND
        failures += bad
        shown = "" if step is None else f"{step:.1e}"
        print(f"{m:>4} {res.value:>12.8f} {res.gap:>9.1e} {shown:>9} {secs:>6.2f}"
              f"{'  FAILS' if bad else ''}")

    print(f"\n{'n':>4} {'V_n':>12} {'gap':>9} {'step':>9} {'ratio':>6} {'secs':>6}")
    previous = last_step = None
    for n in (n for n in TYPES if n <= args.max_types):
        slopes = tuple(np.linspace(-TYPE_SPAN, TYPE_SPAN, n).tolist())
        res, secs, bad = solve({"n_nodes": TYPE_NODES, "slopes": slopes}, opts)
        step = abs(res.value - previous) if previous is not None else None
        ratio = step / last_step if step is not None and last_step else None
        previous, last_step = res.value, step
        bad |= (ratio or 0.0) > RATIO_BOUND
        failures += bad
        shown = ("" if step is None else f"{step:.1e}", "" if ratio is None else f"{ratio:.2f}")
        print(f"{n:>4} {res.value:>12.9f} {res.gap:>9.1e} {shown[0]:>9} {shown[1]:>6} "
              f"{secs:>6.2f}{'  FAILS' if bad else ''}")

    print(f"\ngap bound {opts.tol:g}, step bound {STEP_BOUND:g}, "
          f"ratio bound {RATIO_BOUND:g}, {failures} failing")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
