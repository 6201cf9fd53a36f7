#!/usr/bin/env python3
"""Audit the market closed forms against the Lagrange-multiplier oracle.

For a family of random bounded drift tilts, prints the normalizer gap
|Z - 1|, both relative entropies, the CARA and log optimal utilities, and
the absolute gap between each closed form and the independent oracle.
"""

from __future__ import annotations

import argparse

import numpy as np

import rcl
from rcl.market import ENTROPY_AGENT_GIVEN_REF, ENTROPY_REF_GIVEN_AGENT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--drifts", type=int, default=20)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    nodes, weights = rcl.discretize_terminal(1.0, args.nodes)
    drifts = [
        rcl.DriftType(label=f"t{k}", values=rng.uniform(-1.5, 1.5, args.nodes))
        for k in range(args.drifts)
    ]
    model = rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                            drift_types=drifts)
    e_a = rng.uniform(0.5, 1.5, args.nodes)

    print(f"{'drift':>6} {'|Z-1|':>9} {'H(P|Q)':>9} {'H(Q|P)':>9} "
          f"{'cara util':>10} {'cara gap':>9} {'log util':>10} {'log gap':>9}")
    densities = [rcl.tilted_density(model, k) for k in range(args.drifts)]
    u_cara = np.array([rcl.cara_optimal(d, e_a, args.alpha)[1] for d in densities])
    u_log = np.array([rcl.log_optimal(d, e_a)[1] for d in densities])
    gaps_cara = np.abs(rcl.verify_budget_optimality(densities, e_a, rcl.cara(args.alpha))
                       - u_cara)
    gaps_log = np.abs(rcl.verify_budget_optimality(densities, e_a, rcl.log_utility()) - u_log)
    worst = float(max(gaps_cara.max(initial=0.0), gaps_log.max(initial=0.0)))
    for k, density in enumerate(densities):
        h_pq = rcl.relative_entropy(density, ENTROPY_AGENT_GIVEN_REF)
        h_qp = rcl.relative_entropy(density, ENTROPY_REF_GIVEN_AGENT)
        print(f"{k:>6} {abs(density.normalizer - 1):>9.2e} {h_pq:>9.5f} "
              f"{h_qp:>9.5f} {u_cara[k]:>10.6f} {gaps_cara[k]:>9.2e} "
              f"{u_log[k]:>10.6f} {gaps_log[k]:>9.2e}")
    print(f"\nworst oracle gap: {worst:.2e}")
    return 0 if worst <= 1e-7 else 1


if __name__ == "__main__":
    raise SystemExit(main())
