#!/usr/bin/env python3
"""Audit the market closed forms against the Lagrange-multiplier oracle.

For a family of random bounded drift tilts, builds one market document
(raw drift values, one endowment per node, horizon 1) and prints, from
the report `rcl market` writes for it, the normalizer gap |Z - 1|, both
relative entropies, the CARA and log optimal utilities, and the absolute
gap between each closed form and the independent oracle.
"""

from __future__ import annotations

import argparse

import numpy as np

from rcl.market import market_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--drifts", type=int, default=20)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    drifts = [{"label": f"t{k}", "values": rng.uniform(-1.5, 1.5, args.nodes)}
              for k in range(args.drifts)]
    doc = {"horizon": 1.0, "n_nodes": args.nodes, "alpha": args.alpha,
           "e_a": rng.uniform(0.5, 1.5, args.nodes), "drift_types": drifts}
    report = market_report(doc)

    print(f"{'drift':>6} {'|Z-1|':>9} {'H(P|Q)':>9} {'H(Q|P)':>9} "
          f"{'cara util':>10} {'cara gap':>9} {'log util':>10} {'log gap':>9}")
    for k, row in enumerate(report["types"]):
        cara, log = row["cara"], row["log"]
        print(f"{k:>6} {row['normalizer_gap']:>9.2e} {row['entropy_agent_ref']:>9.5f} "
              f"{row['entropy_ref_agent']:>9.5f} {cara['utility']:>10.6f} "
              f"{cara['oracle_gap']:>9.2e} {log['utility']:>10.6f} {log['oracle_gap']:>9.2e}")
    gaps = [row[form]["oracle_gap"] for row in report["types"] for form in ("cara", "log")]
    worst = float(np.max(gaps, initial=0.0))  # a nan gap fails the audit
    print(f"\nworst oracle gap: {worst:.2e}")
    return 0 if worst <= 1e-7 else 1


if __name__ == "__main__":
    raise SystemExit(main())
