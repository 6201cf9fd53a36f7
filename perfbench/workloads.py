"""Seeded inputs and command lists of the benchmark workloads.

Run as a script, this file is the benchmark's set-up step: a fresh
interpreter imports `rcl.cli` (the fixed cost every `rcl` invocation pays)
and writes one workload's input files. The same workload and seed always
give byte-identical files.

    PYTHONPATH=src python3 perfbench/workloads.py --workload certify --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rcl
import rcl.cli  # noqa: F401  (imported for its cost: set-up includes it)

WORKLOADS = ("solve_reinsurance", "solve_market", "certify")

# Fixed iteration caps. They keep every command well under a second or two,
# so that a run repeats each command many times: on a shared host the time
# of one long command drifts with the host's load, repeats of short ones
# give a steady estimate.
HALFLINE_ITERS = 2500
WHOLELINE_ITERS = 2500
HALFLINE_8X6X4_ITERS = 500
CARA_HEDGING_ITERS = 2000
MARKET_40X8_ITERS = 450
MARKET_40X8_INSTANCES = 4

# A certify round is dominated by menu and equivalence (about 2 s each);
# oracles of a few million assignments keep it short enough for four or
# five rounds a run, so each command's median has that many samples.
ORACLE_LEVELS_2X2 = 40   # 40**4 = 2.56 M assignments
ORACLE_LEVELS_2X3 = 12   # 12**6 = 2.99 M assignments
MENU_LEVELS = 4          # 16 candidates, 65,535 subsets
MARKET_BETAS = "0.25,0.5,0.75,1.0"
MARKET_INSTANCES = 6


@dataclass(frozen=True)
class Command:
    """One `rcl` invocation of a workload; `--out` is added when it runs."""

    label: str
    kind: str
    args: tuple[str, ...]


def random_instance(rng: np.random.Generator, m: int, n: int) -> rcl.Instance:
    """A random well-posed log-agent instance with interior wealth everywhere.

    Bounds are shrunk below the no-short-sale limits, so no wealth floor is
    needed; with the full limits the floored grid of a 2-atom instance at a
    few levels per atom makes the menu and oracle optimum the uninformative
    value 0. The draw jitters a fixed instance (tilted types, a uniform and
    a type-0-heavy prior) by about 2%, so the attained values and the work
    the enumerations skip vary little from seed to seed.
    """

    def jitter(base):
        return base * rng.uniform(0.98, 1.02, np.shape(base))

    q = rng.dirichlet(np.full(m, 200.0))
    pattern = np.cos(np.pi * np.arange(m) / max(m - 1, 1))

    def random_type(label, tilt):
        raw = jitter(1.0 + tilt * pattern)
        return rcl.AgentType(density=raw / (q @ raw), label=label)

    types = [random_type(f"theta{j}", 0.4 * (2.0 * j / max(n - 1, 1) - 1.0))
             for j in range(n)]
    priors = jitter(np.stack([np.full(n, 1.0 / n),
                              np.r_[0.6, np.full(n - 1, 0.4 / max(n - 1, 1))]]))
    e_a = jitter(1.0 + 0.25 * np.arange(m))
    e_p = jitter(2.0 - 0.4 * np.arange(m))
    inst = rcl.Instance(
        states=rcl.StateSpace(ref_prob=q),
        types=types,
        principal_belief=random_type("principal", 0.0),
        beliefs=rcl.BeliefSet(priors=priors / priors.sum(axis=1, keepdims=True),
                              penalties=np.zeros(2)),
        e_a=e_a,
        e_p=e_p,
        u=rcl.log_utility(),
        v=rcl.cara(1.0, "half-line"),
        contract_lo=-0.8 * e_a,
        contract_hi=0.8 * e_p,
    )
    return rcl.validate_instance(inst)


def halfline_8x6x4(rng: np.random.Generator) -> rcl.Instance:
    """The scaled halfline preset: 8 atoms, 6 types, 4 priors, seeded tilt.

    The tilt and penalty vary little around 0.4 and 0.01: a solve's cost
    per iteration depends on which IC rows bind, and over tilts 0.35 to
    0.45 and penalties 0 to 0.02 it varied 2.4x from seed to seed, which
    swamped every other change in wall_s.
    """
    return rcl.build_preset("reinsurance_halfline", {
        "n_atoms": 8, "n_types": 6, "n_priors": 4,
        "tilt": float(rng.uniform(0.395, 0.405)),
        "penalty": float(rng.uniform(0.009, 0.011)),
    })


def market_40x8(rng: np.random.Generator) -> rcl.Instance:
    """The scaled market preset: 40 nodes, 8 drift types with seeded slopes,
    each within 0.005 of an even spread.

    Even so, the active-set projection's cost per iteration varies by up to
    40% between draws at 600 iterations (it grows as more rows bind), so
    the workload solves MARKET_40X8_INSTANCES of them, whose total varies
    less from seed to seed than one long solve.
    """
    slopes = np.linspace(-0.45, 0.45, 8) + rng.uniform(-0.005, 0.005, 8)
    return rcl.build_preset("cara_hedging", {
        "n_nodes": 40, "slopes": tuple(float(s) for s in slopes),
    })


def market_document(rng: np.random.Generator, n_nodes: int = 200,
                    n_types: int = 16) -> dict:
    """A `rcl market --instance` document in the README market schema."""
    slopes = np.linspace(-0.5, 0.5, n_types) + rng.uniform(-0.02, 0.02, n_types)
    return {
        "horizon": float(rng.uniform(0.9, 1.1)),
        "n_nodes": n_nodes,
        "e_a": float(rng.uniform(0.9, 1.1)),
        "e_p": float(rng.uniform(1.8, 2.2)),
        "alpha": float(rng.uniform(0.8, 1.2)),
        "drift_types": [
            {"label": f"f{i}", "slope": float(s), "support": 2.0}
            for i, s in enumerate(slopes)
        ],
    }


def _write_market(doc: dict, path: Path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def generate(workload: str, seed: int, out: Path):
    """Write the workload's input files for `seed` into `out`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    if workload == "solve_reinsurance":
        rcl.save_instance(halfline_8x6x4(rng), out / "halfline_8x6x4.json")
    elif workload == "solve_market":
        for k in range(MARKET_40X8_INSTANCES):
            rcl.save_instance(market_40x8(rng), out / f"market_40x8_{k}.json")
    else:
        for name, (m, n) in (("inst_2x2", (2, 2)), ("inst_2x3", (2, 3))):
            rcl.save_instance(random_instance(rng, m, n), out / f"{name}.json")
        for k in range(MARKET_INSTANCES):
            _write_market(market_document(rng), out / f"market_200x16_{k}.json")


def commands(workload: str, inputs: Path) -> list[Command]:
    """The workload's command sequence, run back to back in every round."""
    def instance(name):
        return ("--instance", str(inputs / f"{name}.json"))

    if workload == "solve_reinsurance":
        return [
            Command("halfline", "solve", ("solve", "--preset", "reinsurance_halfline",
                                          "--max-iters", str(HALFLINE_ITERS))),
            Command("wholeline", "solve", ("solve", "--preset", "reinsurance_wholeline",
                                           "--max-iters", str(WHOLELINE_ITERS))),
            Command("halfline_8x6x4", "solve",
                    ("solve", *instance("halfline_8x6x4"),
                     "--max-iters", str(HALFLINE_8X6X4_ITERS))),
        ]
    if workload == "solve_market":
        # log_delegation builds the same solver instance as cara_hedging
        return [
            Command("cara_hedging", "solve",
                    ("solve", "--preset", "cara_hedging",
                     "--max-iters", str(CARA_HEDGING_ITERS))),
            *(
                Command(f"market_40x8_{k}", "solve",
                        ("solve", *instance(f"market_40x8_{k}"),
                         "--max-iters", str(MARKET_40X8_ITERS)))
                for k in range(MARKET_40X8_INSTANCES)
            ),
        ]
    if workload == "certify":
        levels = str(MENU_LEVELS)
        return [
            Command("oracle_2x2", "oracle",
                    ("oracle", *instance("inst_2x2"), "--levels", str(ORACLE_LEVELS_2X2))),
            Command("oracle_2x3", "oracle",
                    ("oracle", *instance("inst_2x3"), "--levels", str(ORACLE_LEVELS_2X3))),
            Command("menu_2x2", "menu", ("menu", *instance("inst_2x2"), "--levels", levels)),
            Command("equivalence_2x2", "equivalence",
                    ("equivalence", *instance("inst_2x2"), "--levels", levels)),
            *(
                Command(f"market_200x16_{k}", "market",
                        ("market", *instance(f"market_200x16_{k}"), "--beta", MARKET_BETAS))
                for k in range(MARKET_INSTANCES)
            ),
            Command("ae_check", "ae-check", ("ae-check", "--preset", "reinsurance_wholeline")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
