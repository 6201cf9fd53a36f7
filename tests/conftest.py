"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np
import pytest

import rcl

V_FAMILIES = {
    "cara_half": lambda: rcl.cara(1.0, "half-line"),
    "cara_whole": lambda: rcl.cara(1.0, "whole-line"),
    "linear": rcl.linear,
}


def make_instance(
    rng: np.random.Generator,
    m: int = 2,
    n: int = 2,
    n_priors: int = 2,
    family: str = "log",
    random_penalties: bool = False,
    reservation=None,
    bound_shrink: float = 0.8,
    v_family: str = "cara_half",
) -> rcl.Instance:
    """A random well-posed instance with strictly interior wealth everywhere.

    Bounds are shrunk below the no-short-sale limits so no wealth floor is
    needed and both utilities stay comfortably inside their domains. The
    principal's utility is CARA on the half line (`cara_half`, the default),
    CARA on the whole line (`cara_whole`) or `linear`; none draws from rng.
    """
    q = rng.dirichlet(np.full(m, 5.0))
    states = rcl.StateSpace(ref_prob=q)

    def random_type(label):
        raw = rng.uniform(0.3, 1.7, m)
        return rcl.AgentType(density=raw / (q @ raw), label=label)

    types = [random_type(f"theta{j}") for j in range(n)]
    priors = rng.dirichlet(np.full(n, 2.0), size=n_priors)
    penalties = rng.uniform(0.0, 0.5, n_priors) if random_penalties else np.zeros(n_priors)
    e_a = rng.uniform(0.8, 1.6, m)
    e_p = rng.uniform(1.0, 2.2, m)
    if family == "log":
        u = rcl.log_utility()
    elif family == "crra":
        u = rcl.crra(float(rng.uniform(0.3, 0.7)))
    elif family == "cara":
        u = rcl.cara(float(rng.uniform(0.5, 2.0)))
    else:
        u = rcl.UtilitySpec(family)
    inst = rcl.Instance(
        states=states,
        types=types,
        principal_belief=random_type("principal"),
        beliefs=rcl.BeliefSet(priors=priors, penalties=penalties),
        e_a=e_a,
        e_p=e_p,
        u=u,
        v=V_FAMILIES[v_family](),
        contract_lo=-bound_shrink * e_a,
        contract_hi=bound_shrink * e_p,
        reservation=reservation,
    )
    return rcl.validate_instance(inst)


def make_uu(rng, **kwargs) -> rcl.UtilityUnitsInstance:
    return rcl.to_utility_units(make_instance(rng, **kwargs))


def random_contracts(rng, uu, count: int) -> np.ndarray:
    """Candidate contracts drawn uniformly inside the utility-unit box."""
    return rng.uniform(uu.c_lo, uu.c_hi, size=(count, uu.n_atoms))


def random_mechanisms(rng, uu, count: int):
    return [
        rcl.Mechanism(rng.uniform(uu.c_lo, uu.c_hi, size=(uu.n_types, uu.n_atoms)))
        for _ in range(count)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
