"""Delegated contracting: menus, self-selection and the equivalence check.

A menu is a finite set of utility-level contracts the agent picks from. The
agent of a given type attains the best expected level in the menu; among his
optimal contracts the principal's value is evaluated optimistically (that is
the definition of her indirect utility over menus, not a heuristic). Menu
optimization enumerates candidate subsets exactly, and `equivalence_check`
certifies numerically that optimizing over menus and optimizing over direct
incentive-compatible mechanisms give the same value on the same candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import Mechanism
from .errors import PreconditionError, SizeCapError, ValidationError
from .model import AgentType, StateSpace
from .solver import contract_values, enumerate_best_assignment
from .transform import UtilityUnitsInstance

DEFAULT_TIE_TOL = 1e-9
MENU_CANDIDATE_CAP = 16
EQUIVALENCE_TOL = 1e-9
IR_TOL = 1e-9
DEDUP_TOL = 1e-12


@dataclass
class Menu:
    """A non-empty finite set of utility-level contracts (rows)."""

    contracts: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.contracts, dtype=float))
        if arr.shape[0] == 0:
            raise ValidationError(["a menu must contain at least one contract"])
        keep: list[int] = []
        for i in range(arr.shape[0]):
            if all(np.max(np.abs(arr[i] - arr[k])) > DEDUP_TOL for k in keep):
                keep.append(i)
        self.contracts = arr[keep]

    @property
    def size(self) -> int:
        return self.contracts.shape[0]


def agent_best_value(states: StateSpace, agent_type: AgentType, menu: Menu) -> float:
    """The best expected utility level the type can pick out of the menu."""
    weights = states.ref_prob * agent_type.density
    return float(np.max(menu.contracts @ weights))


def agent_optimal_contracts(
    states: StateSpace, agent_type: AgentType, menu: Menu
) -> np.ndarray:
    """Indices of the menu contracts within DEFAULT_TIE_TOL of the type's optimum."""
    weights = states.ref_prob * agent_type.density
    scores = menu.contracts @ weights
    return np.flatnonzero(scores >= scores.max() - DEFAULT_TIE_TOL)


def principal_menu_value(
    uu: UtilityUnitsInstance, agent_type: AgentType, menu: Menu
) -> float:
    """Principal's value of a menu for one type: best of her values over the
    contracts the agent would pick (ties resolve in her favor by definition)."""
    chosen = agent_optimal_contracts(uu.states, agent_type, menu)
    values = contract_values(uu, menu.contracts[chosen])
    return float(values.max())


def _subset_values(
    uu: UtilityUnitsInstance, members: list[int],
    e_mat: np.ndarray, values: np.ndarray,
) -> np.ndarray | None:
    """Per-type principal values of one candidate subset, or None if not IR."""
    cols = e_mat[:, members]
    best = cols.max(axis=1)
    if np.any(best < np.asarray(uu.reservation) - IR_TOL):
        return None
    out = np.empty(uu.n_types)
    for j in range(uu.n_types):
        picks = [members[g] for g in np.flatnonzero(cols[j] >= best[j] - DEFAULT_TIE_TOL)]
        out[j] = values[picks].max()
    return out


def solve_menu(
    candidates: np.ndarray, uu: UtilityUnitsInstance
) -> tuple[Menu, float]:
    """Exact robust optimum over all non-empty subsets of the candidates.

    Ties between optimal subsets resolve to the smallest cardinality and then
    lexicographically by candidate indices, so reports are reproducible.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    n_cand = candidates.shape[0]
    if n_cand > MENU_CANDIDATE_CAP:
        raise SizeCapError(
            f"{n_cand} candidates exceed the menu cap {MENU_CANDIDATE_CAP}"
        )
    span = max(float((uu.c_hi - uu.c_lo).max()), 1.0)
    if np.any(candidates < uu.c_lo - 1e-9 * span) or np.any(
        candidates > uu.c_hi + 1e-9 * span
    ):
        raise ValidationError(["candidate contracts leave the transformed bounds"])
    weights = uu.base.type_weights()
    e_mat = weights @ candidates.T
    values = contract_values(uu, candidates)

    best_val = -np.inf
    best_members: tuple[int, ...] | None = None
    for mask in range(1, 1 << n_cand):
        members = [g for g in range(n_cand) if mask >> g & 1]
        per_type = _subset_values(uu, members, e_mat, values)
        if per_type is None:
            continue
        robust, _ = uu.base.beliefs.robust_value(per_type)
        key = (len(members), tuple(members))
        if robust > best_val or (
            robust == best_val
            and best_members is not None
            and key < (len(best_members), best_members)
        ):
            best_val = robust
            best_members = tuple(members)
    if best_members is None:
        raise ValidationError(
            ["no individually rational menu among the candidate subsets"]
        )
    return Menu(candidates[list(best_members)]), best_val


def extract_mechanism(menu: Menu, uu: UtilityUnitsInstance) -> Mechanism:
    """Turn a menu into a direct mechanism by honoring the agent's choice.

    Each type receives the principal-best contract among the ones he would
    pick himself, with exact value ties broken by the lexicographically
    smallest contract. The result is incentive compatible by construction and
    individually rational because the menu is.
    """
    for j, t in enumerate(uu.base.types):
        if agent_best_value(uu.states, t, menu) < uu.reservation[j] - IR_TOL:
            raise PreconditionError(
                f"menu is not individually rational for type {t.label or j}"
            )
    values = contract_values(uu, menu.contracts)
    rows = []
    for t in uu.base.types:
        picks = agent_optimal_contracts(uu.states, t, menu)
        order = sorted(picks, key=lambda g: tuple(menu.contracts[g]))
        chosen = order[0]
        for g in order[1:]:
            if values[g] > values[chosen]:
                chosen = g
        rows.append(menu.contracts[chosen])
    return Mechanism(np.stack(rows))


@dataclass
class EquivalenceReport:
    """Numerical certificate that menus and mechanisms achieve the same value."""

    menu_value: float
    mechanism_value: float
    gap: float
    equal: bool
    tolerance: float
    witness_menu: list[list[float]]
    witness_assignment: list[int]
    witness_contracts: list[list[float]]
    agent_optimal_sets: dict[str, list[int]]

    def to_json(self) -> dict:
        return {
            "menu_value": self.menu_value,
            "mechanism_value": self.mechanism_value,
            "gap": self.gap,
            "equal": self.equal,
            "tolerance": self.tolerance,
            "witness_menu": self.witness_menu,
            "witness_assignment": self.witness_assignment,
            "witness_contracts": self.witness_contracts,
            "agent_optimal_sets": self.agent_optimal_sets,
        }


def equivalence_check(
    candidates: np.ndarray, uu: UtilityUnitsInstance
) -> EquivalenceReport:
    """Compare the optimal menu value against the optimal mechanism value.

    Both sides are exhaustive over the same candidate contracts. The
    mechanism enumeration relaxes its constraint rows by DEFAULT_TIE_TOL,
    the menu side's indifference tolerance, so the two optima agree to
    within EQUIVALENCE_TOL on every instance inside the caps.
    `agent_optimal_sets` lists, per type, the indices into the witness menu
    of the contracts that type would pick.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    menu, menu_value = solve_menu(candidates, uu)
    assignment, mech_value, _ = enumerate_best_assignment(
        candidates, uu, tol=DEFAULT_TIE_TOL
    )
    gap = abs(menu_value - mech_value)
    phi_sets = {
        (t.label or f"type{j}"): [
            int(g)
            for g in agent_optimal_contracts(uu.states, t, menu)
        ]
        for j, t in enumerate(uu.base.types)
    }
    return EquivalenceReport(
        menu_value=menu_value,
        mechanism_value=mech_value,
        gap=gap,
        equal=bool(gap <= EQUIVALENCE_TOL),
        tolerance=EQUIVALENCE_TOL,
        witness_menu=menu.contracts.tolist(),
        witness_assignment=[int(g) for g in assignment],
        witness_contracts=candidates[assignment].tolist(),
        agent_optimal_sets=phi_sets,
    )


def mechanism_menu_value(uu: UtilityUnitsInstance, mech: Mechanism) -> float:
    """Value of the menu formed by a mechanism's range (its offered contracts)."""
    menu = Menu(mech.assignment)
    per_type = np.array([
        principal_menu_value(uu, t, menu) for t in uu.base.types
    ])
    value, _ = uu.base.beliefs.robust_value(per_type)
    return value
