"""Delegated contracting: menus, self-selection and the equivalence check.

A menu is a finite set of utility-level contracts the agent picks from. The
agent of a given type attains the best expected level in the menu; among his
optimal contracts the principal's value is evaluated optimistically (that is
the definition of her indirect utility over menus, not a heuristic). Menu
optimization is exact: some optimal menu has at most 2·n_types contracts
(see `solve_menu`), so it enumerates every candidate subset of at most that
size, scoring them in batches that round each subset as it would alone.
`equivalence_check` certifies numerically that optimizing over menus
and optimizing over direct incentive-compatible mechanisms give the same
value on the same candidates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .constraints import Mechanism, agent_levels
from .errors import PreconditionError, SizeCapError, ValidationError
from .model import _row_dots
from .solver import _CHUNK, contract_values, enumerate_best_assignment, principal_value
from .transform import UtilityUnitsInstance

# the tie window, the menu's IR floor and the row relaxation on the mechanism
# side of `equivalence_check`: one tolerance, so both sides share one IR floor
DEFAULT_TIE_TOL = 1e-9
MENU_SUBSET_CAP = 2**16 - 1   # on Σ_{k≤2n} C(G, k), the subsets walked
EQUIVALENCE_TOL = 1e-9


@dataclass
class Menu:
    """A non-empty finite set of utility-level contracts (rows)."""

    contracts: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.contracts, dtype=float))
        if arr.shape[0] == 0:
            raise ValidationError(["a menu must contain at least one contract"])
        if not np.all(np.isfinite(arr)):
            # no level or value is defined for a NaN or infinite entry
            raise ValidationError(["menu contracts must be finite"])
        # only exact duplicates go, the first of each kept in order: a
        # merge of distinct rows would change the menu's choices
        _, first = np.unique(arr, axis=0, return_index=True)
        self.contracts = arr[np.sort(first)]


def _choices(levels: np.ndarray, values: np.ndarray):
    """The menu-choice rule over levels (contracts first, types last, any
    batch of menus between) and the principal's value of each contract
    (broadcast against the levels). Per type: the best level, the tie window
    (contracts within DEFAULT_TIE_TOL of it) and the principal's most
    favourable value inside the window. Max, compare and select round
    nothing, so a menu's choices are bitwise the same in any batch."""
    best = levels.max(axis=0)
    window = levels >= best - DEFAULT_TIE_TOL
    return best, window, np.where(window, values, -np.inf).max(axis=0)


def menu_choices(
    uu: UtilityUnitsInstance, menu: Menu
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each type's pick from the menu: (best level, tie window, favoured value).

    The tie window is a (types x contracts) mask of the contracts within
    DEFAULT_TIE_TOL of the type's best level; the favoured value is the
    principal's best value inside it (ties resolve in her favour by
    definition of her indirect utility over menus).
    """
    best, window, favoured = _choices(agent_levels(uu, menu.contracts).T,
                                      contract_values(uu, menu.contracts)[:, None])
    return best, window.T, favoured


def _check_menu_cap(n_cand: int, n_types: int) -> int:
    """The largest subset size `solve_menu` walks over n_cand candidates;
    SizeCapError naming the count when the walk would exceed the cap."""
    max_size = min(n_cand, 2 * n_types)
    n_subsets = sum(math.comb(n_cand, k) for k in range(1, max_size + 1))
    if n_subsets > MENU_SUBSET_CAP:
        raise SizeCapError(
            f"{n_subsets} subsets of at most {max_size} of {n_cand} candidates "
            f"exceed the menu cap {MENU_SUBSET_CAP}"
        )
    return max_size


def solve_menu(
    candidates: np.ndarray, uu: UtilityUnitsInstance
) -> tuple[Menu, float]:
    """Exact robust optimum over all non-empty subsets of the candidates.

    Subsets are walked by size and then lexicographically, and only a
    strictly better value replaces the incumbent. So ties between optimal
    subsets resolve to the smallest cardinality, then to the
    lexicographically smallest candidate indices, and reports are
    reproducible.

    Only subsets of at most 2·n_types contracts are walked, and this loses
    nothing. In an individually rational menu S let a_j be a contract with
    type j's best level and g_j the one its favoured value comes from (in
    its tie window). In S' = {a_j} ∪ {g_j} every type keeps its best level,
    so its tie window is its window in S cut down to S' and still holds
    g_j: the favoured values, IR and the robust value are bitwise those of
    S. So the smallest, lexicographically first optimal subset has at most
    2·n_types members. n_types is not enough: with the DEFAULT_TIE_TOL
    window, a type may need a strictly best contract that clears its
    reservation and a second one just inside its window that the principal
    prefers.

    Subsets of one size are scored in blocks of at most _CHUNK level cells
    (types × subsets × size, or one subset if it alone has more), the
    incumbent carried from block to block. The menu-choice rule (max,
    compare, select) rounds nothing, so each subset's favoured values are
    bitwise those `menu_choices` gives it, and `_row_dots` sums each
    prior's row alone whatever the batch, so each robust value is bitwise
    the one `robust_value` gives the subset. The block's first maximum in
    walk order replaces the incumbent only if strictly greater, and a NaN
    never wins: the menu and its value are those of the one-subset walk.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    n_cand = candidates.shape[0]
    n_types = uu.n_types
    max_size = _check_menu_cap(n_cand, n_types)
    if not uu.contains(candidates):
        raise ValidationError(["candidate contracts leave the transformed bounds"])
    levels_t = agent_levels(uu, candidates).T      # (candidates, types)
    values = contract_values(uu, candidates)
    floor = np.asarray(uu.reservation) - DEFAULT_TIE_TOL
    priors, penalties = uu.base.beliefs.priors, uu.base.beliefs.penalties

    best_val = -np.inf
    best_members: np.ndarray | None = None
    for size in range(1, max_size + 1):
        walk = itertools.combinations(range(n_cand), size)
        remaining = math.comb(n_cand, size)
        per_block = max(1, _CHUNK // (n_types * size))
        while remaining:
            rows = min(per_block, remaining)
            remaining -= rows
            members = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(walk, rows)),
                np.intp, rows * size,
            ).reshape(rows, size)
            best, _, favoured = _choices(levels_t[members.T], values[members.T][:, :, None])
            # the worst prior's total, as enumerate_best_assignment takes it
            robust = reduce(np.minimum, (_row_dots(priors, favoured[:, None, :]) + penalties).T)
            robust[np.isnan(robust) | np.any(best < floor, axis=1)] = -np.inf
            s = int(np.argmax(robust))
            if robust[s] > best_val:
                best_val, best_members = float(robust[s]), members[s]
    if best_members is None:
        raise ValidationError(
            ["no individually rational menu among the candidate subsets"]
        )
    return Menu(candidates[best_members]), best_val


def extract_mechanism(menu: Menu, uu: UtilityUnitsInstance) -> Mechanism:
    """Turn a menu into a direct mechanism by honoring the agent's choice.

    Each type receives the contract the menu-choice rule credits it with: the
    principal-best one inside its tie window, with exact value ties broken
    by the lexicographically smallest contract. So the mechanism's value
    equals the menu's value exactly. The result is incentive compatible by
    construction and individually rational because the menu is.
    """
    values = contract_values(uu, menu.contracts)
    best, window, favoured = _choices(agent_levels(uu, menu.contracts).T, values[:, None])
    short = np.flatnonzero(best < np.asarray(uu.reservation) - DEFAULT_TIE_TOL)
    if short.size:
        t = uu.base.types[short[0]]
        raise PreconditionError(
            f"menu is not individually rational for type {t.label or short[0]}"
        )
    rows = []
    for j in range(uu.n_types):
        ties = [g for g in np.flatnonzero(window[:, j]) if values[g] == favoured[j]]
        rows.append(menu.contracts[min(ties, key=lambda g: tuple(menu.contracts[g]))])
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
        return asdict(self)


def equivalence_check(
    candidates: np.ndarray, uu: UtilityUnitsInstance
) -> EquivalenceReport:
    """Compare the optimal menu value against the optimal mechanism value.

    Both sides are exhaustive over the same candidate contracts. The
    mechanism enumeration relaxes its constraint rows by DEFAULT_TIE_TOL,
    the menu side's indifference tolerance and IR floor, so the two optima
    agree to within EQUIVALENCE_TOL on every instance inside the caps. The
    mechanism side's value is `principal_value` of its optimal assignment,
    the value `rcl oracle` and `rcl solve` report, and like the menu value
    one `_row_dots` reduction of per-type values: a menu and a mechanism
    that credit each type the same contract score bitwise the same.
    `agent_optimal_sets` lists, per type, the indices into the witness menu
    of its tie window under `menu_choices`, the rule the menu value was
    computed with, so it holds every contract that value credits the type.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    menu, menu_value = solve_menu(candidates, uu)
    assignment, _, _ = enumerate_best_assignment(candidates, uu, tol=DEFAULT_TIE_TOL)
    mech_value = principal_value(uu, Mechanism(candidates[assignment]))[0]
    gap = abs(menu_value - mech_value)
    _, window, _ = menu_choices(uu, menu)
    phi_sets = {
        label: [int(g) for g in np.flatnonzero(window[j])]
        for j, label in enumerate(uu.base.report_labels())
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

