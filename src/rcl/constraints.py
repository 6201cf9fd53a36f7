"""Linear participation and truth-telling constraints in utility units.

After the change of variables the agent's utility is bilinear, so both
constraint blocks are linear in the contract assignment: one participation
row per type and one truth-telling row per ordered type pair. Both orderings
are kept so feasibility reports stay legible. Every slack is read off one
agent-level matrix (`agent_levels`), the same one menus choose from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, RangeError
from .model import _row_dots
from .transform import UtilityUnitsInstance

DEFAULT_TOL = 1e-8


def agent_levels(uu: UtilityUnitsInstance, contracts) -> np.ndarray:
    """Level E[j, g] = sum_i q_i d_{j,i} c_{g,i} that type j gets from contract g.

    One `_row_dots` over a (types, contracts, atoms) batch, so a column is
    bitwise the same whichever other contracts sit beside it: every
    constraint slack, menu choice, oracle row and report reads its levels
    from here.
    """
    contracts = np.atleast_2d(np.asarray(contracts, dtype=float))
    return _row_dots(contracts, uu.base.type_weights()[:, None, :])


def ic_rows(pairs) -> np.ndarray:
    """The IC rows' entries of an (..., n, n) own x other array, in row
    order: IC(j,k) reads pairs[..., j, k], and the diagonal, which names no
    IC row, is left out. A boolean mask of type pairs gives the mask of
    their IC rows, and the own-index grid the type each row belongs to."""
    pairs = np.asarray(pairs)
    return pairs[..., ~np.eye(pairs.shape[-1], dtype=bool)]


@dataclass
class Mechanism:
    """A direct mechanism: one utility-level contract per type (n x m)."""

    assignment: np.ndarray

    def __post_init__(self):
        self.assignment = np.atleast_2d(np.asarray(self.assignment, dtype=float))

    def to_json(self) -> dict:
        return {"assignment": self.assignment.tolist()}


@dataclass
class LinearConstraintSystem:
    """The IC/IR rows of one utility-units instance.

    Row order: IC(j,k) for each j and each k != j, then IR(j) for each j.
    IC(j,k) reads sum_i q_i d_{j,i} (c_{j,i} - c_{k,i}) >= 0 and IR(j) reads
    sum_i q_i d_{j,i} c_{j,i} >= reservation_j.
    """

    uu: UtilityUnitsInstance

    def ic_pairs(self) -> list[tuple[int, int]]:
        return list(zip(*self._row_types[:, :-self.uu.n_types].tolist()))

    @cached_property
    def _row_types(self) -> np.ndarray:
        """Row r compares type own[r] with type other[r]: (own, other) is
        (j, k) for IC(j,k) and (j, j) for IR(j), in row order, the IC rows
        the off-diagonal type pairs and the IR rows the diagonal. Built once
        per system."""
        pairs = np.indices((self.uu.n_types,) * 2)
        return np.concatenate([ic_rows(pairs), pairs.diagonal(axis1=1, axis2=2)], axis=1)

    def rows(self, mask) -> tuple[np.ndarray, np.ndarray]:
        """The rows `mask` picks (a boolean mask over the row order), dense
        and flattened over the (type, atom) grid: A c_flat >= b."""
        weights = self.uu.base.type_weights()
        own, other = self._row_types[:, mask]
        a = np.zeros((own.size, *weights.shape))
        a[np.arange(own.size), other] = -weights[own]
        a[np.arange(own.size), own] = weights[own]  # over the -w_j of an IR row
        b = np.where(own == other, self.uu.reservation[own], 0.0)
        return a.reshape(own.size, weights.size), b

    def residual(self, c) -> np.ndarray:
        """A c - b over every row, in row order, from the level matrix L of
        c (n x m, or flattened): IC(j,k) is L[j,j] - L[j,k] and IR(j) is
        L[j,j] - r_j. For a pooling c the IC entries are exactly zero."""
        levels = agent_levels(self.uu, np.reshape(c, (self.uu.n_types, -1)))
        own, other = self._row_types
        compared = np.where(own == other, self.uu.reservation[own], levels[own, other])
        return levels[own, own] - compared

    def slacks(self, mech: Mechanism) -> tuple[np.ndarray, np.ndarray]:
        """The IC and the IR entries of `residual` at the mechanism."""
        n = self.uu.n_types
        return np.split(self.residual(mech.assignment), [n * (n - 1)])


def build_system(uu: UtilityUnitsInstance) -> LinearConstraintSystem:
    """The n*(n-1) truth-telling rows and n participation rows of `uu`."""
    return LinearConstraintSystem(uu)


@dataclass
class FeasibilityReport:
    """Per-row slacks, in row order, plus the worst violations of each
    constraint block."""

    feasible: bool
    max_ic_violation: float
    max_ir_violation: float
    tol: float
    row_slacks: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        # a plain dict: `asdict` would deep-copy every row_slacks entry
        return {"feasible": self.feasible, "max_ic_violation": self.max_ic_violation,
                "max_ir_violation": self.max_ir_violation, "tol": self.tol,
                "row_slacks": self.row_slacks}


def _worst_violation(slacks: np.ndarray) -> float:
    """The largest max(0, -s); a NaN slack is a NaN violation, never 0."""
    if np.isnan(slacks).any():
        return float("nan")
    return max((max(0.0, -s) for s in slacks.tolist()), default=0.0)


def check_mechanism(
    system: LinearConstraintSystem, mech: Mechanism, tol: float = DEFAULT_TOL
) -> FeasibilityReport:
    """Evaluate every constraint row and report the worst violations."""
    if not 0.0 <= tol < np.inf:
        raise RangeError("tol must be finite and >= 0")
    shape = (system.uu.n_types, system.uu.n_atoms)
    if mech.assignment.shape != shape:
        raise DimensionError(
            f"mechanism shape {mech.assignment.shape} does not match {shape}"
        )
    ic, ir = system.slacks(mech)
    row_slacks = (
        [{"row": f"IC({j},{k})", "slack": s}
         for (j, k), s in zip(system.ic_pairs(), ic.tolist())]
        + [{"row": f"IR({j})", "slack": s} for j, s in enumerate(ir.tolist())]
    )
    max_ic, max_ir = _worst_violation(ic), _worst_violation(ir)
    return FeasibilityReport(
        feasible=bool(max_ic <= tol and max_ir <= tol),
        max_ic_violation=max_ic,
        max_ir_violation=max_ir,
        tol=tol,
        row_slacks=row_slacks,
    )
