"""Linear participation and truth-telling constraints in utility units.

After the change of variables the agent's utility is bilinear, so both
constraint blocks are linear in the contract assignment: one participation
row per type and one truth-telling row per ordered type pair. Both orderings
are kept so feasibility reports stay legible. Every slack is read off one
agent-level matrix (`agent_levels`), the same one menus choose from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
        n = self.uu.n_types
        return [(j, k) for j in range(n) for k in range(n) if k != j]

    def _row_types(self) -> np.ndarray:
        """Row r compares type own[r] with type other[r]: (own, other) is
        (j, k) for IC(j,k) and (j, j) for IR(j), in row order."""
        return np.array(self.ic_pairs() + [(j, j) for j in range(self.uu.n_types)]).T

    def rows(self, mask) -> tuple[np.ndarray, np.ndarray]:
        """The rows `mask` picks (a boolean mask over the row order), dense
        and flattened over the (type, atom) grid: A c_flat >= b."""
        weights = self.uu.base.type_weights()
        own, other = self._row_types()[:, mask]
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
        own, other = self._row_types()
        compared = np.where(own == other, self.uu.reservation[own], levels[own, other])
        return levels[own, own] - compared

    def slacks(self, mech: Mechanism) -> tuple[np.ndarray, np.ndarray]:
        """The IC and the IR entries of `residual` at the mechanism."""
        return np.split(self.residual(mech.assignment), [len(self.ic_pairs())])


def build_system(uu: UtilityUnitsInstance) -> LinearConstraintSystem:
    """The n*(n-1) truth-telling rows and n participation rows of `uu`."""
    return LinearConstraintSystem(uu)


@dataclass
class FeasibilityReport:
    """Per-row slacks plus the worst violations of each constraint block."""

    feasible: bool
    max_ic_violation: float
    max_ir_violation: float
    tol: float
    row_slacks: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


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
