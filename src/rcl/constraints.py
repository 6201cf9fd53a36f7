"""Linear participation and truth-telling constraints in utility units.

After the change of variables the agent's utility is bilinear, so both
constraint blocks are linear in the contract assignment: one participation
row per type and one truth-telling row per ordered type pair. Both orderings
are kept so feasibility reports stay legible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, RangeError
from .transform import UtilityUnitsInstance

DEFAULT_TOL = 1e-8

IC = "IC"
IR = "IR"


@dataclass
class Mechanism:
    """A direct mechanism: one utility-level contract per type (n x m)."""

    assignment: np.ndarray

    def __post_init__(self):
        self.assignment = np.atleast_2d(np.asarray(self.assignment, dtype=float))

    @property
    def n_types(self) -> int:
        return self.assignment.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.assignment.shape[1]

    def within_bounds(self, uu: UtilityUnitsInstance, tol: float = 1e-9) -> bool:
        span = max(float((uu.c_hi - uu.c_lo).max()), 1.0)
        return bool(
            np.all(self.assignment >= uu.c_lo - tol * span)
            and np.all(self.assignment <= uu.c_hi + tol * span)
        )

    def to_json(self) -> dict:
        return {"assignment": self.assignment.tolist()}


@dataclass
class ConstraintRow:
    """One linear row: sum over (type, atom) of coeffs * c >= rhs."""

    kind: str            # IC or IR
    j: int               # reporting type
    k: int | None        # misreport target for IC rows, None for IR
    coeffs: np.ndarray   # (n, m), supported only on types j (and k)
    rhs: float

    def slack(self, mech: Mechanism) -> float:
        # Per-type dot products: for a pooling mechanism the IC blocks are
        # exact negations and cancel to exactly zero.
        total = self.coeffs[self.j] @ mech.assignment[self.j]
        if self.k is not None:
            total += self.coeffs[self.k] @ mech.assignment[self.k]
        return float(total - self.rhs)

    def describe(self) -> str:
        if self.kind == IC:
            return f"IC({self.j},{self.k})"
        return f"IR({self.j})"


@dataclass
class LinearConstraintSystem:
    """The full IC/IR row block for one utility-units instance."""

    rows: list[ConstraintRow]
    n_types: int
    n_atoms: int

    def matrix_form(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows flattened over the (type, atom) grid: A c_flat >= b."""
        a = np.stack([row.coeffs.ravel() for row in self.rows])
        b = np.array([row.rhs for row in self.rows])
        return a, b


def build_system(uu: UtilityUnitsInstance) -> LinearConstraintSystem:
    """Assemble the n*(n-1) truth-telling rows and n participation rows.

    IC row (j,k):  sum_i q_i d_{j,i} (c_{j,i} - c_{k,i}) >= 0
    IR row (j):    sum_i q_i d_{j,i} c_{j,i} >= reservation_j
    """
    weights = uu.base.type_weights()
    n, m = weights.shape
    rows: list[ConstraintRow] = []
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            coeffs = np.zeros((n, m))
            coeffs[j] = weights[j]
            coeffs[k] = -weights[j]
            rows.append(ConstraintRow(kind=IC, j=j, k=k, coeffs=coeffs, rhs=0.0))
    for j in range(n):
        coeffs = np.zeros((n, m))
        coeffs[j] = weights[j]
        rows.append(ConstraintRow(kind=IR, j=j, k=None, coeffs=coeffs,
                                  rhs=float(uu.reservation[j])))
    return LinearConstraintSystem(rows=rows, n_types=n, n_atoms=m)


@dataclass
class FeasibilityReport:
    """Per-row slacks plus the worst violations of each constraint block."""

    feasible: bool
    max_ic_violation: float
    max_ir_violation: float
    tol: float
    row_slacks: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "max_ic_violation": self.max_ic_violation,
            "max_ir_violation": self.max_ir_violation,
            "tol": self.tol,
            "row_slacks": self.row_slacks,
        }


def check_mechanism(
    system: LinearConstraintSystem, mech: Mechanism, tol: float = DEFAULT_TOL
) -> FeasibilityReport:
    """Evaluate every constraint row and report the worst violations."""
    if tol < 0.0:
        raise RangeError("tol must be >= 0")
    if mech.assignment.shape != (system.n_types, system.n_atoms):
        raise DimensionError(
            f"mechanism shape {mech.assignment.shape} does not match "
            f"({system.n_types}, {system.n_atoms})"
        )
    max_ic = 0.0
    max_ir = 0.0
    row_slacks = []
    for row in system.rows:
        s = row.slack(mech)
        row_slacks.append({"row": row.describe(), "slack": s})
        violation = max(0.0, -s)
        if row.kind == IC:
            max_ic = max(max_ic, violation)
        else:
            max_ir = max(max_ir, violation)
    return FeasibilityReport(
        feasible=bool(max_ic <= tol and max_ir <= tol),
        max_ic_violation=max_ic,
        max_ir_violation=max_ir,
        tol=tol,
        row_slacks=row_slacks,
    )
