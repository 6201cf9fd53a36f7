"""Robust mechanism optimization and its brute-force grid oracle.

The principal's objective over mechanisms is concave (her utility is concave
and the inverse agent utility is convex), the constraint set is a box
intersected with half-spaces, and the inner infimum over the finite belief
set is an exact minimum. The solver runs projected subgradient ascent with a
diminishing step; feasibility after each step is restored by the exact
nearest-point projection onto the box and the constraint rows, computed by a
primal active-set method warm-started from the previous step's working set.
The oracle enumerates grid-level assignments exhaustively and is kept free
of any solver machinery so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    DEFAULT_TOL,
    FeasibilityReport,
    Mechanism,
    build_system,
    check_mechanism,
)
from .errors import RangeError, SizeCapError, ValidationError
from .transform import UtilityUnitsInstance

HARD_ASSIGNMENT_CAP = 10_000_000
_CHUNK = 1 << 16


@dataclass
class SolveOptions:
    max_iters: int = 50_000
    tol: float = 1e-8

    def __post_init__(self):
        violations = []
        if self.max_iters <= 0:
            violations.append("max_iters must be positive")
        if self.tol <= 0:
            violations.append("tol must be positive")
        if violations:
            raise ValidationError(violations)


@dataclass
class SolveResult:
    mechanism: Mechanism
    value: float
    worst_prior: int
    iterations: int
    feasibility: FeasibilityReport
    converged: bool
    trace: list[tuple[int, float, float]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "worst_prior": self.worst_prior,
            "iterations": self.iterations,
            "converged": self.converged,
            "feasibility": self.feasibility.to_json(),
            "mechanism": self.mechanism.to_json(),
        }


def _rows_dot(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # one dot per row, the idiom of constraints.agent_levels: a row's value
    # is bitwise the same whichever rows sit beside it, so a menu's value and
    # the value of the mechanism extracted from it agree exactly
    return np.array([row @ weights for row in matrix])


def _evaluate(uu: UtilityUnitsInstance, c: np.ndarray):
    """Agent wealth, principal wealth and principal value of each row of c.

    The one evaluator behind the objective, its supergradient and the
    oracle's per-contract values.
    """
    inst = uu.base
    agent_wealth = inst.u.inverse(np.clip(c, uu.c_lo, uu.c_hi))
    principal_wealth = inst.e_p + inst.e_a - agent_wealth
    values = _rows_dot(inst.v.value(principal_wealth), inst.principal_weights())
    return agent_wealth, principal_wealth, values


def principal_type_values(uu: UtilityUnitsInstance, mech: Mechanism) -> np.ndarray:
    """Principal's expected utility per reported type, under her own belief."""
    if not uu.contains(mech.assignment, tol=1e-6):
        raise RangeError("mechanism leaves the transformed contract bounds")
    return _evaluate(uu, mech.assignment)[2]


def principal_value(uu: UtilityUnitsInstance, mech: Mechanism) -> tuple[float, int]:
    """Robust objective of a mechanism: worst prior (plus penalty) applied
    to the per-type values; ties resolve to the lowest prior index."""
    return uu.base.beliefs.robust_value(principal_type_values(uu, mech))


def _subgradient(uu: UtilityUnitsInstance, c: np.ndarray) -> tuple[float, int, np.ndarray]:
    """Objective value, active worst prior and an ascent subgradient at c.

    At a kink (several priors attaining the minimum) the lowest-index active
    prior's gradient is used, the standard choice for subgradient methods.
    """
    inst = uu.base
    agent_wealth, principal_wealth, type_values = _evaluate(uu, c)
    value, worst = inst.beliefs.robust_value(type_values)
    kappa = inst.beliefs.priors[worst]
    with np.errstate(divide="ignore", invalid="ignore"):
        marginal = -(inst.principal_weights() * inst.v.deriv(principal_wealth))
        marginal = marginal / inst.u.deriv(agent_wealth)
    marginal = np.where(np.isfinite(marginal), marginal, 0.0)
    return value, worst, kappa[:, None] * marginal


def _active_set_projection(y, x, lo, hi, a, b, working, factors=None):
    """Exact nearest point to y in {a x >= b, lo <= x <= hi}.

    Standard primal active-set method for the least-distance problem
    (Nocedal & Wright, Numerical Optimization, ch. 16), started from a
    feasible x that lies on every constraint of `working`, a mask over the
    rows, then the lower box faces, then the upper ones. A working box face
    fixes its coordinate, so each pivot projects onto the working rows over
    the free coordinates only, through a QR factorization of those rows.
    The step toward that equality projection is cut at the first blocking
    constraint whose normal is independent of the working set, and the
    blocker joins it; once the step is taken in full, the constraint with
    the most negative multiplier leaves it. The pivot cap bounds degenerate
    cycling; the caller checks feasibility.

    Returns the point, the final working set and its `factors` (the QR
    factors and index arrays, which depend only on the working set, lo, hi
    and a). Passing both to the next projection over the same box and rows
    warm-starts it.
    """
    n_rows, dim = b.size, y.size
    working = working.copy()
    at_lo = working[n_rows:n_rows + dim]  # views: pinning updates `working`
    at_hi = working[n_rows + dim:]
    rhs = np.concatenate([b, lo, -hi])
    scale = max(1.0, float(np.abs(y).max()))
    for _ in range(10 * working.size + 100):
        if factors is None:
            free = ~(at_lo | at_hi)
            w = working[:n_rows].nonzero()[0]
            a_w = a[w]
            # orthonormal basis of the working rows over the free coordinates:
            # (a_w * free)^T = q r, so the Gram matrix is r^T r
            q, r = np.linalg.qr((a_w * free).T)
            try:
                r_inv = np.linalg.inv(r)
            except np.linalg.LinAlgError:
                r_inv = np.linalg.pinv(r)
            factors = free, np.where(at_lo, lo, hi), w, a_w, q, r_inv
        free, pinned, w, a_w, q, r_inv = factors
        lam = r_inv @ (r_inv.T @ (b[w] - a_w @ np.where(free, y, pinned)))
        pull = y + lam @ a_w
        x_target = np.where(free, pull, pinned)
        step = x_target - x
        blocker = -1
        if np.abs(step).max() > 1e-12 * scale:
            # a constraint outside the working set can block the step only
            # if the target violates it, so the ratio test runs only then
            at_target = np.concatenate([a @ x_target, x_target, -x_target]) - rhs
            if (~working & (at_target < -1e-14 * scale)).any():
                slack = np.concatenate([a @ x, x, -x]) - rhs
                slope = np.concatenate([a @ step, step, -step])
                closing = (~working & (slope < -1e-14 * scale)).nonzero()[0]
                ratios = np.maximum(slack[closing], 0.0) / -slope[closing]
                for i in np.argsort(ratios, kind="stable"):
                    if ratios[i] >= 1.0:
                        break
                    if _independent(int(closing[i]), free, a, q):
                        blocker, alpha = int(closing[i]), ratios[i]
                        break
        if blocker >= 0:
            x = x + alpha * step
            if blocker >= n_rows:
                k = (blocker - n_rows) % dim
                x[k] = lo[k] if blocker < n_rows + dim else hi[k]
            working[blocker] = True
            factors = None
            continue
        # the full step reaches the equality projection, so its multipliers
        # decide optimality: lam on the rows and, on a pinned coordinate,
        # the gap between the pinned value and the unconstrained pull
        x = x_target
        gap = x_target - pull
        mult = np.concatenate([np.zeros(n_rows), gap, -gap]) * working
        mult[w] = lam
        drop = int(mult.argmin())
        if mult[drop] >= -1e-11:
            break
        working[drop] = False
        factors = None
    return x, working, factors


def _independent(index, free, a, q):
    """Whether constraint `index` (a row, or a box face past the rows) has a
    normal, over the free coordinates, outside the span of the working rows
    (orthonormal basis q). A normal in their span has a round-off slope
    only, and taking it in would make the Gram matrix singular."""
    if index < a.shape[0]:
        normal = a[index] * free
    else:
        normal = np.zeros(free.size)
        normal[(index - a.shape[0]) % free.size] = 1.0
    norm_sq = normal @ normal
    return norm_sq - np.sum((normal @ q) ** 2) > 1e-10 * norm_sq


def _residual(x, lo, hi, a, b):
    return max(0.0, float((b - a @ x).max()), float((lo - x).max()),
               float((x - hi).max()))


def solve_mechanism(
    uu: UtilityUnitsInstance,
    opts: SolveOptions | None = None,
    seed_mechanism: Mechanism | None = None,
) -> SolveResult:
    """Maximize the robust objective over feasible mechanisms.

    Starts from the pooling mechanism at the upper contract bound (always
    feasible for a validated instance) or from `seed_mechanism`; the returned
    value never falls below the value of a feasible seed. Step t moves
    0.1 * (largest bound range) / sqrt(t) along the normalized supergradient
    and is restored to feasibility by the exact active-set projection,
    warm-started from the previous projection's point and working set. A
    projection whose point misses `opts.tol` on the true rows (the polytope
    is empty, or the pivot cap stopped the projection short) is surfaced as
    converged=False rather than silently returning an infeasible point. The
    result's `trace` holds (iteration, value, worst row violation) for every
    iteration. A solve is single-threaded and fully deterministic; separate
    solves share no mutable state and can run in parallel.
    """
    opts = opts or SolveOptions()
    system = build_system(uu)
    a, b = system.matrix_form()
    n, m = system.n_types, system.n_atoms
    lo = np.tile(uu.c_lo, n)
    hi = np.tile(uu.c_hi, n)
    span = float(np.max(uu.c_hi - uu.c_lo))
    step0 = 0.1 * max(span, 1e-12)

    def as_mech(flat):
        return Mechanism(flat.reshape(n, m).copy())

    def project(y, start, working, factors):
        # rows are relaxed to the feasible start's sub-tolerance deficits so
        # the start is exactly feasible; the result is checked on the true rows
        start = np.minimum(np.maximum(start, lo), hi)
        x, working, factors = _active_set_projection(
            y, start, lo, hi, a, np.minimum(b, a @ start), working, factors
        )
        return x, working, factors, _residual(x, lo, hi, a, b) <= opts.tol

    def failed(x, iterations):
        mech = as_mech(best_x if best_x is not None else np.clip(x, lo, hi))
        report = check_mechanism(system, mech, opts.tol)
        value, worst = principal_value(uu, mech)
        return SolveResult(mech, value, worst, iterations, report, converged=False,
                           trace=trace)

    best_x = None
    best_val = -np.inf
    if seed_mechanism is not None:
        seed_flat = seed_mechanism.assignment.ravel()
        if uu.contains(seed_mechanism.assignment) and check_mechanism(
            system, seed_mechanism, opts.tol
        ).feasible:
            best_x = np.clip(seed_flat, lo, hi)
            best_val = _subgradient(uu, best_x.reshape(n, m))[0]
        x0 = seed_flat
    else:
        x0 = hi
    # pooling at the top is feasible for any validated instance (truth-telling
    # slack is exactly zero, participation clears by validation); the first
    # projection starts there with an empty working set
    working = np.zeros(b.size + 2 * hi.size, dtype=bool)
    x, working, factors, ok = project(x0, hi, working, None)
    trace: list[tuple[int, float, float]] = []
    if not ok:
        return failed(x, 0)

    val, _, grad = _subgradient(uu, x.reshape(n, m))
    if val > best_val:
        best_val, best_x = val, x.copy()

    iterations = 0
    for t in range(1, opts.max_iters + 1):
        iterations = t
        flat_grad = grad.ravel()
        gnorm = float(np.linalg.norm(flat_grad))
        if gnorm < 1e-15:
            break  # flat objective: the current feasible point is optimal
        x_trial = x + (step0 / np.sqrt(t)) * flat_grad / gnorm
        x, working, factors, ok = project(x_trial, x, working, factors)
        if not ok:
            return failed(x, t)
        val, _, grad = _subgradient(uu, x.reshape(n, m))
        if val > best_val:
            best_val, best_x = val, x.copy()
        residual = float(np.max(b - a @ x, initial=0.0)) if b.size else 0.0
        trace.append((t, val, max(residual, 0.0)))

    mech = as_mech(best_x)
    report = check_mechanism(system, mech, opts.tol)
    value, worst = principal_value(uu, mech)
    return SolveResult(
        mech, value, worst, iterations, report, converged=report.feasible, trace=trace
    )


def grid_contracts(uu: UtilityUnitsInstance, levels_per_atom: int) -> np.ndarray:
    """All contracts on the per-atom grid of equally spaced utility levels.

    Rows are ordered lexicographically with atom 0 most significant.
    """
    if levels_per_atom < 1:
        raise RangeError("levels_per_atom must be >= 1")
    grids = [
        np.linspace(uu.c_lo[i], uu.c_hi[i], levels_per_atom)
        for i in range(uu.n_atoms)
    ]
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, uu.n_atoms)


def contract_values(uu: UtilityUnitsInstance, contracts: np.ndarray) -> np.ndarray:
    """Principal's expected utility of each contract (same for every type)."""
    return _evaluate(uu, contracts)[2]


def enumerate_best_assignment(
    contracts: np.ndarray,
    uu: UtilityUnitsInstance,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float, int]:
    """Exhaustively search type->contract assignments for the robust optimum.

    Returns (assignment indices, robust value, number of assignments). Only
    assignments passing the IC/IR rows at `tol` count; ties resolve to the
    lexicographically smallest index tuple. Raises SizeCapError when the
    assignment count exceeds HARD_ASSIGNMENT_CAP.
    """
    inst = uu.base
    n = inst.n_types
    n_contracts = int(contracts.shape[0])
    count = n_contracts**n
    if count > HARD_ASSIGNMENT_CAP:
        raise SizeCapError(
            f"{count} assignments of {n_contracts} contracts to {n} types "
            f"exceed the cap {HARD_ASSIGNMENT_CAP}"
        )
    weights = inst.type_weights()
    e_mat = weights @ contracts.T          # (n, G): agent value of each contract
    values = contract_values(uu, contracts)
    reservation = np.asarray(uu.reservation, dtype=float)
    priors = inst.beliefs.priors
    penalties = inst.beliefs.penalties
    type_range = np.arange(n)

    best_val = -np.inf
    best_idx: np.ndarray | None = None
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        idx = np.array(
            np.unravel_index(np.arange(start, stop), (n_contracts,) * n)
        ).T
        own = e_mat[type_range[None, :], idx]          # (B, n)
        cross = e_mat.T[idx]                           # (B, n, n): [b, k, j]
        ic_ok = np.all(own[:, None, :] >= cross - tol, axis=(1, 2))
        ir_ok = np.all(own >= reservation[None, :] - tol, axis=1)
        feasible = ic_ok & ir_ok
        if not np.any(feasible):
            continue
        robust = (values[idx] @ priors.T + penalties).min(axis=1)
        robust[~feasible] = -np.inf
        local = int(np.argmax(robust))
        if robust[local] > best_val:
            best_val = float(robust[local])
            best_idx = idx[local].copy()
    if best_idx is None:
        raise ValidationError(["no feasible assignment among the candidate contracts"])
    return best_idx, best_val, count


def grid_oracle(uu: UtilityUnitsInstance, levels_per_atom: int) -> SolveResult:
    """Exact robust optimum over the grid of per-atom contract levels.

    Independent of the subgradient solver: plain enumeration filtered by the
    constraint rows. The assignment count levels^(atoms*types) must stay
    within HARD_ASSIGNMENT_CAP, checked before the grid is built; the error
    carries the computed count.
    """
    n, m = uu.n_types, uu.n_atoms
    count = levels_per_atom ** (m * n)
    if count > HARD_ASSIGNMENT_CAP:
        raise SizeCapError(
            f"{count} grid assignments (levels={levels_per_atom}, atoms={m}, "
            f"types={n}) exceed the cap {HARD_ASSIGNMENT_CAP}"
        )
    contracts = grid_contracts(uu, levels_per_atom)
    best_idx, _, evaluated = enumerate_best_assignment(contracts, uu, tol=DEFAULT_TOL)
    mech = Mechanism(contracts[best_idx])
    system = build_system(uu)
    report = check_mechanism(system, mech, DEFAULT_TOL)
    value, worst = principal_value(uu, mech)
    return SolveResult(
        mechanism=mech,
        value=value,
        worst_prior=worst,
        iterations=evaluated,
        feasibility=report,
        converged=True,
    )
