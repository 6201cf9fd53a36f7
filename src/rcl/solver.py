"""Certified robust mechanism optimization and its brute-force grid oracle.

The principal's objective over mechanisms is concave (her utility is concave
and the inverse agent utility is convex), the constraint set is a box
intersected with half-spaces, and the inner infimum over the finite belief
set is an exact minimum. The solver minimizes the Lagrangian dual, whose
every value bounds the optimum from above, pricing only a working set W of
rows: the rows its maximizer violates join in rounds. A dual point with the
other rows' prices at 0 is a point of the full dual, so its value is still
a bound. The mechanism comes from one master LP that mixes the dual's inner
maximizers for each type (Dantzig & Wolfe): it holds W's rows, takes in
any other row its mixture violates, and prices new maximizers at its own
duals while the gap is open. The rows have one owner,
`LinearConstraintSystem`: the solve reads W's dense rows and the master's
entries from it and checks the others by its `residual`, off the agent
level matrix, and never builds the dense matrix of all the rows unless W
holds them all. It reports the gap between the least bound and the
mixture's value. The oracle enumerates grid-level assignments exhaustively
and is kept free of any solver machinery so the two can check each other:
it is plain enumeration under the same IR/IC rows, which it applies as
soon as their types are assigned, extending only IR-feasible, pairwise-IC
assignment prefixes in blocks of at most _CHUNK cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .constraints import (
    DEFAULT_TOL,
    FeasibilityReport,
    Mechanism,
    agent_levels,
    build_system,
    check_mechanism,
    ic_rows,
)
from .errors import RangeError, SizeCapError, ValidationError
from .model import UtilitySpec, _row_dots
from .transform import UtilityUnitsInstance

HARD_ASSIGNMENT_CAP = 10_000_000
_CHUNK = 1 << 16
NEWTON_ITERS = 60    # cap on the safeguarded Newton steps of the dual's inner maximum
TABLE_KNOTS = 33     # knots per atom of the table that starts the inner maximum's Newton
# the master LP's HiGHS options: silent, no presolve (rows and columns join
# a warm model), both feasibility tolerances at HiGHS's floor
_MASTER_OPTIONS = {"output_flag": False, "presolve": "off",
                   "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass
class SolveOptions:
    max_iters: int = 50_000
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        violations = []
        if self.max_iters <= 0:
            violations.append("max_iters must be positive")
        if not 0.0 < self.tol < np.inf:
            violations.append("tol must be positive and finite")
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
    bound: float
    trace: list[tuple[int, float]] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.bound - self.value

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "worst_prior": self.worst_prior,
            "iterations": self.iterations,
            "converged": self.converged,
            "feasibility": self.feasibility.to_json(),
            "mechanism": self.mechanism.to_json(),
            "bound": self.bound,
            "gap": self.gap,
        }


@dataclass
class OracleResult:
    """The grid oracle's optimum; `assignments` is the size of the space it
    covered, levels^(atoms*types), not the number the rows let through."""

    mechanism: Mechanism
    value: float
    worst_prior: int
    assignments: int
    feasibility: FeasibilityReport

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "worst_prior": self.worst_prior,
            "assignments": self.assignments,
            "feasibility": self.feasibility.to_json(),
            "mechanism": self.mechanism.to_json(),
        }


def _evaluate(uu: UtilityUnitsInstance, c: np.ndarray) -> np.ndarray:
    """Principal value of each row of c: the one evaluator behind the
    objective, the dual bound and the oracle's per-contract values; one
    `_row_dots`, so a row's value does not depend on the rows beside it and
    a menu and its extracted mechanism agree exactly. c is clipped to the
    box, where the unchecked cores are safe."""
    inst = uu.base
    clipped = np.minimum(np.maximum(c, uu.c_lo), uu.c_hi)    # np.clip's bits, in half its time
    principal_wealth = inst.e_p + inst.e_a - inst.u._inverse(clipped)
    return _row_dots(inst.v._value(principal_wealth), inst.principal_weights())


def principal_value(uu: UtilityUnitsInstance, mech: Mechanism) -> tuple[float, int]:
    """Robust objective of a mechanism: worst prior (plus penalty) applied
    to the principal's per-type values; ties resolve to the lowest prior index."""
    if not uu.contains(mech.assignment, tol=1e-6):
        raise RangeError("mechanism leaves the transformed contract bounds")
    return uu.base.beliefs.robust_value(_evaluate(uu, mech.assignment))


def _marginal(u: UtilitySpec, v: UtilitySpec, wealth, c: np.ndarray) -> np.ndarray:
    """phi'(c) = -v'(W - u^-1(c)) / u'(u^-1(c)) entry by entry for c in the
    box, W the joint wealth e_p + e_a: the principal's marginal value of
    agent utility at each atom. It falls in c and may be -inf where her
    wealth reaches a singular point; nan (0/0, inf/inf) counts as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        agent = u._inverse(c)
        slope = -v._deriv_and_aversion(wealth - agent)[0] / u._deriv_and_aversion(agent)[0]
        return np.where(np.isnan(slope), 0.0, slope)


def _slope_from(positive, weight, g, marginal) -> np.ndarray:
    """Slope in c of the dual's inner objective weight_ji phi_i(c) + g_ji c,
    from phi' at the point (`_marginal`) and the mask `positive` of weight
    > 0; a type of weight 0 has slope g (its 0 * -inf is nan, discarded:
    the caller silences that warning)."""
    return g + np.where(positive, weight * marginal, 0.0)


@dataclass(frozen=True)
class _DualFaces:
    """What the dual's inner maximum reads of the instance, on the (n, m)
    grid of type by atom: the principal's weights w, the box faces, the
    joint wealth e_p + e_a, and phi' at both faces (`_marginal`).

    Also the table `_start` reads: h = log(-phi'), the part of the log
    first-order condition psi = log(w/g) + h that does not depend on the
    dual point, as `levels` at `knots`, both (m, TABLE_KNOTS), the knots
    evenly spaced over each atom's box with the faces at the ends. Derived
    from it: `keys`, arctan(h) + 4 * atom with each atom's end keys at -2
    and 2, so each atom has a band of its own that holds every level a
    search asks for, made nondecreasing (nan ignored) so that a search has
    one answer whatever the levels; `segments`, one row per segment: its
    two knots, its left level, the slope of its linear interpolant's
    inverse and the atom's box midpoint; and `bands`, 4 * atom on the
    flattened (n, m) grid."""

    u: UtilitySpec
    v: UtilitySpec
    weights: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    wealth: np.ndarray
    marginal_lo: np.ndarray
    marginal_hi: np.ndarray
    knots: np.ndarray
    levels: np.ndarray
    keys: np.ndarray = field(init=False)
    segments: np.ndarray = field(init=False)
    bands: np.ndarray = field(init=False)

    def __post_init__(self):
        n, m = self.lo.shape
        bands = 4.0 * np.arange(m)
        keys = np.arctan(self.levels)
        keys[:, 0], keys[:, -1] = -2.0, 2.0
        # the first key, -2, lies below every level searched for: left out,
        # a search returns the index of the segment itself
        keys = np.fmax.accumulate((keys + bands[:, None]).ravel())[1:]
        knots, levels = self.knots.ravel(), self.levels.ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (knots[1:] - knots[:-1]) / (levels[:-1] - levels[1:])
        middle = np.repeat(0.5 * (self.knots[:, 0] + self.knots[:, -1]), self.knots.shape[1])
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "segments", np.stack(
            [knots[:-1], knots[1:], levels[:-1], slope, middle[:-1]], axis=1))
        object.__setattr__(self, "bands", np.tile(bands, n))


def _dual_faces(uu: UtilityUnitsInstance) -> _DualFaces:
    """The instance's `_DualFaces`, for every dual evaluation of one solve,
    from one `_marginal` call over the table's knots: phi' at the faces is
    its end columns."""
    inst = uu.base
    wealth = inst.e_p + inst.e_a
    knots = np.linspace(uu.c_lo, uu.c_hi, TABLE_KNOTS, axis=1)
    marginal = _marginal(inst.u, inst.v, wealth[:, None], knots)
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = np.log(-marginal)

    def grid(row):
        # a full (n, m) copy: numpy runs the inner maximum's elementwise
        # steps on same-shape contiguous operands about twice as fast as on
        # a broadcast row
        return np.repeat(row[None, :], uu.n_types, axis=0)

    return _DualFaces(inst.u, inst.v, inst.principal_weights(), grid(uu.c_lo), grid(uu.c_hi),
                      grid(wealth), grid(marginal[:, 0]), grid(marginal[:, -1]), knots, levels)


def _start(faces: _DualFaces, ratio, entries) -> np.ndarray:
    """Newton's start for the interior entries at the flat indices
    `entries`, whose w/g is `ratio`. psi = log(w/g) + h(c) is 0 where h is
    log(g/w): one search of `faces.keys` finds, for every entry at once, the
    segment of its atom whose levels bracket log(g/w), and the start is the
    root of the linear interpolant of h there, or the box midpoint where
    that root is not finite or not strictly inside the segment (an infinite
    level at a face). A start reads only the entry's own ratio and its
    atom's table, and lies strictly inside its box whatever the levels."""
    log_ratio = np.log(ratio)
    segment = faces.keys.searchsorted(faces.bands.take(entries) - np.arctan(log_ratio), "right")
    before, after, below, slope, middle = faces.segments.take(segment, axis=0).T
    start = before + (log_ratio + below) * slope
    return np.where((before < start) & (start < after), start, middle)


def _inner_max(faces: _DualFaces, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The maximizer over the box of s_j w_i phi_i(c) + g_ji c, entry by entry.

    The objective is concave in c, so its slope falls: an entry sits on the
    lower face when the slope is <= 0 there, on the upper face when it is
    >= 0 there, and otherwise at the sign change; phi' at the faces comes
    from `faces`, computed once per solve. An entry strictly inside has
    w > 0 and g > 0: the slope g - w v'/u' is g at w = 0, and is positive
    at the lower face.

    Its sign change is found by safeguarded Newton (Numerical Recipes'
    rtsafe) on the log first-order condition psi(c) = log(w v'(W - x) /
    (g u'(x))), x = u^-1(c), which rises in c with psi' = (A_v(W - x) +
    A_u(x)) / u'(x), A = -U''/U' the absolute risk aversion. One pass runs
    over the whole grid with every entry in place: entries on a face start
    out finished, interior ones at `_start`, the root of the linear
    interpolant of the table of psi - log(w/g), which depends on the atom
    alone and is tabulated once per solve in `faces`. psi is linear for a
    linear agent and a CARA principal, so there the start is the root and
    one evaluation confirms it. An entry has found its root at |psi| <=
    1e-13, tested right after psi is computed, and the loop ends as soon as
    no entry is live, before it moves the bracket. A step moves only the
    entries of the live mask, updating the bracket and c in place; the
    bracket is copied from the faces at its first update. The sign of psi
    moves the bracket (nan counts as "move up", as a nan marginal counts as
    0 in `_marginal`); the next point is the Newton point when it lies
    strictly inside the bracket, else its midpoint. Where psi is too steep
    for the root test within float resolution, the bracket collapses to
    adjacent floats and the entry leaves the mask; such an entry, like one
    still live at the NEWTON_ITERS cap, ends on the bracket end that leaves
    the smaller `_gains`, and the bound adds that slack however the
    iteration ends. The start only saves evaluations: from any point of the
    box the bracket keeps the sign change, so no result rests on the table.
    No entry's arithmetic reads another's, so its c* does not depend on the
    entries beside it.
    """
    u, v, wealth, lo, hi = faces.u, faces.v, faces.wealth, faces.lo, faces.hi
    weight = s[:, None] * faces.weights
    positive = weight > 0.0
    left = right = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        at_lo = _slope_from(positive, weight, g, faces.marginal_lo) <= 0.0
        live = ~at_lo & (_slope_from(positive, weight, g, faces.marginal_hi) < 0.0)
        found = ~live
        ratio = weight / g
        c = np.where(at_lo, lo, hi)
        inside = np.flatnonzero(live)
        if inside.size:
            c.put(inside, _start(faces, ratio.take(inside), inside))
        for _ in range(NEWTON_ITERS):
            if not np.count_nonzero(live):
                break
            x = u._inverse(c)
            du, aversion_u = u._deriv_and_aversion(x)
            dv, aversion_v = v._deriv_and_aversion(wealth - x)
            psi = np.log(ratio * (dv / du))
            found |= live & (np.abs(psi) <= 1e-13)
            live &= ~found
            if not np.count_nonzero(live):
                break
            if left is None:
                left, right = np.array(lo), np.array(hi)
            np.copyto(left, c, where=live & ~(psi >= 0.0))
            np.copyto(right, c, where=live & (psi > 0.0))
            newton = c - psi * du / (aversion_v + aversion_u)
            mid = 0.5 * (left + right)
            live &= (left < mid) & (mid < right)
            np.copyto(c, np.where((left < newton) & (newton < right), newton, mid), where=live)
        if np.count_nonzero(found) < found.size:
            gain_left, gain_right = (_gains(faces, weight, g, end) for end in (left, right))
            c = np.where(found, c, np.where(gain_left <= gain_right, left, right))
    return c


def _gains(faces: _DualFaces, weight, g, c):
    """What the concave inner objective weight phi(c) + g c can gain on the
    box over c, entry by entry: its tangent's rise at c toward the face its
    slope points to. An infinite slope at its own face gives nan, a gain of
    0; the caller silences the invalid-value warning."""
    slope = _slope_from(weight > 0.0, weight, g, _marginal(faces.u, faces.v, faces.wealth, c))
    return np.where(slope > 0.0, slope * (faces.hi - c), slope * (faces.lo - c))


def _inner_slack(faces: _DualFaces, s, g, c) -> float:
    """What the inner objective can gain on the box over its value at c, the
    sum of `_gains`: the bound adds it, so it holds at any c."""
    with np.errstate(invalid="ignore"):
        return float(np.nansum(_gains(faces, s[:, None] * faces.weights, g, c)))


def _sparse(block):
    """The nonzeros of a dense block row by row, as HiGHS's `addRows` takes
    them (and `addCols`, given the transpose): their count, each row's
    start, and each nonzero's column and value."""
    rows, cols = np.nonzero(block)
    starts = np.searchsorted(rows, np.arange(block.shape[0]))
    return rows.size, starts.astype(np.int32), cols.astype(np.int32), block[rows, cols]


def solve_mechanism(uu: UtilityUnitsInstance, opts: SolveOptions | None = None) -> SolveResult:
    """Maximize the robust objective over feasible mechanisms, with a
    certified bound.

    Weak duality (Boyd & Vandenberghe, Convex Optimization, ch. 5) bounds
    the optimum by D(lam, mu) = lam.pen - mu.b + sum_ji max_c [s_j w_i
    phi_i(c) + (A^T mu)_ji c] for every prior mixture lam and row prices
    mu >= 0, where s = lam^T kappa and phi_i(c) = v(e_p,i + e_a,i - u^-1(c)).
    SLSQP minimizes D with the gradients pen + kappa V(c*) and A c* - b at
    the inner maximizer c* (`_inner_max`), which reads what it needs of the
    instance from `_dual_faces`, prepared once per solve after the pooling
    check.

    Only the rows of a working set W carry a price; mu is 0 on the rest,
    and each round reads W's dense rows from `system.rows`.
    Such a mu is a point of the full dual, so D there plus `_inner_slack`
    bounds the full problem however small W is. W starts with every IR row
    and the IC rows both ways between each type and its two nearest types
    (Euclidean distance between rows of `type_weights()`, so the order the
    types are listed in does not matter); with at most three types that is
    every row. SLSQP then runs in rounds over (lam, mu_W), each from the
    previous round's point (the first from uniform lam, mu = 0), a row that
    joins W priced at 0: rows outside W that c* violates by more than 1e-9
    join W, by `system.residual`, read off the level matrix, until none
    does.
    Delayed constraint generation (Bertsimas & Tsitsiklis, Introduction to
    Linear Optimization, ch. 6): at the local-IC optimum of a screening
    problem few rows bind, and SLSQP's dense subproblem grows with k + |W|,
    not k + n^2.

    The mechanism is the optimum of a restricted master LP (Dantzig &
    Wolfe, Oper. Res. 8, 1960), solved by scipy's bundled HiGHS binding,
    one warm model per solve: max t s.t. t <= kappa_k V(x) + pen_k for each
    prior, x_j a mixture of type j's columns (weights summing to 1), and
    the rows it holds, each relaxed by `floor`. Its columns start as the
    upper and lower faces and the dual's last c* for each type, and its
    rows as W's. Because phi is concave, the mixture is worth at least the
    LP's t. While the bound exceeds the mixture's value by more than
    `opts.tol`, or the mixture violates a row outside the master:
      - the rows it violates join the master;
      - `_inner_max` prices at the master's duals (lam on the prior rows,
        mu on the rows it holds, pi on the mixing rows): D there plus
        `_inner_slack` is a bound like any other, and the bound is the least
        so far; type j's c* joins as a column where s_j V(c*) + g_j c* +
        pi_j > 0.
    The weights are the LP's own, its tolerance of 1e-10 included, so the
    mixture meets the rows as the LP reads them. Should HiGHS not solve the
    master to optimality, the solve ends at the pooling point at the upper
    contract bound, uncertified unless that point closes the gap.
    `iterations` and the `trace`, one (iteration, D) row per dual iteration
    or pricing, count SLSQP's iterations summed over the rounds and then the
    master's pricings, and `opts.max_iters` caps that sum: the cap ends the
    SLSQP round it stops, and no pricing runs past it.

    The trace and the bound read the dual's last evaluation, with no memo:
    SLSQP evaluates each iterate before it calls back with it and returns
    the last point it evaluated, so each bound and its c* come from one
    evaluation. The bound is the last round's, with `_inner_slack` at that
    c*, so it holds whatever point was evaluated last and however the inner
    iteration ended; a pricing can only lower it. `converged` means the
    mechanism is feasible within `opts.tol` and `gap` = bound - value is at
    most `opts.tol`.
    Two solves of the same instance with the same options agree bitwise
    only under the same BLAS thread setting: SLSQP's own BLAS calls go
    through scipy's bundled OpenBLAS (a library apart from numpy's), whose
    thread count can round its steps differently and so change its path;
    pinning that pool alone to one thread reproduces a single-thread solve
    of the presets. At 64 types × 40 nodes numpy's pool moves the value too,
    so there only pinning both pools does.
    """
    # imported here: scipy.optimize would triple the package's import time
    from scipy.optimize import minimize
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    opts = opts or SolveOptions()
    system = build_system(uu)
    n, m = uu.n_types, uu.n_atoms
    hi = np.tile(uu.c_hi, n)
    priors, penalties = uu.base.beliefs.priors, uu.base.beliefs.penalties
    k = priors.shape[0]

    def result(x, bound, trace):
        mech = Mechanism(x.reshape(n, m).copy())
        report = check_mechanism(system, mech, opts.tol)
        value, worst = principal_value(uu, mech)
        converged = bool(report.feasible and bound - value <= opts.tol)
        return SolveResult(mech, value, worst, len(trace), report, converged,
                           bound=bound, trace=trace)

    pooling = system.residual(hi)
    if not (pooling >= -opts.tol).all():
        # pooling at the top gives every type its best level and zero IC
        # slack, so a participation row it misses by more than tol (or reads
        # as nan), the test `check_mechanism` applies, no mechanism meets
        return result(hi, -float("inf"), [])

    faces = _dual_faces(uu)
    # the master's rows are relaxed to the pooling point's sub-tolerance
    # deficits, so pooling at the top is a point of the master
    floor = np.minimum(pooling, 0.0)

    def dual(z, a_w, b_w):
        lam = np.maximum(z[:k], 0.0)
        lam, mu = lam / lam.sum(), np.maximum(z[k:], 0.0)
        s, g = lam @ priors, (mu @ a_w).reshape(n, m)
        c = _inner_max(faces, s, g)
        values = _evaluate(uu, c)
        bound = float(lam @ penalties - mu @ b_w + s @ values + (g * c).sum())
        last.update(bound=bound, s=s, g=g, c=c, values=values)
        return bound, np.concatenate([penalties + priors @ values, a_w @ c.ravel() - b_w])

    # the working set: every IR row, and both IC rows between each type and
    # its two nearest types by the distance between their expectation weights
    weights = uu.base.type_weights()
    distance = np.square(weights[:, None, :] - weights[None, :, :]).sum(axis=2)
    np.fill_diagonal(distance, np.inf)
    near = np.zeros((n, n), dtype=bool)
    near[np.arange(n)[:, None], np.argsort(distance, axis=1, kind="stable")[:, :2]] = True
    working = np.r_[ic_rows(near | near.T), np.ones(n, dtype=bool)]
    # the dual point over every row, 0 outside W: each round starts from it
    start = np.r_[np.full(k, 1.0 / k), np.zeros(n * n)]

    # the dual's last evaluation: SLSQP evaluates each iterate before it
    # calls back with it, and the point it returns is the last it evaluated,
    # so the trace and the final bound read D where it was evaluated
    last: dict = {}
    trace: list[tuple[int, float]] = []
    while True:
        a_w, b_w = system.rows(working)
        simplex = np.r_[np.ones(k), np.zeros(b_w.size)]
        point = minimize(
            dual, np.r_[start[:k], start[k:][working]], args=(a_w, b_w), jac=True,
            method="SLSQP", bounds=[(0.0, 1.0)] * k + [(0.0, None)] * b_w.size,
            constraints=[{"type": "eq", "fun": lambda z: z[:k].sum() - 1.0,
                          "jac": lambda z: simplex}],
            callback=lambda z: trace.append((len(trace) + 1, last["bound"])),
            options={"maxiter": opts.max_iters - len(trace), "ftol": 1e-15},
        ).x
        bound = last["bound"] + _inner_slack(faces, last["s"], last["g"], last["c"])
        start[:k], start[k:][working] = point[:k], point[k:]
        violated = ~working & (system.residual(last["c"]) < -1e-9)
        if not violated.any() or len(trace) >= opts.max_iters:
            break
        working |= violated

    # the master LP: column 0 is t, then one column per contract in
    # `columns`, of type `types`; rows 0..k-1 are the priors' t <= kappa_k V
    # + pen_k, row k + j mixes type j's columns, and the rows `taken` follow
    # in the order they joined, relaxed by floor
    master = _Highs()
    for option, setting in _MASTER_OPTIONS.items():
        master.setOptionValue(option, setting)
    master.addRows(k + n, np.r_[-penalties, np.ones(n)], np.r_[np.full(k, np.inf), np.ones(n)],
                   *_sparse(np.zeros((k + n, 0))))
    master.addCols(1, [-1.0], [-np.inf], [np.inf], *_sparse(np.full((1, k), -1.0)))
    types, columns, taken = np.zeros(0, dtype=int), np.zeros((0, m)), np.zeros(0, dtype=int)

    def add_rows(rows):
        nonlocal taken
        entries = system.entries(rows, types, agent_levels(uu, columns))
        master.addRows(rows.size, system.rhs(rows) + floor[rows], np.full(rows.size, np.inf),
                       *_sparse(np.hstack([np.zeros((rows.size, 1)), entries])))
        taken = np.r_[taken, rows]

    def add_columns(new, owners):
        nonlocal types, columns
        block = np.vstack([priors[:, owners] * _evaluate(uu, new), owners == np.arange(n)[:, None],
                           system.entries(taken, owners, agent_levels(uu, new))])
        master.addCols(owners.size, np.zeros(owners.size), np.zeros(owners.size),
                       np.full(owners.size, np.inf), *_sparse(block.T))
        types, columns = np.r_[types, owners], np.vstack([columns, new])

    add_columns(np.vstack([np.tile(uu.c_hi, (n, 1)), np.tile(uu.c_lo, (n, 1)), last["c"]]),
                np.tile(np.arange(n), 3))
    add_rows(np.flatnonzero(working))
    while True:
        master.run()
        if master.getModelStatus() != HighsModelStatus.kOptimal:
            return result(hi, bound, trace)
        solution = master.getSolution()
        # the LP's own weights, those negative within its tolerance included,
        # so that x meets the rows as the LP reads them
        x = np.zeros((n, m))
        np.add.at(x, types, np.asarray(solution.col_value)[1:, None] * columns)
        x = np.clip(x, uu.c_lo, uu.c_hi)
        value = principal_value(uu, Mechanism(x))[0]
        outside = system.residual(x) < floor
        outside[taken] = False
        violated = np.flatnonzero(outside)
        joining = np.zeros(n, dtype=bool)
        if bound - value > opts.tol and len(trace) < opts.max_iters:
            # price at the master's duals: lam on the prior rows, mu on the
            # taken rows, pi on the mixing rows
            duals = np.asarray(solution.row_dual)
            dual(np.r_[duals[:k], duals[k + n:]], *system.rows(taken))
            s, g, c = last["s"], last["g"], last["c"]
            trace.append((len(trace) + 1, last["bound"]))
            bound = min(bound, last["bound"] + _inner_slack(faces, s, g, c))
            gains = s * last["values"] + (g * c).sum(axis=1)
            joining = (bound - value > opts.tol) & (gains + duals[k:k + n] > 0.0)
        if not (violated.size or joining.any()):
            return result(x, bound, trace)
        add_rows(violated)
        add_columns(last["c"][joining], np.flatnonzero(joining))


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
    return _evaluate(uu, contracts)


def enumerate_best_assignment(
    contracts: np.ndarray,
    uu: UtilityUnitsInstance,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float, int]:
    """Exhaustively search type->contract assignments for the robust optimum.

    Returns (assignment indices, robust value, number of assignments). Only
    assignments passing the IC/IR rows at `tol` count; ties resolve to the
    lexicographically smallest index tuple. Raises SizeCapError when the
    assignment count exceeds HARD_ASSIGNMENT_CAP, before anything is built.

    Still plain enumeration under the same rows, but a row is applied as
    soon as its two types are assigned: type j draws only from the
    contracts passing its IR row, and a prefix takes type k's candidate
    only if both IC rows between k and every earlier type hold, so no
    assignment failing a row is ever built. Prefixes extend depth-first in
    blocks of at most _CHUNK (prefix, candidate) cells, in lexicographic
    order, and only a strictly better value replaces the incumbent. The
    count returned is the size of the space covered, n_contracts^types, not
    the number of assignments that survive the rows.
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
    e_mat = agent_levels(uu, contracts)    # (n, G): agent value of each contract
    values = contract_values(uu, contracts)
    reservation = np.asarray(uu.reservation, dtype=float)
    priors = inst.beliefs.priors
    penalties = inst.beliefs.penalties
    candidates = [np.flatnonzero(e_mat[j] >= reservation[j] - tol) for j in range(n)]

    best_val = -np.inf
    best_idx: np.ndarray | None = None

    def extend(prefix: np.ndarray) -> None:
        # prefix: (P, k) index rows in lexicographic order, each passing the
        # rows among types 0..k-1
        nonlocal best_val, best_idx
        k = prefix.shape[1]
        if k == n:
            # numpy hands a one-row product to BLAS's matrix-vector kernel,
            # which can round the last bit unlike the matrix-matrix kernel
            # that evaluates a row among others; a repeated row keeps a lone
            # survivor of a larger space on the latter
            idx = prefix[[0, 0]] if prefix.shape[0] == 1 and count > 1 else prefix
            # the worst prior's total, one np.minimum per prior column: on this
            # C-ordered (P, k) array .min(axis=1) would loop k entries per row
            robust = reduce(np.minimum, (values[idx] @ priors.T + penalties).T)
            local = int(np.argmax(robust))
            if robust[local] > best_val:
                best_val = float(robust[local])
                best_idx = idx[local].copy()
            return
        cand = candidates[k]
        rows = max(1, _CHUNK // max(cand.size, 1))
        for r0 in range(0, prefix.shape[0], rows):
            block = prefix[r0:r0 + rows]
            for c0 in range(0, cand.size, _CHUNK):
                g = cand[c0:c0 + _CHUNK]
                ok = np.ones((block.shape[0], g.size), dtype=bool)
                for j in range(k):
                    ok &= e_mat[j, block[:, j], None] >= e_mat[j, g] - tol
                    ok &= e_mat[k, g] >= e_mat[k, block[:, j], None] - tol
                r, c = ok.nonzero()
                if r.size:
                    extend(np.column_stack([block[r], g[c]]))

    extend(np.empty((1, 0), dtype=np.intp))
    if best_idx is None:
        raise ValidationError(["no feasible assignment among the candidate contracts"])
    return best_idx, best_val, count


def grid_oracle(uu: UtilityUnitsInstance, levels_per_atom: int) -> OracleResult:
    """Exact robust optimum over the grid of per-atom contract levels.

    Independent of the dual solver: plain enumeration filtered by the
    constraint rows. The assignment count levels^(atoms*types) must stay
    within HARD_ASSIGNMENT_CAP, checked before the grid is built; the error
    carries the computed count, and `assignments` reports it.
    """
    n, m = uu.n_types, uu.n_atoms
    count = levels_per_atom ** (m * n)
    if count > HARD_ASSIGNMENT_CAP:
        raise SizeCapError(
            f"{count} grid assignments (levels={levels_per_atom}, atoms={m}, "
            f"types={n}) exceed the cap {HARD_ASSIGNMENT_CAP}"
        )
    contracts = grid_contracts(uu, levels_per_atom)
    best_idx, _, covered = enumerate_best_assignment(contracts, uu, tol=DEFAULT_TOL)
    mech = Mechanism(contracts[best_idx])
    report = check_mechanism(build_system(uu), mech, DEFAULT_TOL)
    value, worst = principal_value(uu, mech)
    return OracleResult(mech, value, worst, covered, report)
