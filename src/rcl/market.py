"""Financial-market applications: tilted beliefs, closed forms, delegation.

The terminal Brownian value is discretized by Gauss-Hermite quadrature
scaled to variance T. Agent types are exponential tilts exp(f(W_T)) of the
reference law, always re-normalized numerically (the raw normalizer Z is
reported so the unnormalized identities can be audited). The CARA and log
budget-constrained optima, their utilities in terms of relative entropies,
and the principal's delegation income are implemented in closed form, with
an independent Lagrange-multiplier oracle for verification. Each type's
`TiltedDensity` is computed once by `tilted_density`; `_stack_densities`
stacks them as the rows of one (types, nodes) density. The entropies, the
closed forms and the delegation value take either a lone density or a
stack, and sum each row through `_row_dots`, so a row of the stack gives
bitwise the values of the lone density: `market_report` calls each of
them on the stack of all types, not once per type (the delegation value
once over (betas, types, nodes)). The oracle takes the densities of all types and finds their
budget multipliers together, by safeguarded Newton in log lambda, row by
row on their stack. A row stops once its Newton step is at most
1e-15 max(1, |log lambda|) or its bracket has collapsed, and a row still
moving at the ORACLE_STEPS cap raises NonConvergenceError.
Only this module reads the market document (`market_model_from_json`,
`market_report`), each field through `rcl.model`'s one field reader;
non-finite numbers and non-positive quadrature weights in it are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NonConvergenceError,
    RangeError,
    ValidationError,
)
from .model import CARA, LOG, UtilitySpec, _read_field, _row_dots, cara, log_utility

MAX_NODES = 200
BETA_MIN = 1e-3
ENTROPY_AGENT_GIVEN_REF = "P||Q"
ENTROPY_REF_GIVEN_AGENT = "Q||P"
ORACLE_STEPS = 200  # cap on each bracketing loop and the Newton loop of the oracle


@dataclass
class DriftType:
    """A market belief: drift primitive f evaluated on the terminal nodes.

    Only f(W_T) enters any implemented formula, so the function is carried
    by its node values. Nothing fixes f(0): a constant shift of f cancels
    when the density is normalized, and shows only in the normalizer Z.
    """

    label: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValidationError([f"drift type {self.label}: values must be finite"])


def clamped_linear_drift(label: str, nodes: np.ndarray, slope: float,
                         support: float) -> DriftType:
    """f(w) = slope * clip(w, -support, support): bounded, compactly sloped,
    and f(0) = 0 by construction."""
    if not support > 0.0:
        raise RangeError("support must be positive")
    values = slope * np.clip(nodes, -support, support)
    return DriftType(label=label, values=values)


@dataclass
class MarketModel:
    """Quadrature model of the terminal market state with candidate beliefs."""

    horizon: float
    nodes: np.ndarray
    weights: np.ndarray
    drift_types: list[DriftType] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        violations = []
        if not 0.0 < self.horizon < np.inf:
            violations.append("horizon must be positive and finite")
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            violations.append("nodes and weights must be 1-d arrays of equal length")
        elif not (np.all(np.isfinite(self.nodes)) and np.all(np.isfinite(self.weights))):
            violations.append("nodes and weights must be finite")
        else:
            if np.any(self.weights <= 0.0):
                violations.append("weights must be positive")
            if abs(self.weights.sum() - 1.0) > 1e-12:
                violations.append("weights must sum to 1")
            scale = max(float(np.max(np.abs(self.nodes), initial=0.0)), 1.0)
            if np.max(np.abs(self.nodes + self.nodes[::-1]), initial=0.0) > 1e-12 * scale:
                violations.append("nodes must be symmetric about 0")
        for d in self.drift_types:
            if d.values.shape != self.nodes.shape:
                violations.append(
                    f"drift type {d.label}: {d.values.size} values for "
                    f"{self.nodes.size} nodes"
                )
        if violations:
            raise ValidationError(violations)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


@cache
def _hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw m-node Gauss-Hermite rule, computed once per m and read-only:
    `hermgauss` costs milliseconds at m = MAX_NODES."""
    # imported here: numpy.polynomial adds about 3 ms to the import of rcl.cli
    from numpy.polynomial.hermite import hermgauss

    rule = hermgauss(m)
    for part in rule:
        part.flags.writeable = False
    return rule


def discretize_terminal(horizon: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for a N(0, horizon) terminal value.

    Nodes are exactly antisymmetric (mirrored from the positive half, middle
    node pinned to 0 for odd m) so odd weighted moments cancel pairwise.
    """
    if m < 2:
        raise RangeError("need at least two quadrature nodes")
    if m > MAX_NODES:
        raise RangeError(f"{m} nodes exceed the cap {MAX_NODES}")
    if not 0.0 < horizon < np.inf:
        raise RangeError("horizon must be positive and finite")
    x, w = _hermite_rule(m)
    nodes = np.sqrt(2.0 * horizon) * x
    weights = w / np.sqrt(np.pi)
    half = m // 2
    nodes[:half] = -nodes[m - half:][::-1]
    if m % 2:
        nodes[half] = 0.0
    weights[:half] = weights[m - half:][::-1]
    weights = weights / weights.sum()
    return nodes, weights


def weighted_moment(nodes: np.ndarray, weights: np.ndarray, k: int) -> float:
    """k-th weighted moment, summed mirror-pairwise so odd moments of a
    symmetric rule cancel exactly in floating point."""
    terms = weights * nodes**k
    m = terms.size
    half = m // 2
    total = float(terms[half]) if m % 2 else 0.0
    for i in range(half):
        total += terms[i] + terms[m - 1 - i]
    return total


def _per_row(total):
    """A per-row result: a float for a lone density, an array for a stack."""
    return float(total) if np.ndim(total) == 0 else total


def _column(value) -> np.ndarray:
    """A per-row value as a column, broadcast across the row's nodes."""
    return np.expand_dims(value, -1)


@dataclass
class TiltedDensity:
    """Numerically normalized exponential tilt of the reference weights.

    A lone density holds one type's values; a stack (`_stack_densities`)
    holds several types' as the rows of a (types, nodes) array, with one
    normalizer per row. Every function below takes either, works row by
    row and gives one result per row."""

    values: np.ndarray      # density per node, strictly positive
    normalizer: float | np.ndarray  # raw Z = E_Q[exp(f)]; Z = 1 means already a density
    weights: np.ndarray     # reference weights the density is taken against

    def expect(self, payoff: np.ndarray) -> float | np.ndarray:
        """Expectation of a node payoff under the tilted measure, per row."""
        payoff = np.asarray(payoff, dtype=float)
        if payoff.shape[-1:] != self.values.shape[-1:]:
            raise DimensionError("payoff length does not match the node grid")
        return _per_row(_row_dots(self.weights * self.values, payoff))


def tilted_density(model: MarketModel, f_index: int) -> TiltedDensity:
    """Density proportional to exp(f(W_T)), normalized against the quadrature,
    for drift type f_index in 0 .. len(model.drift_types) - 1."""
    if not 0 <= f_index < len(model.drift_types):
        raise DimensionError(f"no drift type with index {f_index}")
    f = model.drift_types[f_index].values
    if np.max(np.abs(f)) > 700.0:
        raise RangeError("drift values beyond +-700 would overflow exp")
    ef = np.exp(f)
    z = float(model.weights @ ef)
    return TiltedDensity(values=ef / z, normalizer=z, weights=model.weights.copy())


def _stack_densities(densities: list[TiltedDensity]) -> TiltedDensity:
    """The lone densities of one node grid as the rows of one density."""
    if any(d.values.shape != densities[0].values.shape for d in densities):
        raise DimensionError("densities must share one node grid")
    return TiltedDensity(values=np.stack([d.values for d in densities]),
                         normalizer=np.array([d.normalizer for d in densities]),
                         weights=np.stack([d.weights for d in densities]))


def relative_entropy(density: TiltedDensity, direction: str) -> float | np.ndarray:
    """Relative entropy between the tilted measure P and the reference Q.

    "P||Q" gives E_P[ln dP/dQ] = sum w d ln d; "Q||P" gives -sum w ln d.
    Both are nonnegative and vanish iff the density is identically one.
    """
    w, d = density.weights, density.values
    if direction == ENTROPY_AGENT_GIVEN_REF:
        return _per_row(_row_dots(w * d, np.log(d)))
    if direction == ENTROPY_REF_GIVEN_AGENT:
        return _per_row(-_row_dots(w, np.log(d)))
    raise RangeError(f"unknown entropy direction {direction!r}")


def cara_optimal(
    density: TiltedDensity, e_a: np.ndarray, alpha: float
) -> tuple[np.ndarray, float | np.ndarray]:
    """Budget-optimal payoff and utility of a CARA agent with belief density d.

    x* = -(1/alpha) ln d + E_f[e_a] + (1/alpha) H(P||Q) and the attained
    utility is 1 - exp(-alpha E_f[e_a] - H(P||Q)). The budget binds exactly:
    E_f[x* - e_a] = 0.
    """
    if alpha <= 0.0:
        raise RangeError("alpha must be positive")
    if not np.isfinite(alpha):
        raise RangeError("alpha must be finite")
    mean_endowment = density.expect(e_a)
    entropy = relative_entropy(density, ENTROPY_AGENT_GIVEN_REF)
    x_star = (-np.log(density.values) / alpha + _column(mean_endowment)
              + _column(entropy) / alpha)
    utility = 1.0 - np.exp(-alpha * mean_endowment - entropy)
    return x_star, _per_row(utility)


def log_optimal(
    density: TiltedDensity, e_a: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Budget-optimal payoff and utility of a log agent with belief density d.

    x* = E_f[e_a] / d (wealth proportional to the inverse state-price
    density) and the attained utility is ln E_f[e_a] + H(Q||P).
    """
    mean_endowment = density.expect(e_a)
    if np.any(mean_endowment <= 0.0):
        raise DomainError("log wealth needs E_f[e_a] > 0")
    x_star = _column(mean_endowment) / density.values
    utility = np.log(mean_endowment) + relative_entropy(density, ENTROPY_REF_GIVEN_AGENT)
    return x_star, _per_row(utility)


def delegation_income(
    density: TiltedDensity, x: np.ndarray, beta, e_a: np.ndarray
) -> np.ndarray:
    """Principal's per-node income from the log manager's optimal trading.

    With the agent keeping the beta-fraction of trading gains, the principal
    collects (1-beta)/beta * (E_f[e_a+x]/d - (e_a + x)) per node. The
    singular endpoint beta = 0 is excluded; beta below BETA_MIN is refused.
    beta may be an array of shares shaped to broadcast against the
    density's values, such as (betas, 1, 1) for a stack.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all((BETA_MIN <= beta) & (beta <= 1.0)):
        raise RangeError(f"beta must lie in [{BETA_MIN}, 1]")
    income = np.asarray(e_a, dtype=float) + np.asarray(x, dtype=float)
    mean_income = density.expect(income)
    if np.any(mean_income <= 0.0):
        raise DomainError("delegation needs E_f[e_a + x] > 0")
    return (1.0 - beta) / beta * (_column(mean_income) / density.values - income)


def delegation_value(
    density: TiltedDensity,
    x: np.ndarray,
    beta,
    e_a: np.ndarray,
    e_p: np.ndarray,
    v: UtilitySpec,
) -> float | np.ndarray:
    """Principal's expected utility, under the reference law, from delegating
    to the log manager with belief density d: one per beta and row."""
    w_star = delegation_income(density, x, beta, e_a)
    wealth = np.asarray(e_p, dtype=float) - np.asarray(x, dtype=float) + w_star
    return _per_row(_row_dots(density.weights, v.value(wealth)))


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _whole_number(value) -> int:
    """A JSON number without a fractional part (12 or 12.0), not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ValueError(f"must be a whole number, not {value!r}")
    return int(value)


def market_model_from_json(doc) -> MarketModel:
    """Build a MarketModel from its JSON form.

    The node grid comes either from an explicit "nodes"/"weights" pair
    (weights positive) or from "n_nodes" (a whole number) Gauss-Hermite
    points at the given horizon. Each drift type is either raw node values
    or the named clamped-linear family with slope and support parameters.
    A document that is not an object, or a missing or malformed field,
    raises ValidationError naming the field.
    """
    if not isinstance(doc, dict):
        raise ValidationError(
            [f"a market document must be a JSON object, not {type(doc).__name__}"]
        )
    if "nodes" in doc:
        nodes = _read_field(doc, "nodes", _array)
        weights = _read_field(doc, "weights", _array)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValidationError(["nodes and weights must be 1-d arrays of equal length"])
        horizon = _read_field(doc, "horizon", float, weighted_moment(nodes, weights, 2))
    else:
        horizon = _read_field(doc, "horizon", float, 1.0)
        n_nodes = _read_field(doc, "n_nodes", _whole_number, 12)
        nodes, weights = discretize_terminal(horizon, n_nodes)
    # the grid is checked before the drift types are evaluated on its nodes
    MarketModel(horizon=horizon, nodes=nodes, weights=weights)
    entries = _read_field(doc, "drift_types", default=[])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(["drift_types must be a list of objects"])
    drifts = []
    for i, entry in enumerate(entries):
        label = _read_field(entry, "label", default=f"f{i}")
        where = f"drift_types[{i}]"
        if "values" in entry:
            drifts.append(DriftType(label, _read_field(entry, "values", _array, where=where)))
        else:
            slope = _read_field(entry, "slope", float, where=where)
            support = _read_field(entry, "support", float,
                                  np.max(np.abs(nodes), initial=0.0), where)
            drifts.append(clamped_linear_drift(label, nodes, slope, support))
    return MarketModel(horizon=horizon, nodes=nodes, weights=weights, drift_types=drifts)


def _multiplier_payoff(u: UtilitySpec, density: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Pointwise first-order condition u'(x_i) = lam * d_i, inverted for x;
    one multiplier per row of `density`, broadcast as a (types, 1) column."""
    if u.family == CARA:
        return -np.log(lam * density / u.alpha) / u.alpha
    return 1.0 / (lam * density)  # log case


def verify_budget_optimality(
    densities: list[TiltedDensity], e_a: np.ndarray, u: UtilitySpec
) -> np.ndarray:
    """The budget-optimal utility by an oracle independent of the closed
    forms, one per density (all on one node grid); a caller checks
    `cara_optimal` or `log_optimal` by its gap to this.

    The oracle maximizes E_Q[u(x)] subject to E_f[x - e_a] <= 0 through
    the Lagrange multiplier lambda of the (binding) budget, with the
    pointwise first-order condition inverted per node (`_multiplier_payoff`).
    Each lambda is bracketed by steps of x4 and /4 from 1, then found by
    safeguarded Newton (Numerical Recipes' rtsafe, §9.4) in t = log lambda
    on the excess E_f[x] - E_f[e_a], which falls in t with slope
    -E_f[1/A(x)], A the absolute risk aversion: linear in t for CARA, where
    one step from the bracket's midpoint lands on the root, and convex in t
    for log (E_f[x] is e^-t times a constant), where Newton from the
    bracket's left end climbs to the root without overshooting it, so log
    rows start there. The sign of the excess moves the bracket;
    the next point is the Newton point when it lies strictly inside the
    bracket, else its midpoint. A row leaves the live mask once its Newton
    step is at most 1e-15 max(1, |t|), or once its bracket has collapsed to
    adjacent floats, and keeps that point. It runs on all densities at once
    as a (types, nodes) array, its sums through `_row_dots`, so each row
    steps and stops exactly as it would alone. ORACLE_STEPS caps each
    bracketing loop and the Newton loop: a row that cannot be bracketed, or
    that is still live at the cap, raises NonConvergenceError.
    """
    if u.family not in (CARA, LOG):
        raise RangeError("oracle supports cara and log utilities only")
    e_a = np.asarray(e_a, dtype=float)
    if not densities:
        return np.zeros(0)
    stack = _stack_densities(densities)
    weights, values = stack.weights, stack.values
    if e_a.shape != values.shape[1:]:
        raise DimensionError("payoff length does not match the node grid")
    measure = weights * values    # `TiltedDensity.expect` of every row at once
    target = _row_dots(measure, e_a)
    if u.family == LOG and np.any(target <= 0.0):
        raise DomainError("log wealth needs E_f[e_a] > 0")

    def excess(lam: np.ndarray) -> np.ndarray:
        payoff = _multiplier_payoff(u, values, lam[:, None])
        return _row_dots(measure, payoff) - target

    lam_lo, lam_hi = np.ones(len(densities)), np.ones(len(densities))
    for lam, bracketed, step in ((lam_lo, np.greater, np.divide),
                                 (lam_hi, np.less, np.multiply)):
        moving = np.ones(lam.size, dtype=bool)
        for _ in range(ORACLE_STEPS):
            moving &= ~bracketed(excess(lam), 0.0)
            if not moving.any():
                break
            step(lam, 4.0, out=lam, where=moving)
    if np.any(excess(lam_lo) <= 0.0) or np.any(excess(lam_hi) >= 0.0):
        raise NonConvergenceError("could not bracket the budget multiplier")
    t_lo, t_hi = np.log(lam_lo), np.log(lam_hi)
    t = t_lo.copy() if u.family == LOG else 0.5 * (t_lo + t_hi)
    live = np.ones(t.size, dtype=bool)
    for _ in range(ORACLE_STEPS):
        payoff = _multiplier_payoff(u, values, np.exp(t)[:, None])
        miss = _row_dots(measure, payoff) - target
        slope = -_row_dots(measure, 1.0 / u._deriv_and_aversion(payoff)[1])
        t_lo, t_hi = np.where(miss > 0.0, t, t_lo), np.where(miss > 0.0, t_hi, t)
        newton = t - miss / slope
        mid = 0.5 * (t_lo + t_hi)
        live &= ~(np.abs(newton - t) <= 1e-15 * np.maximum(1.0, np.abs(t)))
        live &= (t_lo < mid) & (mid < t_hi)
        if not live.any():
            break
        t = np.where(live, np.where((t_lo < newton) & (newton < t_hi), newton, mid), t)
    else:
        raise NonConvergenceError(
            f"{int(live.sum())} of {t.size} budget multipliers still moving "
            f"at the cap of ORACLE_STEPS = {ORACLE_STEPS} Newton steps")
    utility = u.value(payoff)
    return np.array([w @ row for w, row in zip(weights, utility)])


def _node_values(doc: dict, key: str, default: float, m: int) -> np.ndarray:
    """doc[key] as one finite value per node; a scalar is broadcast."""
    values = np.atleast_1d(_read_field(doc, key, _array, default))
    if values.size == 1:
        values = np.full(m, float(values[0]))
    if values.shape != (m,):
        raise ValidationError([f"{key} must be a scalar or one value per node ({m})"])
    if not np.all(np.isfinite(values)):
        raise ValidationError([f"{key} must be finite"])
    return values


def market_report(doc, alpha: float | None = None,
                  betas: tuple[float, ...] | None = None) -> dict:
    """The `rcl market` report of a market document: per drift type, the
    density's normalizer and entropies, the CARA and log closed forms with
    their oracle gaps, and the principal's CARA(1) delegation value at each
    beta for a zero transfer. Given alpha and betas win over the document's.
    Each closed form runs once, on the stack of all types' densities.
    """
    model = market_model_from_json(doc)
    m = model.n_nodes
    e_a = _node_values(doc, "e_a", 1.0, m)
    e_p = _node_values(doc, "e_p", 2.0, m)
    if alpha is None:
        alpha = _read_field(doc, "alpha", float, 1.0)
    if betas is None:
        betas = tuple(_read_field(doc, "beta", _array, 0.5).ravel().tolist())
    report = {"horizon": model.horizon, "n_nodes": m, "types": []}
    if not model.drift_types:  # nothing to evaluate, alpha and betas unchecked
        return report
    densities = [tilted_density(model, i) for i in range(len(model.drift_types))]
    stack = _stack_densities(densities)
    closed = {"cara": cara_optimal(stack, e_a, alpha), "log": log_optimal(stack, e_a)}
    delegation = delegation_value(stack, np.zeros(m), np.reshape(betas, (-1, 1, 1)),
                                  e_a, e_p, cara(1.0)).T.tolist()
    # one oracle run per utility over all types; cara(alpha) is built only
    # after cara_optimal has checked alpha
    forms = {}
    for form, u in (("cara", cara(alpha)), ("log", log_utility())):
        payoff, utility = closed[form]
        gap = np.abs(verify_budget_optimality(densities, e_a, u) - utility)
        forms[form] = [{"utility": uk, "payoff": xk, "oracle_gap": gk} for uk, xk, gk
                       in zip(utility.tolist(), payoff.tolist(), gap.tolist())]
    normalizer = stack.normalizer.tolist()
    normalizer_gap = np.abs(stack.normalizer - 1.0).tolist()
    h_pq = relative_entropy(stack, ENTROPY_AGENT_GIVEN_REF).tolist()
    h_qp = relative_entropy(stack, ENTROPY_REF_GIVEN_AGENT).tolist()
    labels = [repr(float(beta)) for beta in betas]
    report["types"] = [{
        "label": drift.label,
        "normalizer": normalizer[k],
        "normalizer_gap": normalizer_gap[k],
        "entropy_agent_ref": h_pq[k],
        "entropy_ref_agent": h_qp[k],
        "cara": forms["cara"][k],
        "log": forms["log"][k],
        "delegation": dict(zip(labels, delegation[k])),
    } for k, drift in enumerate(model.drift_types)]
    return report
