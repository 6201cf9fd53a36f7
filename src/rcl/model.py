"""Discretized model for contracting under adverse selection and ambiguity.

States are finitely many atoms carrying a reference probability q. Agent
types are densities d with respect to the reference measure, so every agent
expectation in the package reduces to the weighted dot product
sum_i q_i * d_i * x_i. An Instance bundles endowments, utility functions,
the ambiguity set over types and the contract bounds that the transform,
constraint, solver and menu modules consume.

It owns the rules the other modules share: `_load_json` reads every JSON
file the package reads and `_dumps` encodes every one it writes,
`_read_field` reads every field of the instance and market documents,
`UtilitySpec._deriv_and_aversion` is the one slope routine (u' and the
risk aversion), `UtilitySpec.floored_value` applies the half-line wealth
floor, `_utility_box` checks the utilities at the faces of the
utility-unit box, and `_row_dots` sums weighted rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import INFINITY, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

PROB_TOL = 1e-12       # reference probabilities must sum to 1 this tightly
DENSITY_TOL = 1e-10    # densities are user-entered decimals; looser on purpose
FEAS_TOL = 1e-9
WEALTH_FLOOR = 1e-8    # half-line wealth is floored here so utilities stay finite
INVERSE_ITERS = 100    # cap on the Newton steps of a tabulated utility's inverse

HALF_LINE = "half-line"
WHOLE_LINE = "whole-line"

CRRA = "crra"
LOG = "log"
CARA = "cara"
LINEAR = "linear"
TABULATED = "tabulated"

_DEFAULT_DOMAIN = {
    CRRA: HALF_LINE,
    LOG: HALF_LINE,
    CARA: WHOLE_LINE,
    LINEAR: WHOLE_LINE,
    TABULATED: HALF_LINE,
}


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError([f"{name} must be a one-dimensional array"])
    return arr


def _row_dots(matrix, vector) -> np.ndarray:
    """Σ_i matrix[..., i] · vector[..., i], broadcast over the leading axes.

    The products go into a C-ordered array and numpy sums each last-axis
    row with its pairwise routine (Higham §4.2), which depends only on the
    row: unlike a matrix product, an entry is bitwise the same alone, among
    other rows or in a broadcast batch, so a value re-evaluated on a subset
    of the rows reproduces exactly. (Without order="C" a Fortran-ordered
    operand would be summed across rows, one sequential add at a time.)"""
    return np.add.reduce(np.multiply(matrix, vector, order="C"), axis=-1)


def _dumps(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for a
    document whose dict keys are all str (a non-str key raises TypeError).

    With `indent` set, json encodes in pure Python; this walks the dicts,
    lists and tuples itself and writes the leaves by json's own rules: a
    float as its repr when finite (json.dumps writes NaN and the
    infinities), a str, key or value, through `encode_basestring_ascii`,
    the function json.dumps calls for one, and an int, bool or None
    through json.dumps. A list of floats formats only its distinct values,
    all by `float.__repr__` when their sum is finite: a market payoff list
    repeats a few values hundreds of times. 0.0 and -0.0 are one dict key,
    so a zero takes its own repr."""
    if isinstance(value, float):
        return float.__repr__(value) if abs(value) < INFINITY else json.dumps(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_dumps(value[key], inner)}"
                 for key in sorted(value)]
    elif set(map(type, value)) == {float}:
        distinct = dict.fromkeys(value)
        # a nan or an infinity among them makes the sum non-finite
        finite = abs(sum(distinct)) < INFINITY
        texts = dict(zip(distinct, map(float.__repr__ if finite else _dumps, distinct)))
        items = list(map(texts.__getitem__, value))
        if 0.0 in texts:
            items = [text if item else repr(item) for item, text in zip(value, items)]
    else:
        items = [_dumps(item, inner) for item in value]
    ends = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]


def _load_json(path):
    """The JSON document in the file at path; a malformed one raises
    ValidationError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError([f"invalid JSON in {path}: {exc}"]) from exc


_REQUIRED = object()


def _read_field(doc, key, convert=lambda value: value, default=_REQUIRED, where=""):
    """doc[key], or the default when it is missing, passed through convert.
    Errors name the field by its full path, `where` being doc's own: `missing
    field X`, or `X: <reason>` for a value convert rejects with TypeError or
    ValueError (`where: <reason>` when doc is not an object). A
    ValidationError from convert passes through."""
    name = f"{where}.{key}" if where else key
    try:
        value = doc[key]
    except KeyError:
        if default is _REQUIRED:
            raise ValidationError([f"missing field {name}"]) from None
        value = default
    except TypeError as exc:
        raise ValidationError([f"{where}: {exc}"]) from None
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError([f"{name}: {exc}"]) from None


def _label(value) -> str:
    """A label read from a document: a JSON string, which reports key on."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, not {value!r}")
    return value


@dataclass
class StateSpace:
    """Finite state space with strictly positive reference probabilities."""

    ref_prob: np.ndarray
    atoms: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.ref_prob = _as_float_array(self.ref_prob, "ref_prob")
        if self.ref_prob.size < 1:
            raise ValidationError(["state space needs at least one atom"])
        if not np.all(np.isfinite(self.ref_prob)):
            raise ValidationError(["reference probabilities must be finite"])
        if np.any(self.ref_prob <= 0.0):
            raise ValidationError(["reference probabilities must be strictly positive"])
        total = float(self.ref_prob.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError([f"reference probabilities sum to {total!r}, not 1"])
        if not self.atoms:
            self.atoms = [f"s{i}" for i in range(self.ref_prob.size)]
        if len(self.atoms) != self.ref_prob.size:
            raise ValidationError(["atom labels and ref_prob lengths differ"])

    @property
    def n_atoms(self) -> int:
        return self.ref_prob.size


@dataclass
class AgentType:
    """An agent type: a density vector with respect to the reference measure."""

    density: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.density = _as_float_array(self.density, "density")
        if np.any(self.density < 0.0) or not np.all(np.isfinite(self.density)):
            raise ValidationError([f"type {self.label or '?'}: density must be finite and >= 0"])

    def check_normalized(self, states: StateSpace) -> float:
        """Return |E_Q[d] - 1|; a valid density integrates to one under Q."""
        if self.density.size != states.n_atoms:
            raise DimensionError(
                f"type {self.label or '?'}: density length {self.density.size} "
                f"!= {states.n_atoms} atoms"
            )
        return abs(float(states.ref_prob @ self.density) - 1.0)


@dataclass
class UtilitySpec:
    """A utility function from a small parametric family, or tabulated.

    Families: crra (z^gamma / gamma, gamma in (0,1)), log, cara
    (1 - exp(-alpha z), alpha > 0), linear, and tabulated (monotone cubic
    through values, optionally with derivatives, on a strictly increasing
    grid). Evaluation, derivative and inverse are exposed; all three are
    vectorized over numpy arrays.
    """

    family: str
    domain: str = ""
    gamma: float | None = None
    alpha: float | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    derivs: np.ndarray | None = None

    def __post_init__(self):
        self.family = str(self.family).lower()
        violations = []
        if self.family not in _DEFAULT_DOMAIN:
            raise ValidationError([f"unknown utility family {self.family!r}"])
        if not self.domain:
            self.domain = _DEFAULT_DOMAIN[self.family]
        if self.domain not in (HALF_LINE, WHOLE_LINE):
            violations.append(f"unknown domain {self.domain!r}")
        if self.family == CRRA:
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                violations.append(f"crra requires gamma in (0,1), got {self.gamma!r}")
            self.domain = HALF_LINE
        if self.family == LOG:
            self.domain = HALF_LINE
        if self.family == CARA and (self.alpha is None or not 0.0 < self.alpha < np.inf):
            violations.append(f"cara requires a finite alpha > 0, got {self.alpha!r}")
        if self.family == TABULATED:
            violations.extend(self._init_tabulated())
        if violations:
            raise ValidationError(violations)

    def _init_tabulated(self) -> list[str]:
        out = []
        if self.grid is None or self.values is None:
            return ["tabulated utility needs grid and values"]
        self.grid = _as_float_array(self.grid, "grid")
        self.values = _as_float_array(self.values, "values")
        if self.grid.size != self.values.size or self.grid.size < 3:
            return ["tabulated grid/values must share a length >= 3"]
        if np.any(np.diff(self.grid) <= 0):
            out.append("tabulated grid must be strictly increasing")
        if np.any(np.diff(self.values) <= 0):
            out.append("tabulated values must be strictly increasing")
        scale = max(abs(self.values).max(), 1.0)
        slopes = np.diff(self.values) / np.diff(self.grid)
        if np.any(np.diff(slopes) > 1e-9 * scale):
            out.append("tabulated values must be concave on the grid")
        if self.derivs is not None:
            self.derivs = _as_float_array(self.derivs, "derivs")
            if self.derivs.size != self.grid.size:
                out.append("tabulated derivs length must match grid")
            elif np.any(self.derivs <= 0):
                out.append("tabulated derivatives must be strictly positive")
        if out:
            return out
        if self.grid[0] < 0:
            self.domain = WHOLE_LINE
        # scipy.interpolate is most of the package's import time, and only
        # tabulated utilities need it
        from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

        if self.derivs is not None:
            self._fwd = CubicHermiteSpline(self.grid, self.values, self.derivs)
        else:
            self._fwd = PchipInterpolator(self.grid, self.values)
        self._fwd_deriv = self._fwd.derivative()
        self._fwd_curvature = self._fwd.derivative(2)
        return out

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, z: np.ndarray) -> None:
        """Reject out-of-domain wealth; boundary noise within 1e-12 passes,
        and `_clip` takes it to 0 on the half line."""
        if self.family == LOG:
            if np.any(z <= 0.0):
                raise DomainError(f"log utility undefined at wealth {float(z.min())!r}")
        elif self.family == TABULATED:
            lo, hi = self.grid[0], self.grid[-1]
            pad = 1e-12 * max(hi - lo, 1.0)
            if np.any(z < lo - pad) or np.any(z > hi + pad):
                raise DomainError("tabulated utility evaluated outside its grid")
        elif self.domain == HALF_LINE:
            pad = 1e-12 * max(1.0, float(np.max(np.abs(z), initial=0.0)))
            if np.any(z < -pad):
                raise DomainError(
                    f"{self.family} utility on the half line undefined at {float(z.min())!r}"
                )

    def _clip(self, z: np.ndarray) -> np.ndarray:
        """Wealth as the closed forms take it: half-line noise below 0 at 0."""
        if self.domain == HALF_LINE and self.family not in (LOG, TABULATED):
            return np.maximum(z, 0.0)
        return z

    def value(self, z):
        zz = np.asarray(z, dtype=float)
        self._check_domain(zz)
        out = self._value(zz)
        return float(out) if np.ndim(z) == 0 else out

    def _value(self, z: np.ndarray) -> np.ndarray:
        """`value` without the domain check, for wealth between two wealths
        that passed it."""
        zz = self._clip(z)
        if self.family == CRRA:
            return np.power(zz, self.gamma) / self.gamma
        if self.family == LOG:
            return np.log(zz)
        if self.family == CARA:
            return 1.0 - np.exp(-self.alpha * zz)
        if self.family == LINEAR:
            return zz.copy()
        return self._fwd(np.clip(zz, self.grid[0], self.grid[-1]))

    def deriv(self, z):
        zz = np.asarray(z, dtype=float)
        self._check_domain(zz)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._deriv_and_aversion(zz)[0]
        return float(out) if np.ndim(z) == 0 else out

    def _deriv_and_aversion(self, z: np.ndarray):
        """The one slope routine: u'(z) and the absolute risk aversion
        -u''/u' at z, from one `_clip` and without the domain check, for
        wealth between two wealths that passed it. CARA's and linear's
        aversion is a float, log's is u''s array itself. CRRA and log give
        inf at wealth 0 unless the caller silences the warning."""
        zz = self._clip(z)
        if self.family == CRRA:
            return np.power(zz, self.gamma - 1.0), (1.0 - self.gamma) / zz
        if self.family == LOG:
            slope = 1.0 / zz
            return slope, slope
        if self.family == CARA:
            return self.alpha * np.exp(-self.alpha * zz), self.alpha
        if self.family == LINEAR:
            return np.ones_like(zz), 0.0
        zz = np.clip(zz, self.grid[0], self.grid[-1])
        slope = self._fwd_deriv(zz)
        return slope, -self._fwd_curvature(zz) / slope

    def inverse(self, y):
        """Wealth level attaining utility y; exact for the closed families."""
        yy = np.asarray(y, dtype=float)
        if self.family == CRRA and np.any(yy < 0.0):
            raise DomainError("crra utility level must be >= 0")
        if self.family == CARA and np.any(yy >= 1.0):
            raise DomainError("cara utility level must be < 1")
        if self.family == TABULATED:
            v_lo, v_hi = self.values[0], self.values[-1]
            pad = 1e-9 * max(v_hi - v_lo, 1.0)
            if np.any(yy < v_lo - pad) or np.any(yy > v_hi + pad):
                raise DomainError("tabulated utility level outside the tabulated range")
        out = self._inverse(yy)
        return float(out) if np.ndim(y) == 0 else out

    def _inverse(self, yy: np.ndarray) -> np.ndarray:
        """`inverse` without the level check, for levels between two that
        passed it."""
        if self.family == CRRA:
            return np.power(self.gamma * yy, 1.0 / self.gamma)
        if self.family == LOG:
            return np.exp(yy)
        if self.family == CARA:
            return -np.log1p(-yy) / self.alpha
        if self.family == LINEAR:
            return yy.copy()
        return self._spline_inverse(np.clip(yy, self.values[0], self.values[-1]))

    def _spline_inverse(self, y: np.ndarray) -> np.ndarray:
        """The root of f(z) = y for the tabulated spline f, entry by entry,
        for levels within the tabulated values.

        Each level lies between the values at two adjacent knots, which
        bracket its root, and f there is one cubic, read once from the
        spline's coefficients in s = z - (left knot) and evaluated with its
        slope by Horner's rule. Safeguarded Newton (Numerical Recipes'
        rtsafe) runs over every entry in place: the sign of f(z) - y moves
        the bracket, and the next point is the Newton point when it lies
        strictly inside, else the midpoint. An entry leaves the live mask
        once its Newton step is within brentq's tolerance 1e-13 + 4 eps |z|,
        taking that step clipped to its bracket; at the INVERSE_ITERS cap it
        keeps its last point. No entry's arithmetic reads another's, so its
        root does not depend on the entries beside it.
        """
        flat = np.ravel(y)
        knot = np.clip(np.searchsorted(self.values, flat), 1, self.values.size - 1)
        left, right = self.grid[knot - 1], self.grid[knot]
        v_left, v_right = self.values[knot - 1], self.values[knot]
        z = left + (flat - v_left) * ((right - left) / (v_right - v_left))
        c3, c2, c1, c0 = self._fwd.c[:, knot - 1]
        origin = left
        live = np.ones(flat.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(INVERSE_ITERS):
                if not live.any():
                    break
                s = z - origin
                miss = ((c3 * s + c2) * s + c1) * s + c0 - flat
                left, right = np.where(miss < 0.0, z, left), np.where(miss > 0.0, z, right)
                newton = z - miss / ((3.0 * c3 * s + 2.0 * c2) * s + c1)
                done = live & (np.abs(newton - z) <= 1e-13 + 8.9e-16 * np.abs(z))
                step = np.where((left < newton) & (newton < right), newton, 0.5 * (left + right))
                z = np.where(done, np.clip(newton, left, right), np.where(live, step, z))
                live &= ~done
        return z.reshape(np.shape(y))

    def floored_value(self, wealth) -> np.ndarray:
        """u at the wealth, floored at WEALTH_FLOOR on the half line."""
        return self.value(np.maximum(wealth, WEALTH_FLOOR) if self.domain == HALF_LINE else wealth)

    def domain_interval(self) -> tuple[float, float]:
        """Wealth interval on which the utility can be evaluated."""
        if self.family == TABULATED:
            return float(self.grid[0]), float(self.grid[-1])
        if self.family == LOG:
            return np.nextafter(0.0, 1.0), np.inf
        if self.domain == HALF_LINE:
            return 0.0, np.inf
        return -np.inf, np.inf

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        doc = {"family": self.family, "domain": self.domain}
        if self.gamma is not None:
            doc["gamma"] = self.gamma
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        if self.family == TABULATED:
            doc["grid"] = self.grid.tolist()
            doc["values"] = self.values.tolist()
            if self.derivs is not None:
                doc["derivs"] = self.derivs.tolist()
        return doc

    @classmethod
    def from_json(cls, doc: dict, where: str = "") -> "UtilitySpec":
        """The spec of a JSON object; `where` names the object in messages."""
        optional = ("domain", "gamma", "alpha", "grid", "values", "derivs")
        return cls(_read_field(doc, "family", where=where),
                   **{key: _read_field(doc, key, default=None, where=where) for key in optional})


def crra(gamma: float) -> UtilitySpec:
    return UtilitySpec(CRRA, gamma=gamma)


def log_utility() -> UtilitySpec:
    return UtilitySpec(LOG)


def cara(alpha: float, domain: str = WHOLE_LINE) -> UtilitySpec:
    return UtilitySpec(CARA, domain=domain, alpha=alpha)


def linear(domain: str = WHOLE_LINE) -> UtilitySpec:
    return UtilitySpec(LINEAR, domain=domain)


@dataclass
class BeliefSet:
    """Finite ambiguity set: priors over the type list plus penalty values.

    With all penalties zero this is plain worst-case (maxmin) evaluation;
    positive penalties give the variational form min_k { k . v + alpha(k) }.
    """

    priors: np.ndarray    # (n_priors, n_types)
    penalties: np.ndarray  # (n_priors,)

    def __post_init__(self):
        self.priors = np.atleast_2d(np.asarray(self.priors, dtype=float))
        self.penalties = _as_float_array(self.penalties, "penalties")
        violations = []
        if self.priors.shape[0] < 1:
            violations.append("belief set needs at least one prior")
        if self.penalties.size != self.priors.shape[0]:
            violations.append("one penalty per prior required")
        if not np.all(np.isfinite(self.priors)):
            violations.append("prior weights must be finite")
        elif np.any(self.priors < 0.0):
            violations.append("prior weights must be >= 0")
        sums = self.priors.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            violations.append("each prior must sum to 1")
        if not np.all(np.isfinite(self.penalties)):
            violations.append("penalties must be finite")
        if violations:
            raise ValidationError(violations)

    def robust_value(self, type_values: np.ndarray) -> tuple[float, int]:
        """min over priors of expected value plus penalty, and the lowest
        prior whose total is that minimum up to rounding.

        Per-prior sums go through `_row_dots`, so the value is bitwise the
        same whichever other type values are scored beside it (as
        `solve_menu` scores a block of menus at once). The value is the
        exact minimum of the computed totals. A total within gamma (|P| |v|
        + |pen|) of it, gamma = 2 (n_types + 1) eps, may be equal to it in
        exact arithmetic (Higham §3.1 bounds the rounding of each total),
        so the index is the lowest such prior: at a pooling vector, where
        every total is equal in exact arithmetic, it does not follow the
        summation order. Below the normal range a product's rounding error
        is absolute instead, at most half the smallest subnormal eta, so
        n_types * eta more covers both totals' products there. A nan total
        is the minimum, as for `np.argmin`."""
        type_values = np.asarray(type_values, dtype=float)
        totals = _row_dots(self.priors, type_values) + self.penalties
        idx = int(np.argmin(totals))
        fp = np.finfo(float)
        gamma = 2.0 * (type_values.size + 1) * fp.eps
        rounding = (gamma * (_row_dots(self.priors, np.abs(type_values)) + np.abs(self.penalties))
                    + type_values.size * fp.smallest_subnormal)
        tied = totals - rounding <= totals[idx]
        tied[idx] = True
        return float(totals[idx]), int(np.argmax(tied))


@dataclass
class Instance:
    """A full discretized contracting problem.

    Payoff bounds are in currency units per atom; in the half-line setting
    they are the no-short-sale bounds -e_a <= x <= e_p. The reservation
    vector holds one outside-option utility per type and defaults to the
    expected utility of the untouched endowment. Treated as immutable after
    validation.
    """

    states: StateSpace
    types: list[AgentType]
    principal_belief: AgentType
    beliefs: BeliefSet
    e_a: np.ndarray
    e_p: np.ndarray
    u: UtilitySpec
    v: UtilitySpec
    contract_lo: np.ndarray
    contract_hi: np.ndarray
    reservation: np.ndarray | None = None

    def __post_init__(self):
        self.e_a = _as_float_array(self.e_a, "e_a")
        self.e_p = _as_float_array(self.e_p, "e_p")
        self.contract_lo = _as_float_array(self.contract_lo, "contract_lo")
        self.contract_hi = _as_float_array(self.contract_hi, "contract_hi")
        if self.reservation is not None:
            self.reservation = _as_float_array(self.reservation, "reservation")

    @property
    def n_atoms(self) -> int:
        return self.states.n_atoms

    @property
    def n_types(self) -> int:
        return len(self.types)

    def type_weights(self) -> np.ndarray:
        """Row j holds q * d_j, the weights of type j's expectation."""
        return np.stack([self.states.ref_prob * t.density for t in self.types])

    def report_labels(self) -> list[str]:
        """The type names reports key on: the label, or type{j} when empty."""
        return [t.label or f"type{j}" for j, t in enumerate(self.types)]

    def principal_weights(self) -> np.ndarray:
        return self.states.ref_prob * self.principal_belief.density

    def to_json(self) -> dict:
        doc = {
            "states": {"atoms": self.states.atoms, "ref_prob": self.states.ref_prob.tolist()},
            "types": [{"label": t.label, "density": t.density.tolist()} for t in self.types],
            "principal_belief": {
                "label": self.principal_belief.label,
                "density": self.principal_belief.density.tolist(),
            },
            "beliefs": {
                "priors": self.beliefs.priors.tolist(),
                "penalties": self.beliefs.penalties.tolist(),
            },
            "e_a": self.e_a.tolist(),
            "e_p": self.e_p.tolist(),
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "bounds": {"lo": self.contract_lo.tolist(), "hi": self.contract_hi.tolist()},
        }
        if self.reservation is not None:
            doc["reservation"] = self.reservation.tolist()
        return doc


def expectation(states: StateSpace, agent_type: AgentType, payoff) -> float:
    """E_P[x] = sum_i q_i d_i x_i for the type's measure P."""
    x = np.asarray(payoff, dtype=float)
    if x.shape != (states.n_atoms,):
        raise DimensionError(
            f"payoff length {x.size} does not match {states.n_atoms} atoms"
        )
    if agent_type.density.size != states.n_atoms:
        raise DimensionError("type density length does not match the state space")
    return float(_row_dots(states.ref_prob * agent_type.density, x))


def _default_reservation(inst: Instance, violations: list[str]) -> np.ndarray | None:
    """Participation baseline: expected utility of the untouched endowment."""
    try:
        base = inst.u.floored_value(inst.e_a)
    except DomainError as exc:
        violations.append(f"cannot compute default reservation: {exc}")
        return None
    return _row_dots(inst.type_weights(), base)


def _spot_check_utility(u: UtilitySpec, lo: float, hi: float, tag: str, violations: list[str]):
    """Sample the utility on a grid and confirm it is increasing and concave."""
    dom_lo, dom_hi = u.domain_interval()
    lo, hi = max(lo, dom_lo), min(hi, dom_hi)
    if hi <= lo:
        hi = lo + 1.0
    z = np.linspace(lo, hi, 65)
    try:
        with np.errstate(over="ignore"):  # the finiteness check below reports it
            vals = u.value(z)
    except DomainError as exc:
        violations.append(f"{tag}: {exc}")
        return
    if not np.all(np.isfinite(vals)):
        violations.append(f"{tag}: utility not finite on [{lo:g}, {hi:g}]")
        return
    scale = max(float(np.abs(vals).max()), 1.0)
    if np.any(np.diff(vals) <= 0.0):
        violations.append(f"{tag}: utility not strictly increasing on [{lo:g}, {hi:g}]")
    slopes = np.diff(vals) / np.diff(z)
    if np.any(np.diff(slopes) > 1e-9 * scale):
        violations.append(f"{tag}: utility not concave on [{lo:g}, {hi:g}]")


def _utility_box(inst: Instance, faces=None) -> np.ndarray:
    """The contract box in utility units as a (2, m) array, lower face then
    upper: u(e_a + x) at the payoff bounds through `floored_value`, unless
    the faces are given.

    Raises DomainError, naming the utility, unless the faces are finite
    (u overflows to -inf far below the agent's endowment), both utilities
    are defined on the whole box and the principal's value is finite there,
    checked at its two faces: u^-1 is increasing, so the agent's wealth
    u^-1(c) and the principal's e_p + e_a - u^-1(c) at every c in the box
    lie between their values there. The principal's wealth goes through the
    solver's own round trip u^-1(u(.)).
    """
    try:
        if faces is None:
            bounds = np.stack([inst.contract_lo, inst.contract_hi])
            with np.errstate(over="ignore"):
                faces = inst.u.floored_value(inst.e_a + bounds)
        if not np.all(np.isfinite(faces)):
            raise DomainError("not finite at the contract bounds")
        agent = inst.u.inverse(faces)
        inst.u._check_domain(agent)
    except DomainError as exc:
        raise DomainError(f"agent utility: {exc}") from None
    try:
        with np.errstate(over="ignore"):
            principal = inst.v.value(inst.e_p + inst.e_a - agent)  # `deriv` shares this check
    except DomainError as exc:
        raise DomainError(f"principal utility: {exc}") from None
    if not np.all(np.isfinite(principal)):
        raise DomainError("principal utility: not finite on the contract box")
    return faces


def _check_instance(inst: Instance) -> list[str]:
    violations: list[str] = []
    m = inst.n_atoms
    if inst.n_types == 0:
        violations.append("type set is empty")
    labels = inst.report_labels()
    if len(set(labels)) != len(labels):
        violations.append(f"type labels {labels} are not distinct")
    for t in inst.types + [inst.principal_belief]:
        try:
            gap = t.check_normalized(inst.states)
        except DimensionError as exc:
            violations.append(str(exc))
            continue
        if gap > DENSITY_TOL:
            violations.append(
                f"type {t.label or '?'}: density not normalized (|E_Q[d]-1| = {gap:.3e})"
            )
    if inst.beliefs.priors.shape[1] != inst.n_types:
        violations.append("prior length does not match the number of types")
    for name, vec in (("e_a", inst.e_a), ("e_p", inst.e_p),
                      ("contract_lo", inst.contract_lo), ("contract_hi", inst.contract_hi)):
        if vec.size != m:
            violations.append(f"{name} length {vec.size} does not match {m} atoms")
        elif not np.all(np.isfinite(vec)):
            violations.append(f"{name} contains non-finite entries")
    if inst.contract_lo.size == m and inst.contract_hi.size == m:
        if np.any(inst.contract_lo > inst.contract_hi):
            violations.append("contract_lo exceeds contract_hi on some atom")
    if violations:
        return violations

    wealth_hi = inst.e_a + inst.contract_hi
    if inst.u.domain == HALF_LINE:
        _spot_check_utility(inst.u, 1e-6, float(wealth_hi.max()), "agent utility", violations)
    else:
        span = float(np.abs(wealth_hi).max()) + 1.0
        _spot_check_utility(inst.u, -span, span, "agent utility", violations)
    w_span = float((inst.e_p + np.abs(inst.e_a)).max()) + 1.0
    if inst.v.domain == HALF_LINE:
        _spot_check_utility(inst.v, 1e-6, w_span, "principal utility", violations)
    else:
        _spot_check_utility(inst.v, -w_span, w_span, "principal utility", violations)

    if inst.reservation is None:
        inst.reservation = _default_reservation(inst, violations)
    elif inst.reservation.size != inst.n_types:
        violations.append("reservation length does not match the number of types")
    elif not np.all(np.isfinite(inst.reservation)):
        violations.append("reservation contains non-finite entries")

    if violations or inst.reservation is None:
        return violations

    # Both utilities must be defined on the whole box, and the agent-best
    # contract (its upper face) must clear every IR constraint, otherwise no
    # individually rational contract exists at all.
    try:
        c_best = _utility_box(inst)[1]
    except DomainError as exc:
        violations.append(str(exc))
        return violations
    levels = _row_dots(inst.type_weights(), c_best)
    for j, t in enumerate(inst.types):
        if levels[j] < inst.reservation[j] - FEAS_TOL:
            violations.append(
                f"no individually rational contract for type {t.label or j}"
            )
    return violations


def _instance_from_doc(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError([f"an instance must be a JSON object, not {type(doc).__name__}"])
    violations: list[str] = []

    def read(key, convert, default=_REQUIRED):
        try:
            return _read_field(doc, key, convert, default)
        except ValidationError as exc:
            violations.extend(exc.violations)

    def agent_type(entry, where, label):
        return AgentType(density=_read_field(entry, "density", where=where),
                         label=_read_field(entry, "label", _label, label, where))

    def agent_types(node):  # an object here would be walked by its keys
        if not isinstance(node, list) or not all(isinstance(t, dict) for t in node):
            raise ValidationError(["types must be a list of objects"])
        return [agent_type(t, f"types[{i}]", f"theta{i}") for i, t in enumerate(node)]

    def bound(key):  # a missing `bounds` is reported as its missing lo and hi
        return read("bounds", lambda n: _read_field(
            n, key, lambda x: _as_float_array(x, f"bounds.{key}"), where="bounds"), {})

    states = read("states", lambda n: StateSpace(
        ref_prob=_read_field(n, "ref_prob", where="states"),
        atoms=_read_field(n, "atoms", list, [], "states")))
    types = read("types", agent_types)
    belief = read("principal_belief", lambda n: agent_type(n, "principal_belief", "principal"))
    beliefs = read("beliefs", lambda n: BeliefSet(
        priors=_read_field(n, "priors", where="beliefs"),
        penalties=_read_field(n, "penalties", where="beliefs")))
    u = read("u", lambda n: UtilitySpec.from_json(n, "u"))
    v = read("v", lambda n: UtilitySpec.from_json(n, "v"))
    e_a = read("e_a", lambda n: _as_float_array(n, "e_a"))
    e_p = read("e_p", lambda n: _as_float_array(n, "e_p"))
    lo, hi = bound("lo"), bound("hi")
    reservation = (read("reservation", lambda n: _as_float_array(n, "reservation"))
                   if "reservation" in doc else None)

    if violations:
        # a non-object `bounds` fails its `lo` and `hi` reads alike
        raise ValidationError(list(dict.fromkeys(violations)))
    return Instance(
        states=states, types=types, principal_belief=belief, beliefs=beliefs,
        e_a=e_a, e_p=e_p, u=u, v=v, contract_lo=lo, contract_hi=hi,
        reservation=reservation,
    )


def validate_instance(raw) -> Instance:
    """Validate an instance description and return the checked Instance.

    Accepts an Instance (idempotent: the same object comes back), a dict in
    the documented JSON schema, or a path to a JSON file. Raises
    ValidationError carrying every violated invariant.
    """
    if isinstance(raw, Instance):
        inst = raw
    elif isinstance(raw, (str, Path)):
        inst = _instance_from_doc(_load_json(raw))
    elif isinstance(raw, dict):
        inst = _instance_from_doc(raw)
    else:
        raise ValidationError([f"cannot interpret {type(raw).__name__} as an instance"])
    violations = _check_instance(inst)
    if violations:
        raise ValidationError(violations)
    return inst


def load_instance(path) -> Instance:
    return validate_instance(path)


def save_instance(inst: Instance, path):
    Path(path).write_text(_dumps(inst.to_json()) + "\n")
