"""Change of variables from payoff units to agent utility units.

Replacing a transfer x by the utility level c = u(e_a + x) turns the agent's
expected utility into the bilinear form sum_i q_i d_i c_i, which makes the
participation and truth-telling constraints linear. This module holds the
forward and inverse transform and the asymptotic-elasticity tail check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InconclusiveError, RangeError
from .model import (
    HALF_LINE,
    WEALTH_FLOOR,
    Instance,
    StateSpace,
    UtilitySpec,
    _utility_box,
)

# asymptotic-elasticity tail grid: AE_GRID_POINTS log-spaced wealth levels
# over [AE_Z_MAX / 1e4, AE_Z_MAX]; the check passes below 1 - AE_MARGIN
AE_Z_MAX = 1e6
AE_GRID_POINTS = 200
AE_MARGIN = 0.01


@dataclass
class UtilityUnitsInstance:
    """An Instance with its contract bounds mapped into utility units.

    c_lo/c_hi are the images of the payoff bounds under u(e_a + .), through
    `UtilitySpec.floored_value`: for half-line utilities wealth at both
    bounds is floored at WEALTH_FLOOR so the bounds stay finite. The atoms
    floored at the lower bound are listed in clamped_atoms.

    Construction (`to_utility_units`, `dataclasses.replace`) raises
    DomainError unless both utilities are defined on the whole box, by the
    face check `validate_instance` also runs (`model._utility_box`).
    Everything inside the box is then evaluated through the unchecked cores
    (`UtilitySpec._inverse`, `_value`, `_deriv_and_aversion`).
    """

    base: Instance
    c_lo: np.ndarray
    c_hi: np.ndarray
    clamped_atoms: list[int] = field(default_factory=list)

    def __post_init__(self):
        _utility_box(self.base, np.stack([self.c_lo, self.c_hi]))

    @property
    def states(self) -> StateSpace:
        return self.base.states

    @property
    def n_atoms(self) -> int:
        return self.base.n_atoms

    @property
    def n_types(self) -> int:
        return self.base.n_types

    @property
    def reservation(self) -> np.ndarray:
        return self.base.reservation

    def contains(self, c, tol: float = 1e-9) -> bool:
        """Whether every entry of c lies within its atom's bounds, up to tol
        times the widest bound range (at least 1). NaN entries never do."""
        span = max(float((self.c_hi - self.c_lo).max()), 1.0)
        return bool(np.all(c >= self.c_lo - tol * span)
                    and np.all(c <= self.c_hi + tol * span))


def to_utility_units(instance: Instance) -> UtilityUnitsInstance:
    """Map the payoff-unit contract bounds into utility units, pointwise."""
    wealth_lo = instance.e_a + instance.contract_lo
    floored = np.flatnonzero(wealth_lo < WEALTH_FLOOR) if instance.u.domain == HALF_LINE else []
    c_lo, c_hi = _utility_box(instance)
    return UtilityUnitsInstance(base=instance, c_lo=c_lo, c_hi=c_hi,
                                clamped_atoms=[int(i) for i in floored])


def from_utility_units(uu: UtilityUnitsInstance, c) -> np.ndarray:
    """Invert a utility-level contract back to a payoff vector x = u^-1(c) - e_a."""
    cc = np.asarray(c, dtype=float)
    if cc.shape != uu.c_lo.shape:
        raise RangeError(f"contract length {cc.size} does not match {uu.n_atoms} atoms")
    if not uu.contains(cc):
        raise RangeError("utility-level contract outside the transformed bounds")
    cc = np.clip(cc, uu.c_lo, uu.c_hi)
    return uu.base.u._inverse(cc) - uu.base.e_a


@dataclass
class AeReport:
    passed: bool
    estimate: float
    z_lo: float
    z_hi: float
    margin: float

    def to_json(self) -> dict:
        return asdict(self)


def ae_check(u: UtilitySpec) -> AeReport:
    """Numerical tail estimate of the asymptotic elasticity of u.

    Evaluates z * u'(z) / u(z) on the AE_GRID_POINTS-point logarithmic grid
    over [AE_Z_MAX/1e4, AE_Z_MAX] and passes iff the maximum stays below
    1 - AE_MARGIN. A heuristic, not a proof: the grid only samples the tail.
    Grid points where u <= 0 are skipped; if none is positive the ratio is
    undefined everywhere and the check is inconclusive.
    """
    z = np.geomspace(AE_Z_MAX / 1e4, AE_Z_MAX, AE_GRID_POINTS)
    vals = np.asarray(u.value(z), dtype=float)
    derivs = np.asarray(u.deriv(z), dtype=float)
    positive = vals > 0.0
    if not np.any(positive):
        raise InconclusiveError("utility not positive anywhere on the tail grid")
    ratios = z[positive] * derivs[positive] / vals[positive]
    estimate = float(ratios.max())
    return AeReport(
        passed=bool(estimate < 1.0 - AE_MARGIN),
        estimate=estimate,
        z_lo=float(z[0]),
        z_hi=float(z[-1]),
        margin=AE_MARGIN,
    )
