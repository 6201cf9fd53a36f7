"""Preset problem instances realizing the package's four applications.

Two reinsurance settings from one builder (a log agent on the half line
with a bounded principal, and a fixed CRRA(0.5) agent on the whole line,
which passes the asymptotic-elasticity screen) and two financial-market
settings. A market preset is a market document: `PresetBundle.market` is
in the README market schema, and the `market` command reads it with
`rcl.market.market_report` exactly as it reads a `--instance` file. The
market presets also encode the agents' indirect preferences: after optimal
trading, both the CARA and the log agent rank transfer contracts by
E_f[x], so the solver sees a linear agent utility with zero instance
endowment and zero reservation, which reproduces exactly the linear
participation and truth-telling characterization of the market
applications. That makes `cara_hedging` and `log_delegation` build
byte-identical documents and solver instances: only the `market` command
tells the two agents apart, and it reports the CARA and the log closed
forms for either name.

Parameters: `n_atoms`, `n_types`, `tilt`, `n_priors`, `penalty` (halfline);
`n_nodes`, `slopes` (market); none (wholeline). Everything else is a
constant; an unknown name is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .market import market_model_from_json, tilted_density
from .model import (
    HALF_LINE,
    WHOLE_LINE,
    AgentType,
    BeliefSet,
    Instance,
    StateSpace,
    cara,
    crra,
    linear,
    log_utility,
    validate_instance,
)


@dataclass
class PresetBundle:
    """A validated instance, plus the market document of a market preset."""

    instance: Instance
    market: dict | None = None


def _merge_params(defaults: dict, params: dict | None, name: str) -> dict:
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValidationError([f"preset {name} has no parameter {key!r}"])
        merged[key] = value
    return merged


def _tilt_types(q: np.ndarray, n_types: int, tilt: float) -> list[AgentType]:
    """Types around the reference measure: raised on low atoms vs high atoms."""
    m = q.size
    pattern = np.cos(np.pi * np.arange(m) / max(m - 1, 1))
    types = []
    for j in range(n_types):
        s = tilt * (2.0 * j / max(n_types - 1, 1) - 1.0) if n_types > 1 else 0.0
        raw = 1.0 + s * pattern
        types.append(AgentType(density=raw / (q @ raw), label=f"theta{j}"))
    return types


def _ambiguity(n_types: int, n_priors: int, penalty: float) -> BeliefSet:
    """Uniform prior plus point priors on the first types, optionally penalized."""
    priors = [np.full(n_types, 1.0 / n_types)]
    penalties = [0.0]
    for j in range(min(n_priors - 1, n_types)):
        point = np.zeros(n_types)
        point[j] = 1.0
        priors.append(point)
        penalties.append(penalty)
    return BeliefSet(priors=np.stack(priors), penalties=np.array(penalties))


def _reinsurance(m: int, n: int, tilt: float, n_priors: int, penalty: float,
                 e_p: np.ndarray, u, v, hi_scale: float) -> PresetBundle:
    """Uniform atoms, tilted types and endowment e_a = 1 + 0.25 i; the
    agent may give up all of e_a and receive up to hi_scale * e_p."""
    q = np.full(m, 1.0 / m)
    e_a = 1.0 + 0.25 * np.arange(m)
    inst = Instance(
        states=StateSpace(ref_prob=q),
        types=_tilt_types(q, n, tilt),
        principal_belief=AgentType(density=np.ones(m), label="principal"),
        beliefs=_ambiguity(n, n_priors, penalty),
        e_a=e_a,
        e_p=e_p,
        u=u,
        v=v,
        contract_lo=-e_a,
        contract_hi=hi_scale * e_p,
    )
    return PresetBundle(instance=validate_instance(inst))


def _reinsurance_halfline(params: dict | None) -> PresetBundle:
    p = _merge_params(
        {"n_atoms": 2, "n_types": 2, "tilt": 0.4, "n_priors": 2, "penalty": 0.0},
        params, "reinsurance_halfline",
    )
    m = int(p["n_atoms"])
    return _reinsurance(m, int(p["n_types"]), float(p["tilt"]), int(p["n_priors"]),
                        float(p["penalty"]), 2.0 - 0.8 * np.arange(m) / max(m, 2),
                        log_utility(), cara(1.0, HALF_LINE), 1.0)


def _reinsurance_wholeline(params: dict | None) -> PresetBundle:
    _merge_params({}, params, "reinsurance_wholeline")
    return _reinsurance(2, 2, 0.4, 2, 0.0, np.array([2.0, 2.5]), crra(0.5),
                        cara(0.5, WHOLE_LINE), 2.0)


def _slope_labels(slopes: list[float]) -> list[str]:
    """The labels `slope=+0.35` of the slopes, all printed to the fewest
    decimals, at least 2, that keep distinct slopes' labels distinct."""
    for digits in range(2, 18):
        labels = [f"slope={s:+.{digits}f}" for s in slopes]
        if len(set(labels)) >= len(set(slopes)):
            break
    return labels


def _market_bundle(params: dict | None, name: str) -> PresetBundle:
    p = _merge_params({"n_nodes": 12, "slopes": (0.0, 0.35, -0.35)}, params, name)
    slopes = np.atleast_1d(p["slopes"]).astype(float).tolist()
    market = {
        "horizon": 1.0,
        "n_nodes": int(p["n_nodes"]),
        "e_a": 1.0,
        "alpha": 1.0,
        "beta": [0.5],
        "drift_types": [
            {"label": label, "slope": s, "support": 2.0}
            for s, label in zip(slopes, _slope_labels(slopes))
        ],
    }
    model = market_model_from_json(market)
    nodes = model.nodes
    e_p = 2.0 - 0.4 * nodes  # the principal is exposed to the market
    market["e_p"] = e_p.tolist()
    types = [AgentType(density=tilted_density(model, i).values, label=drift.label)
             for i, drift in enumerate(model.drift_types)]
    m = model.n_nodes
    n = len(types)
    # Indirect preferences over transfers are monotone in E_f[x], so the
    # solver-facing instance uses a linear agent utility, zero endowment and
    # zero reservation (keeping x = 0 attains exactly the outside option).
    inst = Instance(
        states=StateSpace(ref_prob=model.weights, atoms=[f"w={w:+.4f}" for w in nodes]),
        types=types,
        principal_belief=AgentType(density=np.ones(m), label="reference"),
        beliefs=_ambiguity(n, 2, 0.0),
        e_a=np.zeros(m),
        e_p=e_p,
        u=linear(WHOLE_LINE),
        v=cara(1.0, WHOLE_LINE),
        contract_lo=np.full(m, -1.0),
        contract_hi=np.full(m, 1.0),
        reservation=np.zeros(n),
    )
    return PresetBundle(instance=validate_instance(inst), market=market)


_BUILDERS = {
    "reinsurance_halfline": _reinsurance_halfline,
    "reinsurance_wholeline": _reinsurance_wholeline,
    "cara_hedging": lambda params: _market_bundle(params, "cara_hedging"),
    "log_delegation": lambda params: _market_bundle(params, "log_delegation"),
}
PRESET_NAMES = tuple(_BUILDERS)


def build_preset_bundle(name: str, params: dict | None = None) -> PresetBundle:
    if name not in _BUILDERS:
        raise ValidationError(
            [f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"]
        )
    return _BUILDERS[name](params)


def build_preset(name: str, params: dict | None = None) -> Instance:
    """Construct and validate one of the named preset instances."""
    return build_preset_bundle(name, params).instance
