"""Robust contracting lab.

Discretized solver and verification toolkit for principal-agent contracting
under adverse selection and ambiguity: robust mechanism optimization over
linear participation/truth-telling constraints, exact menu optimization with
a menu-vs-mechanism equivalence certificate, and the closed-form
financial-market applications.
"""

from .constraints import (
    FeasibilityReport,
    LinearConstraintSystem,
    Mechanism,
    agent_levels,
    build_system,
    check_mechanism,
)
from .errors import (
    DimensionError,
    DomainError,
    InconclusiveError,
    NonConvergenceError,
    PreconditionError,
    RangeError,
    RclError,
    SizeCapError,
    ValidationError,
)
from .market import (
    DriftType,
    MarketModel,
    TiltedDensity,
    cara_optimal,
    clamped_linear_drift,
    delegation_income,
    delegation_value,
    discretize_terminal,
    log_optimal,
    market_model_from_json,
    relative_entropy,
    tilted_density,
    verify_budget_optimality,
)
from .menu import (
    EquivalenceReport,
    Menu,
    equivalence_check,
    extract_mechanism,
    menu_choices,
    solve_menu,
)
from .model import (
    AgentType,
    BeliefSet,
    Instance,
    StateSpace,
    UtilitySpec,
    cara,
    crra,
    expectation,
    linear,
    load_instance,
    log_utility,
    save_instance,
    validate_instance,
)
from .presets import build_preset, build_preset_bundle
from .solver import (
    OracleResult,
    SolveOptions,
    SolveResult,
    contract_values,
    enumerate_best_assignment,
    grid_contracts,
    grid_oracle,
    principal_value,
    solve_mechanism,
)
from .transform import (
    UtilityUnitsInstance,
    ae_check,
    from_utility_units,
    to_utility_units,
)

__version__ = "0.1.0"
