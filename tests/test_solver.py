"""Projected subgradient solver and the exhaustive grid oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import rcl
from rcl.errors import SizeCapError
from rcl.solver import _active_set_projection, _residual

from conftest import make_instance, make_uu


def single_type_instance(u, v, e_a, e_p, lo, hi, reservation=None, q=None, d=None):
    m = len(e_a)
    q = np.full(m, 1.0 / m) if q is None else np.asarray(q, float)
    d = np.ones(m) if d is None else np.asarray(d, float)
    return rcl.validate_instance(rcl.Instance(
        states=rcl.StateSpace(ref_prob=q),
        types=[rcl.AgentType(density=d, label="theta0")],
        principal_belief=rcl.AgentType(density=np.ones(m), label="p"),
        beliefs=rcl.BeliefSet(priors=[[1.0]], penalties=[0.0]),
        e_a=np.asarray(e_a, float),
        e_p=np.asarray(e_p, float),
        u=u,
        v=v,
        contract_lo=np.asarray(lo, float),
        contract_hi=np.asarray(hi, float),
        reservation=reservation,
    ))


def self_selected(rng, uu, count):
    weights = uu.base.type_weights()
    out = []
    for _ in range(count):
        pool = rng.uniform(uu.c_lo, uu.c_hi, size=(uu.n_types + 2, uu.n_atoms))
        picks = np.argmax(weights @ pool.T, axis=1)
        out.append(rcl.Mechanism(pool[picks]))
    return out


class TestPrincipalValue:
    def test_degenerate_ambiguity(self, rng):
        uu = make_uu(rng, n=1, n_priors=1)
        mech = rcl.Mechanism(np.tile(uu.c_hi, (1, 1)))
        values = rcl.principal_type_values(uu, mech)
        value, worst = rcl.principal_value(uu, mech)
        assert worst == 0
        assert value == pytest.approx(values[0], abs=0)

    def test_min_of_point_priors(self):
        beliefs = rcl.BeliefSet(priors=[[1.0, 0.0], [0.0, 1.0]], penalties=[0.0, 0.0])
        value, worst = beliefs.robust_value(np.array([1.0, 3.0]))
        assert (value, worst) == (1.0, 0)

    def test_penalty_shifts_but_keeps_argmin(self):
        beliefs = rcl.BeliefSet(priors=[[1.0, 0.0], [0.0, 1.0]], penalties=[0.0, 5.0])
        value, worst = beliefs.robust_value(np.array([1.0, 3.0]))
        assert (value, worst) == (1.0, 0)

    def test_worst_case_consistency_exact(self, rng):
        for _ in range(20):
            uu = make_uu(rng, n=3, m=2, n_priors=3, random_penalties=True)
            mech = self_selected(rng, uu, 1)[0]
            values = rcl.principal_type_values(uu, mech)
            value, worst = rcl.principal_value(uu, mech)
            replay = float(np.dot(uu.base.beliefs.priors[worst], values))
            replay += uu.base.beliefs.penalties[worst]
            assert replay == value

    def test_half_line_principal_domain_error(self):
        # an upper contract bound beyond the principal's endowment pushes her
        # wealth negative, which a half-line utility must refuse
        inst = single_type_instance(
            rcl.log_utility(), rcl.crra(0.5),
            e_a=[1.0], e_p=[1.0], lo=[0.0], hi=[2.0],
        )
        uu = rcl.to_utility_units(inst)
        from rcl.errors import DomainError

        with pytest.raises(DomainError):
            rcl.principal_value(uu, rcl.Mechanism(np.tile(uu.c_hi, (1, 1))))

    def test_concavity_certificate(self, rng):
        for _ in range(25):
            uu = make_uu(rng, n=2, m=2)
            uu.base.reservation = np.full(uu.n_types, -10.0)
            a, b = self_selected(rng, uu, 2)
            lam = rng.uniform()
            blend = rcl.Mechanism(lam * a.assignment + (1 - lam) * b.assignment)
            v_blend, _ = rcl.principal_value(uu, blend)
            v_a, _ = rcl.principal_value(uu, a)
            v_b, _ = rcl.principal_value(uu, b)
            assert v_blend >= lam * v_a + (1 - lam) * v_b - 1e-9


class TestSolveMechanism:
    def test_binding_reservation_single_atom(self):
        # risk transfer is costly to the principal, so participation binds
        # and the optimum sits at the endowment utility level
        inst = single_type_instance(
            rcl.log_utility(), rcl.cara(1.0, "half-line"),
            e_a=[1.0], e_p=[2.0], lo=[-0.5], hi=[1.5],
        )
        uu = rcl.to_utility_units(inst)
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=4000))
        assert res.converged
        optimum = float(inst.v.value(2.0))  # wealth e_p after a zero transfer
        assert res.value <= optimum + 1e-12
        assert res.value == pytest.approx(optimum, abs=5e-3)
        assert res.mechanism.assignment[0, 0] == pytest.approx(0.0, abs=5e-3)

    def test_linear_principal_single_atom_exact(self):
        # value 2 - exp(c) with c >= 0: optimum at c = 0 with value 1
        inst = single_type_instance(
            rcl.log_utility(), rcl.linear(),
            e_a=[1.0], e_p=[1.0], lo=[0.0], hi=[1.0],
        )
        uu = rcl.to_utility_units(inst)
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=1500))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.mechanism.assignment[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_beats_oracle_on_random_instances(self, rng):
        for _ in range(5):
            uu = make_uu(rng, m=2, n=2)
            res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=1200))
            assert res.converged
            oracle = rcl.grid_oracle(uu, 4)
            assert res.value >= oracle.value - 1e-6

    def test_result_passes_check(self, rng):
        uu = make_uu(rng, m=3, n=2)
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=600))
        assert res.converged
        system = rcl.build_system(uu)
        assert rcl.check_mechanism(system, res.mechanism, tol=1e-8).feasible

    def test_never_below_feasible_seed(self, rng):
        for _ in range(5):
            uu = make_uu(rng, m=2, n=2)
            uu.base.reservation = np.full(uu.n_types, -10.0)
            seed = self_selected(rng, uu, 1)[0]
            system = rcl.build_system(uu)
            assert rcl.check_mechanism(system, seed).feasible
            seed_value, _ = rcl.principal_value(uu, seed)
            res = rcl.solve_mechanism(
                uu, rcl.SolveOptions(max_iters=50), seed_mechanism=seed
            )
            assert res.value >= seed_value - 1e-12

    def test_projection_failure_is_surfaced(self, rng):
        # an unreachable reservation (injected after validation) makes the
        # constraint polytope empty; the solver must say so, not guess
        uu = make_uu(rng, m=2, n=2)
        uu.base.reservation = uu.base.reservation + 100.0
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=20))
        assert not res.converged
        assert not res.feasibility.feasible

    def test_robustness_monotone_in_ambiguity(self, rng):
        # enlarging the prior set can only lower the maxmin optimum
        for _ in range(4):
            inst = make_instance(rng, m=2, n=2, n_priors=1)
            extra = rng.dirichlet(np.ones(2), size=2)
            wide = rcl.validate_instance(rcl.Instance(
                states=inst.states, types=inst.types,
                principal_belief=inst.principal_belief,
                beliefs=rcl.BeliefSet(
                    priors=np.vstack([inst.beliefs.priors, extra]),
                    penalties=np.zeros(3),
                ),
                e_a=inst.e_a, e_p=inst.e_p, u=inst.u, v=inst.v,
                contract_lo=inst.contract_lo, contract_hi=inst.contract_hi,
                reservation=inst.reservation,
            ))
            uu_narrow = rcl.to_utility_units(inst)
            uu_wide = rcl.to_utility_units(wide)
            res_wide = rcl.solve_mechanism(uu_wide, rcl.SolveOptions(max_iters=800))
            res_narrow = rcl.solve_mechanism(
                uu_narrow, rcl.SolveOptions(max_iters=800),
                seed_mechanism=res_wide.mechanism,
            )
            assert res_wide.value <= res_narrow.value + 1e-8

    def test_trace_recorded(self, rng):
        uu = make_uu(rng)
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=40))
        assert len(res.trace) == res.iterations
        iters, values, violations = zip(*res.trace)
        assert list(iters) == list(range(1, res.iterations + 1))
        assert max(violations) <= 1e-8


def projection_problem(seed, family, n, m):
    """Box and IC/IR rows of a random instance; hi is the pooling anchor."""
    uu = make_uu(np.random.default_rng(seed), m=m, n=n, family=family)
    a, b = rcl.build_system(uu).matrix_form()
    return np.tile(uu.c_lo, n), np.tile(uu.c_hi, n), a, b


def cold_project(y, start, lo, hi, a, b):
    """Projection started with an empty working set."""
    empty = np.zeros(b.size + 2 * y.size, dtype=bool)
    return _active_set_projection(y, start, lo, hi, a, b, empty)[0]


def outside_point(rng, lo, hi):
    return lo + (hi - lo) * rng.uniform(-0.5, 1.5, lo.size)


projection_cases = given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["log", "crra", "cara", "linear"]),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
)


class TestActiveSetProjection:
    @settings(max_examples=40, deadline=None)
    @projection_cases
    def test_output_feasible_and_optimal(self, seed, family, n, m):
        lo, hi, a, b = projection_problem(seed, family, n, m)
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(8):
            y = outside_point(rng, lo, hi)
            x = cold_project(y, hi, lo, hi, a, b)
            assert _residual(x, lo, hi, a, b) <= 1e-12
            pairs.append((y, x))
        # variational inequality against feasible points: the anchor and
        # the other projections
        feasible = [hi] + [x for _, x in pairs]
        for y, x in pairs:
            for z in feasible:
                assert (y - x) @ (z - x) <= 1e-9
        if lo.size <= 6:
            y, x = pairs[0]
            ref = minimize(
                lambda z: 0.5 * (z - y) @ (z - y), hi, jac=lambda z: z - y,
                bounds=list(zip(lo, hi)), method="SLSQP",
                constraints=[{"type": "ineq", "fun": lambda z: a @ z - b,
                              "jac": lambda z: a}],
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert np.linalg.norm(x - y) <= np.linalg.norm(ref.x - y) + 1e-9
            np.testing.assert_allclose(x, ref.x, atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @projection_cases
    def test_feasible_point_is_fixed(self, seed, family, n, m):
        lo, hi, a, b = projection_problem(seed, family, n, m)
        rng = np.random.default_rng(seed)
        z = cold_project(outside_point(rng, lo, hi), hi, lo, hi, a, b)
        np.testing.assert_allclose(cold_project(z, hi, lo, hi, a, b), z,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cold_project(hi, hi, lo, hi, a, b), hi)

    @settings(max_examples=40, deadline=None)
    @projection_cases
    def test_warm_start_matches_cold_start(self, seed, family, n, m):
        lo, hi, a, b = projection_problem(seed, family, n, m)
        rng = np.random.default_rng(seed)
        working = np.zeros(b.size + 2 * lo.size, dtype=bool)
        x, working, factors = _active_set_projection(
            outside_point(rng, lo, hi), hi, lo, hi, a, b, working
        )
        for _ in range(4):
            y = x + 0.2 * (hi - lo) * rng.standard_normal(x.size)
            # the solver's relaxation: the start is exactly feasible
            relaxed = np.minimum(b, a @ x)
            warm, next_working, next_factors = _active_set_projection(
                y, x, lo, hi, a, relaxed, working, factors
            )
            cold = cold_project(y, x, lo, hi, a, relaxed)
            np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-10)
            x, working, factors = warm, next_working, next_factors


class TestTabulatedAgent:
    def test_tabulated_utility_solves_like_its_closed_form(self):
        # a dense tabulation of the log utility must reproduce the log
        # instance's optimum through the whole transform/solve pipeline
        grid = np.geomspace(0.05, 6.0, 400)
        u_tab = rcl.UtilitySpec("tabulated", grid=grid, values=np.log(grid),
                                derivs=1.0 / grid)
        values = {}
        for label, u in (("log", rcl.log_utility()), ("tab", u_tab)):
            inst = single_type_instance(
                u, rcl.cara(1.0, "half-line"),
                e_a=[1.0, 1.2], e_p=[2.0, 1.8], lo=[-0.8, -0.9], hi=[1.5, 1.4],
                q=[0.5, 0.5], d=[1.2, 0.8],
            )
            uu = rcl.to_utility_units(inst)
            res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=800))
            assert res.converged
            values[label] = res.value
        assert values["tab"] == pytest.approx(values["log"], abs=1e-5)


class TestGridOracle:
    def test_single_cell_decreasing_objective_picks_floor(self):
        inst = single_type_instance(
            rcl.log_utility(), rcl.cara(1.0, "half-line"),
            e_a=[1.0], e_p=[2.0], lo=[-0.5], hi=[1.5],
            reservation=[float(np.log(0.5))],
        )
        uu = rcl.to_utility_units(inst)
        res = rcl.grid_oracle(uu, 3)
        assert res.mechanism.assignment[0, 0] == uu.c_lo[0]

    def test_identical_types_pool(self, rng):
        q = np.array([0.5, 0.5])
        d = np.array([1.3, 0.7])
        inst = rcl.validate_instance(rcl.Instance(
            states=rcl.StateSpace(ref_prob=q),
            types=[rcl.AgentType(density=d, label="a"),
                   rcl.AgentType(density=d.copy(), label="b")],
            principal_belief=rcl.AgentType(density=np.ones(2), label="p"),
            beliefs=rcl.BeliefSet(priors=[[0.5, 0.5]], penalties=[0.0]),
            e_a=np.array([1.0, 1.2]),
            e_p=np.array([2.0, 1.8]),
            u=rcl.log_utility(),
            v=rcl.cara(1.0, "half-line"),
            contract_lo=np.array([-0.8, -0.9]),
            contract_hi=np.array([1.6, 1.4]),
        ))
        uu = rcl.to_utility_units(inst)
        res = rcl.grid_oracle(uu, 3)
        np.testing.assert_array_equal(
            res.mechanism.assignment[0], res.mechanism.assignment[1]
        )

    def test_oracle_result_is_feasible_and_consistent(self, rng):
        uu = make_uu(rng, m=2, n=2)
        res = rcl.grid_oracle(uu, 4)
        assert res.converged
        assert res.feasibility.feasible
        values = rcl.principal_type_values(uu, res.mechanism)
        value, worst = uu.base.beliefs.robust_value(values)
        assert (value, worst) == (res.value, res.worst_prior)

    def test_cap_error_carries_count(self, rng):
        uu = make_uu(rng, m=2, n=2)
        with pytest.raises(SizeCapError, match="12960000"):
            rcl.grid_oracle(uu, 60)

    def test_enumeration_cap_error_carries_count(self, rng):
        # 3163**2 = 10,004,569 assignments, just over HARD_ASSIGNMENT_CAP
        uu = make_uu(rng, m=2, n=2)
        contracts = np.tile(uu.c_hi, (3163, 1))
        with pytest.raises(SizeCapError, match="10004569"):
            rcl.enumerate_best_assignment(contracts, uu)

    def test_oracle_is_exact_on_tiny_grid(self, rng):
        # cross-check the vectorized enumeration against a plain python loop
        import itertools

        uu = make_uu(rng, m=2, n=2)
        levels = 3
        contracts = rcl.grid_contracts(uu, levels)
        system = rcl.build_system(uu)
        best = -np.inf
        for combo in itertools.product(range(len(contracts)), repeat=uu.n_types):
            mech = rcl.Mechanism(contracts[list(combo)])
            if not rcl.check_mechanism(system, mech).feasible:
                continue
            value, _ = rcl.principal_value(uu, mech)
            best = max(best, value)
        res = rcl.grid_oracle(uu, levels)
        assert res.value == pytest.approx(best, abs=1e-12)
