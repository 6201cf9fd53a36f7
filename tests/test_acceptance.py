"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

import math

import numpy as np

import rcl
from rcl.cli import RunConfig, run
from rcl.market import ENTROPY_AGENT_GIVEN_REF, ENTROPY_REF_GIVEN_AGENT

from conftest import make_instance, random_contracts, random_mechanisms


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_menu_mechanism_equivalence():
    # 25 seeded random instances; menu and mechanism optima agree to 1e-9
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for _ in range(25):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        n_priors = int(rng.integers(1, 4))
        inst = make_instance(rng, m=m, n=n, n_priors=n_priors, random_penalties=True)
        uu = rcl.to_utility_units(inst)
        n_candidates = int(rng.integers(4, 7))
        candidates = random_contracts(rng, uu, n_candidates)
        candidates[0] = uu.c_hi  # the always-participating fallback contract
        report = rcl.equivalence_check(candidates, uu)
        assert report.gap <= 1e-9, report.to_json()
        worst_gap = max(worst_gap, report.gap)
    _report(1, "menu vs mechanism equivalence", f"worst gap {worst_gap:.2e}")


def _random_market(rng, n_drifts, n_nodes=20):
    nodes, weights = rcl.discretize_terminal(1.0, n_nodes)
    drifts = [
        rcl.DriftType(label=f"t{k}", values=rng.uniform(-1.5, 1.5, n_nodes))
        for k in range(n_drifts)
    ]
    return rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                           drift_types=drifts)


def test_criterion_2_cara_closed_form():
    rng = np.random.default_rng(202)
    model = _random_market(rng, 20)
    worst = 0.0
    for k in range(20):
        e_a = rng.uniform(0.5, 1.5, 20)
        alpha = float(rng.uniform(0.5, 3.0))
        density = rcl.tilted_density(model, k)
        [oracle] = rcl.verify_budget_optimality([density], e_a, rcl.cara(alpha))
        gap = abs(oracle - rcl.cara_optimal(density, e_a, alpha)[1])
        assert gap <= 1e-7
        worst = max(worst, gap)
    _report(2, "cara closed form vs multiplier oracle", f"worst gap {worst:.2e}")


def test_criterion_3_log_closed_form():
    rng = np.random.default_rng(303)
    model = _random_market(rng, 20)
    worst = 0.0
    for k in range(20):
        e_a = rng.uniform(0.5, 1.5, 20)
        density = rcl.tilted_density(model, k)
        x_star, utility = rcl.log_optimal(density, e_a)
        [oracle] = rcl.verify_budget_optimality([density], e_a, rcl.log_utility())
        gap = abs(oracle - utility)
        assert gap <= 1e-7
        worst = max(worst, gap)
        lhs = float(model.weights @ np.log(x_star))
        rhs = math.log(density.expect(e_a)) + rcl.relative_entropy(
            density, ENTROPY_REF_GIVEN_AGENT
        )
        assert abs(lhs - rhs) <= 1e-9
        assert abs(utility - rhs) <= 1e-9
    _report(3, "log closed form vs multiplier oracle", f"worst gap {worst:.2e}")


def test_criterion_4_transform_equivalence():
    # payoff-unit and utility-unit feasibility verdicts agree in 100% of cases
    rng = np.random.default_rng(404)
    total = 0
    for _ in range(10):
        inst = make_instance(rng, m=int(rng.integers(2, 4)), n=int(rng.integers(2, 4)))
        uu = rcl.to_utility_units(inst)
        system = rcl.build_system(uu)
        for mech in random_mechanisms(rng, uu, 50):
            linear_ok = rcl.check_mechanism(system, mech, tol=1e-8).feasible
            payoffs = np.stack(
                [rcl.from_utility_units(uu, row) for row in mech.assignment]
            )
            direct_ok = True
            for j, t in enumerate(inst.types):
                levels = [
                    rcl.expectation(inst.states, t, inst.u.value(inst.e_a + payoffs[k]))
                    for k in range(inst.n_types)
                ]
                if levels[j] < inst.reservation[j] - 1e-8:
                    direct_ok = False
                if any(levels[j] < levels[k] - 1e-8 for k in range(inst.n_types)):
                    direct_ok = False
            assert direct_ok == linear_ok
            total += 1
    assert total == 500
    _report(4, "transform preserves feasibility verdicts", "500/500 agree")


def test_criterion_5_solver_vs_oracle():
    # the solver certifies its gap, and the exact grid optimum never beats
    # the certified bound
    rng = np.random.default_rng(505)
    worst_gap = worst_excess = -np.inf
    for _ in range(20):
        inst = make_instance(rng, m=2, n=2)
        uu = rcl.to_utility_units(inst)
        opts = rcl.SolveOptions()
        res = rcl.solve_mechanism(uu, opts)
        assert res.converged and res.gap <= opts.tol
        system = rcl.build_system(uu)
        assert rcl.check_mechanism(system, res.mechanism, tol=1e-8).feasible
        oracle = rcl.grid_oracle(uu, 4)
        assert oracle.value <= res.bound + 1e-12
        worst_gap = max(worst_gap, res.gap)
        worst_excess = max(worst_excess, oracle.value - res.bound)
    _report(5, "certified solver vs grid oracle",
            f"worst gap {worst_gap:.2e}, worst oracle - bound {worst_excess:.2e}")


def test_criterion_6_robustness_monotonicity():
    # with zero penalties, a larger prior set can only lower the optimum
    rng = np.random.default_rng(606)
    for _ in range(10):
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
        res_wide = rcl.solve_mechanism(rcl.to_utility_units(wide))
        res_narrow = rcl.solve_mechanism(rcl.to_utility_units(inst))
        assert res_wide.converged and res_narrow.converged
        assert res_wide.value <= res_narrow.bound + 1e-12
    _report(6, "maxmin value monotone in the prior set")


def test_criterion_7_ae_checker():
    for gamma in (0.1, 0.5, 0.9):
        report = rcl.ae_check(rcl.crra(gamma))
        assert report.passed
        assert abs(report.estimate - gamma) <= 1e-3
    linear_report = rcl.ae_check(rcl.linear("half-line"))
    assert not linear_report.passed
    assert linear_report.estimate == 1.0
    _report(7, "asymptotic elasticity checker",
            "crra estimates match gamma, linear fails at exactly 1.0")


def test_criterion_8_entropy_identities():
    nodes, weights = rcl.discretize_terminal(1.0, 2)
    flat = rcl.MarketModel(
        horizon=1.0, nodes=nodes, weights=weights,
        drift_types=[rcl.DriftType(label="flat", values=np.zeros(2))],
    )
    d_flat = rcl.tilted_density(flat, 0)
    assert rcl.relative_entropy(d_flat, ENTROPY_AGENT_GIVEN_REF) == 0.0
    assert rcl.relative_entropy(d_flat, ENTROPY_REF_GIVEN_AGENT) == 0.0

    tilted = rcl.MarketModel(
        horizon=1.0, nodes=nodes, weights=weights,
        drift_types=[rcl.DriftType(
            label="worked", values=np.array([math.log(1.2), math.log(0.8)])
        )],
    )
    d = rcl.tilted_density(tilted, 0)
    h_pq = rcl.relative_entropy(d, ENTROPY_AGENT_GIVEN_REF)
    h_qp = rcl.relative_entropy(d, ENTROPY_REF_GIVEN_AGENT)
    # direct-summation oracles for the two-point worked densities
    assert abs(h_pq - 0.5 * (1.2 * math.log(1.2) + 0.8 * math.log(0.8))) < 1e-15
    assert abs(h_qp - (-0.5) * (math.log(1.2) + math.log(0.8))) < 1e-15
    assert round(h_pq, 5) == 0.02014
    assert round(h_qp, 5) == 0.02041
    _report(8, "relative entropy identities",
            f"worked values {h_pq:.5f} / {h_qp:.5f}")


def test_criterion_9_cli_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run(RunConfig(command="solve", preset="reinsurance_halfline",
                             max_iters=400, out=str(out)))
        assert code == 0
        outs.append(out)
    first, second = outs
    assert (first / "result.json").read_bytes() == (second / "result.json").read_bytes()
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
    _report(9, "cli byte-identical reruns")
