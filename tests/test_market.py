"""Market discretization, tilted beliefs, closed forms, delegation."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcl
from rcl.errors import (
    DimensionError,
    DomainError,
    NonConvergenceError,
    RangeError,
    ValidationError,
)
from rcl.market import (
    ENTROPY_AGENT_GIVEN_REF,
    ENTROPY_REF_GIVEN_AGENT,
    ORACLE_STEPS,
    weighted_moment,
)
from rcl.model import CARA, LOG
from rcl.presets import build_preset_bundle

ROOT = Path(__file__).resolve().parent.parent


def two_node_model(f_values=(0.0, 0.0), label="f"):
    nodes, weights = rcl.discretize_terminal(1.0, 2)
    drift = rcl.DriftType(label=label, values=np.array(f_values, dtype=float))
    return rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                           drift_types=[drift])


# the worked two-point density: exp-tilt values chosen so Z = 1 exactly
TILT_12_08 = (math.log(1.2), math.log(0.8))
# direct-summation oracles for the worked entropies
H_PQ_ORACLE = 0.5 * (1.2 * math.log(1.2) + 0.8 * math.log(0.8))
H_QP_ORACLE = -0.5 * (math.log(1.2) + math.log(0.8))


class TestDiscretize:
    def test_two_nodes_unit_horizon(self):
        nodes, weights = rcl.discretize_terminal(1.0, 2)
        np.testing.assert_array_equal(weights, [0.5, 0.5])
        np.testing.assert_allclose(nodes, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 31, 64])
    def test_mean_exactly_zero(self, m):
        nodes, weights = rcl.discretize_terminal(2.5, m)
        assert weighted_moment(nodes, weights, 1) == 0.0
        assert abs(float(weights @ nodes)) < 1e-14

    def test_variance_matches_horizon(self):
        nodes, weights = rcl.discretize_terminal(4.0, 10)
        assert weighted_moment(nodes, weights, 2) == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize("m", [7, 200])
    def test_mutating_a_rule_leaves_the_next_call_unchanged(self, m):
        # the raw rule is computed once per node count and kept read-only
        first = [part.tobytes() for part in rcl.discretize_terminal(1.5, m)]
        nodes, weights = rcl.discretize_terminal(1.5, m)
        nodes[:] = np.nan
        weights *= 2.0
        assert [part.tobytes() for part in rcl.discretize_terminal(1.5, m)] == first
        raw = rcl.market._hermite_rule(m)
        assert raw is rcl.market._hermite_rule(m)
        with pytest.raises(ValueError):
            raw[0][0] = 0.0

    def test_node_cap(self):
        with pytest.raises(RangeError):
            rcl.discretize_terminal(1.0, 201)
        with pytest.raises(RangeError):
            rcl.discretize_terminal(1.0, 1)
        with pytest.raises(RangeError):
            rcl.discretize_terminal(-1.0, 8)


class TestTiltedDensity:
    def test_flat_drift_gives_reference(self):
        model = two_node_model((0.0, 0.0))
        d = rcl.tilted_density(model, 0)
        np.testing.assert_array_equal(d.values, [1.0, 1.0])
        assert d.normalizer == 1.0

    def test_worked_two_point_tilt(self):
        model = two_node_model(TILT_12_08)
        d = rcl.tilted_density(model, 0)
        assert d.normalizer == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(d.values, [1.2, 0.8], atol=1e-15)

    def test_constant_tilt_cancels(self):
        model = two_node_model((1.0, 1.0))
        d = rcl.tilted_density(model, 0)
        np.testing.assert_array_equal(d.values, [1.0, 1.0])
        assert d.normalizer == pytest.approx(math.e, abs=1e-15)

    def test_overflow_guard(self):
        model = two_node_model((800.0, 0.0))
        with pytest.raises(RangeError):
            rcl.tilted_density(model, 0)

    # a negative index counted from the end once, so -1 gave the last type
    @pytest.mark.parametrize("index", [1, -1, -2])
    def test_index_out_of_range(self, index):
        with pytest.raises(DimensionError) as exc:
            rcl.tilted_density(two_node_model(), index)
        assert str(exc.value) == f"no drift type with index {index}"

    def test_clamped_linear_family(self):
        nodes, weights = rcl.discretize_terminal(1.0, 8)
        drift = rcl.clamped_linear_drift("s", nodes, slope=0.5, support=0.8)
        np.testing.assert_allclose(drift.values, 0.5 * np.clip(nodes, -0.8, 0.8))


class TestRelativeEntropy:
    def test_zero_iff_reference(self):
        model = two_node_model((0.0, 0.0))
        d = rcl.tilted_density(model, 0)
        assert rcl.relative_entropy(d, ENTROPY_AGENT_GIVEN_REF) == 0.0
        assert rcl.relative_entropy(d, ENTROPY_REF_GIVEN_AGENT) == 0.0

    def test_worked_values_to_five_decimals(self):
        model = two_node_model(TILT_12_08)
        d = rcl.tilted_density(model, 0)
        h_pq = rcl.relative_entropy(d, ENTROPY_AGENT_GIVEN_REF)
        h_qp = rcl.relative_entropy(d, ENTROPY_REF_GIVEN_AGENT)
        assert h_pq == pytest.approx(H_PQ_ORACLE, abs=1e-12)
        assert h_qp == pytest.approx(H_QP_ORACLE, abs=1e-12)
        assert round(h_pq, 5) == 0.02014
        assert round(h_qp, 5) == 0.02041

    @given(tilt=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    def test_nonnegative_both_directions(self, tilt):
        nodes, weights = rcl.discretize_terminal(1.0, 4)
        model = rcl.MarketModel(
            horizon=1.0, nodes=nodes, weights=weights,
            drift_types=[rcl.DriftType(label="t", values=np.array(tilt))],
        )
        d = rcl.tilted_density(model, 0)
        assert rcl.relative_entropy(d, ENTROPY_AGENT_GIVEN_REF) >= -1e-12
        assert rcl.relative_entropy(d, ENTROPY_REF_GIVEN_AGENT) >= -1e-12

    def test_unknown_direction(self):
        model = two_node_model()
        with pytest.raises(RangeError):
            rcl.relative_entropy(rcl.tilted_density(model, 0), "QQ")


class TestCaraOptimal:
    def test_no_tilt_keeps_endowment_value(self):
        model = two_node_model((0.0, 0.0))
        x, utility = rcl.cara_optimal(rcl.tilted_density(model, 0), np.ones(2), alpha=1.0)
        np.testing.assert_allclose(x, 1.0, atol=1e-14)
        assert utility == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_zero_endowment_zero_utility(self):
        model = two_node_model((0.0, 0.0))
        x, utility = rcl.cara_optimal(rcl.tilted_density(model, 0), np.zeros(2), alpha=2.0)
        np.testing.assert_allclose(x, 0.0, atol=1e-14)
        assert utility == pytest.approx(0.0, abs=1e-14)

    def test_worked_tilted_utility(self):
        # direct-summation oracle: 1 - exp(-alpha E_f[e_a] - H(P||Q))
        model = two_node_model(TILT_12_08)
        _, utility = rcl.cara_optimal(rcl.tilted_density(model, 0), np.ones(2), alpha=1.0)
        oracle = 1.0 - math.exp(-1.0 - H_PQ_ORACLE)
        assert utility == pytest.approx(oracle, abs=1e-12)
        assert utility == pytest.approx(0.639454, abs=1e-6)

    def test_budget_binds_and_utility_identity(self, rng):
        nodes, weights = rcl.discretize_terminal(1.0, 16)
        drifts = [rcl.DriftType(label=f"t{k}", values=rng.uniform(-1, 1, 16))
                  for k in range(5)]
        model = rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                                drift_types=drifts)
        e_a = rng.uniform(0.5, 1.5, 16)
        for k in range(5):
            alpha = float(rng.uniform(0.5, 3.0))
            x, utility = rcl.cara_optimal(rcl.tilted_density(model, k), e_a, alpha)
            d = rcl.tilted_density(model, k)
            assert d.expect(x - e_a) == pytest.approx(0.0, abs=1e-9)
            realized = float(weights @ (1.0 - np.exp(-alpha * x)))
            assert realized == pytest.approx(utility, abs=1e-9)


class TestLogOptimal:
    def test_no_tilt_keeps_endowment(self):
        model = two_node_model((0.0, 0.0))
        x, utility = rcl.log_optimal(rcl.tilted_density(model, 0), np.full(2, 2.0))
        np.testing.assert_allclose(x, 2.0, atol=1e-14)
        assert utility == pytest.approx(math.log(2.0), abs=1e-14)

    def test_worked_tilted_payoff(self):
        model = two_node_model(TILT_12_08)
        x, utility = rcl.log_optimal(rcl.tilted_density(model, 0), np.ones(2))
        np.testing.assert_allclose(x, [1.0 / 1.2, 1.0 / 0.8], atol=1e-12)
        assert utility == pytest.approx(H_QP_ORACLE, abs=1e-12)

    def test_budget_binds_exactly(self, rng):
        nodes, weights = rcl.discretize_terminal(1.0, 12)
        model = rcl.MarketModel(
            horizon=1.0, nodes=nodes, weights=weights,
            drift_types=[rcl.DriftType(label="t", values=rng.uniform(-1, 1, 12))],
        )
        e_a = rng.uniform(0.5, 1.5, 12)
        x, _ = rcl.log_optimal(rcl.tilted_density(model, 0), e_a)
        d = rcl.tilted_density(model, 0)
        assert d.expect(x - e_a) == pytest.approx(0.0, abs=1e-9)
        assert np.all(x > 0.0)

    def test_log_utility_identity(self, rng):
        nodes, weights = rcl.discretize_terminal(1.0, 12)
        model = rcl.MarketModel(
            horizon=1.0, nodes=nodes, weights=weights,
            drift_types=[rcl.DriftType(label="t", values=rng.uniform(-1, 1, 12))],
        )
        e_a = rng.uniform(0.5, 1.5, 12)
        x, utility = rcl.log_optimal(rcl.tilted_density(model, 0), e_a)
        d = rcl.tilted_density(model, 0)
        lhs = float(weights @ np.log(x))
        rhs = math.log(d.expect(e_a)) + rcl.relative_entropy(d, ENTROPY_REF_GIVEN_AGENT)
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert utility == pytest.approx(rhs, abs=1e-12)

    def test_nonpositive_endowment_rejected(self):
        model = two_node_model((0.0, 0.0))
        with pytest.raises(DomainError):
            rcl.log_optimal(rcl.tilted_density(model, 0), np.full(2, -1.0))


class TestDelegation:
    def test_full_share_means_no_income(self, rng):
        model = two_node_model(TILT_12_08)
        x = rng.uniform(-0.5, 0.5, 2)
        w_star = rcl.delegation_income(rcl.tilted_density(model, 0), x, beta=1.0,
                                       e_a=np.ones(2))
        np.testing.assert_array_equal(w_star, 0.0)
        value = rcl.delegation_value(rcl.tilted_density(model, 0), x, 1.0, np.ones(2),
                                     np.zeros(2), rcl.linear())
        direct = float(model.weights @ -x)
        assert value == pytest.approx(direct, abs=1e-12)

    def test_no_tilt_constant_endowment_no_income(self):
        model = two_node_model((0.0, 0.0))
        w_star = rcl.delegation_income(rcl.tilted_density(model, 0), np.zeros(2), beta=0.25,
                                       e_a=np.ones(2))
        np.testing.assert_allclose(w_star, 0.0, atol=1e-14)

    def test_worked_linear_value(self):
        # direct summation of ((1-b)/b)(E_f[e_a]/d - e_a) at b = 1/2:
        # 0.5/1.2 + 0.5/0.8 - 1 = 1/24
        model = two_node_model(TILT_12_08)
        value = rcl.delegation_value(rcl.tilted_density(model, 0), np.zeros(2), 0.5,
                                     np.ones(2), np.zeros(2), rcl.linear())
        assert value == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_beta_floor(self):
        model = two_node_model()
        with pytest.raises(RangeError):
            rcl.delegation_income(rcl.tilted_density(model, 0), np.zeros(2), beta=1e-4,
                                  e_a=np.ones(2))

    def test_beta_floor_in_a_sweep(self):
        model = two_node_model()
        with pytest.raises(RangeError):
            rcl.delegation_income(rcl.tilted_density(model, 0), np.zeros(2),
                                  beta=np.array([0.5, 1e-4]), e_a=np.ones(2))

    def test_rejects_non_positive_mean_income(self):
        # a transfer that takes the whole endowment leaves E_f[e_a + x] = 0
        with pytest.raises(DomainError) as exc:
            rcl.delegation_income(rcl.tilted_density(two_node_model(TILT_12_08), 0),
                                  -np.ones(2), beta=0.5, e_a=np.ones(2))
        assert str(exc.value) == "delegation needs E_f[e_a + x] > 0"


def lone_and_stacked(density, stack, k, e_a, e_p, x, betas, alpha):
    """Each closed form of the lone density, and row k of it on the stack."""
    v, column = rcl.cara(1.0), np.reshape(betas, (-1, 1, 1))
    pairs = [(rcl.relative_entropy(density, direction),
              rcl.relative_entropy(stack, direction)[k])
             for direction in (ENTROPY_AGENT_GIVEN_REF, ENTROPY_REF_GIVEN_AGENT)]
    for lone, stacked in ((rcl.cara_optimal(density, e_a, alpha),
                           rcl.cara_optimal(stack, e_a, alpha)),
                          (rcl.log_optimal(density, e_a), rcl.log_optimal(stack, e_a))):
        pairs += [(lone[0], stacked[0][k]), (lone[1], stacked[1][k])]
    swept = rcl.delegation_value(stack, x, column, e_a, e_p, v)
    pairs += [(rcl.delegation_value(density, x, beta, e_a, e_p, v), swept[b, k])
              for b, beta in enumerate(betas)]
    return pairs


class TestOnePath:
    """The report evaluates each closed form once on the stack of all types'
    densities; the public per-type calls run the same code on one row."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_drifts=st.integers(1, 16),
           n_nodes=st.integers(2, 200), spread=st.floats(0.01, 3.0),
           alpha=st.floats(0.1, 5.0))
    def test_lone_density_is_its_row_of_the_stack(self, seed, n_drifts, n_nodes, spread,
                                                   alpha):
        rng = np.random.default_rng(seed)
        densities = random_densities(rng, n_drifts, n_nodes, spread)
        stack = rcl.market._stack_densities(densities)
        e_a, e_p = rng.uniform(0.5, 1.5, n_nodes), rng.uniform(1.5, 2.5, n_nodes)
        x, betas = rng.uniform(-0.2, 0.2, n_nodes), [0.25, 0.5, 0.75, 1.0]
        for k, density in enumerate(densities):
            for lone, row in lone_and_stacked(density, stack, k, e_a, e_p, x, betas, alpha):
                assert np.asarray(lone).tobytes() == np.asarray(row).tobytes()

    def test_report_equals_the_per_type_functions(self):
        doc = build_preset_bundle("cara_hedging").market
        report = rcl.market.market_report(doc, betas=(0.25, 0.5, 1.0))
        model = rcl.market_model_from_json(doc)
        m, alpha = model.n_nodes, doc["alpha"]
        e_a = rcl.market._node_values(doc, "e_a", 1.0, m)
        e_p = rcl.market._node_values(doc, "e_p", 2.0, m)
        densities = [rcl.tilted_density(model, k) for k in range(len(model.drift_types))]
        gaps = {CARA: closed_form_gaps(densities, e_a, rcl.cara(alpha)),
                LOG: closed_form_gaps(densities, e_a, rcl.log_utility())}
        assert len(report["types"]) == len(densities) == 3
        for k, (entry, d) in enumerate(zip(report["types"], densities)):
            x_cara, u_cara = rcl.cara_optimal(d, e_a, alpha)
            x_log, u_log = rcl.log_optimal(d, e_a)
            assert entry == {
                "label": model.drift_types[k].label,
                "normalizer": d.normalizer,
                "normalizer_gap": abs(d.normalizer - 1.0),
                "entropy_agent_ref": rcl.relative_entropy(d, ENTROPY_AGENT_GIVEN_REF),
                "entropy_ref_agent": rcl.relative_entropy(d, ENTROPY_REF_GIVEN_AGENT),
                "cara": {"utility": u_cara, "payoff": x_cara.tolist(),
                         "oracle_gap": float(gaps[CARA][k])},
                "log": {"utility": u_log, "payoff": x_log.tolist(),
                        "oracle_gap": float(gaps[LOG][k])},
                "delegation": {
                    repr(beta): rcl.delegation_value(d, np.zeros(m), beta, e_a, e_p,
                                                     rcl.cara(1.0))
                    for beta in (0.25, 0.5, 1.0)},
            }

    def test_report_evaluates_each_closed_form_once(self, monkeypatch):
        doc = build_preset_bundle("cara_hedging").market
        calls = {}
        for name in ("cara_optimal", "log_optimal", "delegation_value",
                     "verify_budget_optimality"):
            def counted(*args, _name=name, _fn=getattr(rcl.market, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(rcl.market, name, counted)
        rcl.market.market_report(doc, betas=(0.25, 0.5, 0.75, 1.0))
        assert calls == {"cara_optimal": 1, "log_optimal": 1, "delegation_value": 1,
                         "verify_budget_optimality": 2}


def reference_budget_utility(density, e_a, u):
    """The budget oracle for one density, as a lone scalar safeguarded
    Newton in t = log lambda: the batched oracle must step and stop each of
    its rows exactly like this."""
    target = density.expect(e_a)

    def payoff(lam):
        if u.family == CARA:
            return -np.log(lam * density.values / u.alpha) / u.alpha
        return 1.0 / (lam * density.values)

    def excess(lam):
        return density.expect(payoff(lam)) - target

    lam_lo = lam_hi = 1.0
    for _ in range(ORACLE_STEPS):
        if excess(lam_lo) > 0.0:
            break
        lam_lo /= 4.0
    for _ in range(ORACLE_STEPS):
        if excess(lam_hi) < 0.0:
            break
        lam_hi *= 4.0
    assert excess(lam_lo) > 0.0 and excess(lam_hi) < 0.0
    t_lo, t_hi = np.log(lam_lo), np.log(lam_hi)
    # log's excess is convex in t: Newton climbs to the root from the left end
    t = t_lo if u.family == LOG else 0.5 * (t_lo + t_hi)
    for _ in range(ORACLE_STEPS):
        x = payoff(np.exp(t))
        miss = density.expect(x) - target
        # 1/A(x), A the absolute risk aversion
        tolerance = np.full_like(x, 1.0 / u.alpha) if u.family == CARA else 1.0 / (1.0 / x)
        slope = -density.expect(tolerance)
        if miss > 0.0:
            t_lo = t
        else:
            t_hi = t
        newton = t - miss / slope
        mid = 0.5 * (t_lo + t_hi)
        if abs(newton - t) <= 1e-15 * max(1.0, abs(t)) or not t_lo < mid < t_hi:
            break
        t = newton if t_lo < newton < t_hi else mid
    else:
        raise AssertionError("the lone Newton did not stop within ORACLE_STEPS")
    return float(density.weights @ u.value(x))


def closed_form_gaps(densities, e_a, u):
    """|oracle - closed form| per density, the gap `market_report` reports."""
    closed = [rcl.cara_optimal(d, e_a, u.alpha)[1] if u.family == CARA
              else rcl.log_optimal(d, e_a)[1] for d in densities]
    return np.abs(rcl.verify_budget_optimality(densities, e_a, u) - closed)


def random_densities(rng, n_drifts, n_nodes=20, spread=1.5):
    nodes, weights = rcl.discretize_terminal(1.0, n_nodes)
    drifts = [rcl.DriftType(label=f"t{k}", values=rng.uniform(-spread, spread, n_nodes))
              for k in range(n_drifts)]
    model = rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                            drift_types=drifts)
    return [rcl.tilted_density(model, k) for k in range(n_drifts)]


def preset_oracle_calls(monkeypatch, u):
    """The budget oracle under `u` on the log_delegation preset's densities:
    the multipliers of each `_multiplier_payoff` call of its Newton phase,
    and the number of calls in all."""
    doc = build_preset_bundle("log_delegation").market
    model = rcl.market_model_from_json(doc)
    densities = [rcl.tilted_density(model, k) for k in range(len(model.drift_types))]
    newton, calls = [], []
    payoff = rcl.market._multiplier_payoff

    def counted(*args):
        calls.append(args)
        # bracketing evaluates through the oracle's `excess` closure
        if sys._getframe(1).f_code.co_name == "verify_budget_optimality":
            newton.append(args[2])
        return payoff(*args)

    monkeypatch.setattr(rcl.market, "_multiplier_payoff", counted)
    rcl.verify_budget_optimality(densities, np.ones(model.n_nodes), u)
    return newton, len(calls)


class TestBudgetOracle:
    def test_no_tilt_cara_gap_tiny(self):
        model = two_node_model((0.0, 0.0))
        [gap] = closed_form_gaps([rcl.tilted_density(model, 0)], np.ones(2), rcl.cara(1.0))
        assert gap <= 1e-10

    def test_random_tilts_log(self, rng):
        densities = random_densities(rng, 5)
        gaps = closed_form_gaps(densities, rng.uniform(0.5, 1.5, 20), rcl.log_utility())
        assert gaps.shape == (5,) and np.all(gaps <= 1e-7)

    def test_random_tilts_cara(self, rng):
        densities = random_densities(rng, 5)
        gaps = closed_form_gaps(densities, rng.uniform(0.5, 1.5, 20), rcl.cara(2.0))
        assert gaps.shape == (5,) and np.all(gaps <= 1e-7)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_drifts=st.integers(1, 16),
           n_nodes=st.integers(2, 200), family=st.sampled_from([CARA, LOG]),
           spread=st.floats(0.01, 3.0), alpha=st.floats(0.1, 5.0))
    def test_bitwise_equal_to_scalar_newton(self, seed, n_drifts, n_nodes, family,
                                            spread, alpha):
        rng = np.random.default_rng(seed)
        densities = random_densities(rng, n_drifts, n_nodes, spread)
        e_a = rng.uniform(0.1, 3.0, n_nodes)
        u = rcl.cara(alpha) if family == CARA else rcl.log_utility()
        np.testing.assert_array_equal(
            rcl.verify_budget_optimality(densities, e_a, u),
            [reference_budget_utility(d, e_a, u) for d in densities])

    def test_no_densities_give_no_gaps(self):
        utilities = rcl.verify_budget_optimality([], np.ones(2), rcl.cara(1.0))
        assert utilities.shape == (0,)

    @pytest.mark.parametrize("u", [rcl.log_utility(), rcl.cara(1.0)], ids=["log", "cara"])
    def test_runs_no_closed_form(self, rng, monkeypatch, u):
        # the oracle checks the closed forms, so it must not call them
        def closed_form(*args):
            raise AssertionError("the oracle called a closed form")

        monkeypatch.setattr(rcl.market, "cara_optimal", closed_form)
        monkeypatch.setattr(rcl.market, "log_optimal", closed_form)
        assert rcl.verify_budget_optimality(random_densities(rng, 3), np.ones(20), u).shape == (3,)

    def test_rejects_unsupported_family(self):
        model = two_node_model()
        with pytest.raises(RangeError):
            rcl.verify_budget_optimality([rcl.tilted_density(model, 0)], np.ones(2),
                                         rcl.crra(0.5))

    def test_rejects_densities_on_different_grids(self, rng):
        densities = [*random_densities(rng, 1, 4), *random_densities(rng, 1, 6)]
        with pytest.raises(DimensionError):
            rcl.verify_budget_optimality(densities, np.ones(4), rcl.log_utility())

    def test_rejects_endowment_off_the_grid(self, rng):
        with pytest.raises(DimensionError):
            rcl.verify_budget_optimality(random_densities(rng, 2, 4), np.ones(5),
                                         rcl.cara(1.0))

    def test_log_rejects_non_positive_mean_endowment(self, rng):
        e_a = np.full(4, 1.0)
        e_a[0] = -50.0
        with pytest.raises(DomainError):
            rcl.verify_budget_optimality(random_densities(rng, 3, 4), e_a,
                                         rcl.log_utility())

    @pytest.mark.parametrize("u", [rcl.log_utility(), rcl.cara(1.0)], ids=["log", "cara"])
    def test_no_bracketing_steps_is_non_convergence(self, rng, monkeypatch, u):
        monkeypatch.setattr(rcl.market, "ORACLE_STEPS", 0)
        with pytest.raises(NonConvergenceError, match="could not bracket"):
            rcl.verify_budget_optimality(random_densities(rng, 3, 4), np.ones(4), u)

    def test_newton_cap_is_non_convergence(self, rng, monkeypatch):
        # 3 steps bracket every row of this draw, and Newton needs 6
        densities, e_a = random_densities(rng, 3, 4), rng.uniform(0.5, 1.5, 4)
        monkeypatch.setattr(rcl.market, "ORACLE_STEPS", 3)
        with pytest.raises(NonConvergenceError,
                           match=r"^3 of 3 budget multipliers .* ORACLE_STEPS = 3 "):
            rcl.verify_budget_optimality(densities, e_a, rcl.log_utility())

    def test_cara_newton_lands_in_one_step(self, monkeypatch):
        # the CARA excess is linear in log lambda: the Newton phase evaluates
        # the bracket's midpoint, then the root, where its step is ~0
        doc = build_preset_bundle("log_delegation").market
        newton, _ = preset_oracle_calls(monkeypatch, rcl.cara(doc["alpha"]))
        assert 1 <= len(newton) <= 2

    def test_log_newton_climbs_from_the_left_end(self, monkeypatch):
        # the log excess is convex in log lambda: from the bracket's left end
        # each row's multiplier rises to the root without overshooting it;
        # the oracle takes 13 payoff evaluations where a start at the
        # bracket's midpoint took 33
        newton, calls = preset_oracle_calls(monkeypatch, rcl.log_utility())
        assert calls <= 13
        assert np.all(np.diff(np.hstack(newton), axis=1) >= 0.0)

    def test_benchmark_market_gaps_at_rounding(self, tmp_path, monkeypatch):
        # the certify market documents of the benchmark, seeds 301-310:
        # 60 reports, 1,920 gaps
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
        spec.loader.exec_module(workloads)
        gaps = []
        for seed in range(301, 311):
            workloads.generate("certify", seed, tmp_path / str(seed))
            for path in sorted((tmp_path / str(seed)).glob("market_200x16_*.json")):
                report = rcl.market.market_report(json.loads(path.read_text()))
                gaps += [entry[form]["oracle_gap"] for entry in report["types"]
                         for form in ("cara", "log")]
        assert len(gaps) == 1920 and max(gaps) <= 1e-14


class TestMarketIncentiveRouting:
    def test_linear_rows_match_indirect_utilities(self, rng):
        # the assignment f -> x_f is truthful under the agents' indirect
        # utilities exactly when the linear rows E_f[x_f - x_g] >= 0 pass;
        # both tests must agree on 50 random market instances
        agreements = 0
        for _ in range(50):
            m = int(rng.integers(4, 9))
            nodes, weights = rcl.discretize_terminal(1.0, m)
            drifts = [rcl.DriftType(label=f"t{k}", values=rng.uniform(-1, 1, m))
                      for k in range(3)]
            model = rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                                    drift_types=drifts)
            densities = [rcl.tilted_density(model, k) for k in range(3)]
            e_a = rng.uniform(0.8, 1.2, m)
            alpha = float(rng.uniform(0.5, 2.0))
            contracts = rng.uniform(-0.5, 0.5, size=(3, m))

            inst = rcl.validate_instance(rcl.Instance(
                states=rcl.StateSpace(ref_prob=weights),
                types=[rcl.AgentType(density=d.values, label=f"f{k}")
                       for k, d in enumerate(densities)],
                principal_belief=rcl.AgentType(density=np.ones(m)),
                beliefs=rcl.BeliefSet(priors=np.full((1, 3), 1 / 3), penalties=[0.0]),
                e_a=np.zeros(m),
                e_p=np.full(m, 2.0),
                u=rcl.linear(),
                v=rcl.cara(1.0),
                contract_lo=np.full(m, -1.0),
                contract_hi=np.full(m, 1.0),
                reservation=np.full(3, -10.0),
            ))
            uu = rcl.to_utility_units(inst)
            report = rcl.check_mechanism(rcl.build_system(uu), rcl.Mechanism(contracts))
            linear_ok = report.max_ic_violation <= 1e-8
            indirect_ok = True
            for j in range(3):
                # indirect utility: the closed form at the income e_a + x
                own = rcl.cara_optimal(densities[j], e_a + contracts[j], alpha)[1]
                for k in range(3):
                    other = rcl.cara_optimal(densities[j], e_a + contracts[k], alpha)[1]
                    if own < other - 1e-10:
                        indirect_ok = False
            assert linear_ok == indirect_ok
            agreements += 1
        assert agreements == 50


class TestModelJson:
    def test_parametric_and_raw_drifts(self):
        doc = {
            "horizon": 1.0,
            "n_nodes": 6,
            "drift_types": [
                {"label": "flat", "slope": 0.0},
                {"label": "bull", "slope": 0.4, "support": 1.5},
                {"label": "raw", "values": [0.1, 0.0, -0.1, 0.1, 0.0, -0.1]},
            ],
        }
        model = rcl.market_model_from_json(doc)
        assert model.n_nodes == 6
        assert [d.label for d in model.drift_types] == ["flat", "bull", "raw"]

    def test_explicit_grid(self):
        doc = {
            "nodes": [-1.0, 1.0],
            "weights": [0.5, 0.5],
            "drift_types": [{"label": "t", "values": [0.2, -0.2]}],
        }
        model = rcl.market_model_from_json(doc)
        assert model.horizon == pytest.approx(1.0)

    def test_node_and_weight_shapes_must_agree(self):
        with pytest.raises(ValidationError) as exc:
            rcl.MarketModel(horizon=1.0, nodes=np.array([-1.0, 0.0, 1.0]),
                            weights=np.array([0.5, 0.5]))
        assert str(exc.value) == "nodes and weights must be 1-d arrays of equal length"

    def test_explicit_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError) as exc:
            rcl.market_model_from_json({"nodes": [-1.0, 1.0], "weights": [0.5, 0.6]})
        assert str(exc.value) == "weights must sum to 1"

    def test_asymmetric_nodes_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            rcl.MarketModel(horizon=1.0, nodes=np.array([-1.0, 2.0]),
                            weights=np.array([0.5, 0.5]), drift_types=[])

    def test_raw_values_with_any_f_at_zero_load(self):
        # f(0) is not fixed: a constant shift of f cancels in the density
        doc = {"nodes": [-1.0, 0.0, 1.0], "weights": [0.25, 0.5, 0.25],
               "drift_types": [{"label": "r", "values": [0.1, 0.2, 0.3], "f_at_zero": 0.2}]}
        model = rcl.market_model_from_json(doc)
        np.testing.assert_array_equal(model.drift_types[0].values, [0.1, 0.2, 0.3])

    def test_mismatched_drift_rejected(self):
        nodes, weights = rcl.discretize_terminal(1.0, 4)
        with pytest.raises(ValidationError):
            rcl.MarketModel(horizon=1.0, nodes=nodes, weights=weights,
                            drift_types=[rcl.DriftType(label="t", values=np.ones(3))])

    def test_expect_dimension_guard(self):
        model = two_node_model()
        d = rcl.tilted_density(model, 0)
        with pytest.raises(DimensionError):
            d.expect(np.ones(3))
