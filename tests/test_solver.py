"""Certified dual solver, its master LP, and the exhaustive grid oracle."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

import rcl
import rcl.cli
import rcl.solver
from rcl.constraints import DEFAULT_TOL
from rcl.errors import RangeError, SizeCapError, ValidationError
from rcl.menu import DEFAULT_TIE_TOL
from rcl.presets import PRESET_NAMES

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


def test_highs_binding_serves_the_master():
    # the master LP runs on scipy's private HiGHS binding, which no scipy
    # release promises to keep: a scipy without it, or without a method the
    # master calls, fails here and not in a user's solve. One column of each
    # kind, t and two contracts of one type worth 2 and 3 to the one prior:
    # max t s.t. t <= 2 a1 + 3 a2, a1 + a2 = 1. The master reads the prior
    # row's dual as lam and the mixing row's as pi, with a column's reduced
    # cost -(lam V + pi), 0 on the basic a2 and 1 on a1
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

    master = _Highs()
    for option, setting in rcl.solver._MASTER_OPTIONS.items():
        assert master.setOptionValue(option, setting) == HighsStatus.kOk
    sparse = rcl.solver._sparse
    statuses = [
        master.addRows(2, [0.0, 1.0], [np.inf, 1.0], *sparse(np.zeros((2, 0)))),
        master.addCols(1, [-1.0], [-np.inf], [np.inf], *sparse(np.array([[-1.0]]))),
        master.addCols(2, np.zeros(2), np.zeros(2), np.full(2, np.inf),
                       *sparse(np.array([[2.0, 1.0], [3.0, 1.0]]))),
        master.run(),
    ]
    assert statuses == [HighsStatus.kOk] * 4
    assert master.getModelStatus() == HighsModelStatus.kOptimal
    solution = master.getSolution()
    np.testing.assert_allclose(solution.col_value, [3.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(solution.row_dual, [1.0, -3.0], atol=1e-12)
    np.testing.assert_allclose(solution.col_dual, [0.0, 1.0, 0.0], atol=1e-12)


class TestPrincipalValue:
    def test_degenerate_ambiguity(self, rng):
        uu = make_uu(rng, n=1, n_priors=1)
        mech = rcl.Mechanism(np.tile(uu.c_hi, (1, 1)))
        values = rcl.contract_values(uu, mech.assignment)
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
            values = rcl.contract_values(uu, mech.assignment)
            value, worst = rcl.principal_value(uu, mech)
            replay = float(np.dot(uu.base.beliefs.priors[worst], values))
            replay += uu.base.beliefs.penalties[worst]
            assert replay == value

    def test_rejects_mechanism_outside_the_box(self, rng):
        uu = make_uu(rng)
        outside = rcl.Mechanism(np.tile(uu.c_hi + 1.0, (uu.n_types, 1)))
        with pytest.raises(RangeError, match="leaves the transformed contract bounds"):
            rcl.principal_value(uu, outside)

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
    @pytest.mark.parametrize("tol", [0.0, np.inf, np.nan])
    def test_options_reject_bad_tol(self, tol):
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            rcl.SolveOptions(tol=tol)

    def test_options_reject_nonpositive_max_iters(self):
        with pytest.raises(ValidationError, match="max_iters must be positive"):
            rcl.SolveOptions(max_iters=0)

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
        # a feasible mechanism is worth at most the certified bound, and the
        # solve's value at least its value less the tolerance
        for _ in range(5):
            uu = make_uu(rng, m=2, n=2)
            uu.base.reservation = np.full(uu.n_types, -10.0)
            seed = self_selected(rng, uu, 1)[0]
            system = rcl.build_system(uu)
            assert rcl.check_mechanism(system, seed).feasible
            seed_value, _ = rcl.principal_value(uu, seed)
            res = rcl.solve_mechanism(uu)
            assert res.converged
            assert seed_value <= res.bound + 1e-12
            assert res.value >= seed_value - 1e-8

    def test_projection_failure_is_surfaced(self, rng):
        # an unreachable reservation (injected after validation) makes the
        # constraint polytope empty; the solver must say so, not guess
        uu = make_uu(rng, m=2, n=2)
        uu.base.reservation = uu.base.reservation + 100.0
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=20))
        assert not res.converged
        assert not res.feasibility.feasible

    def test_non_optimal_master_exits_unconverged(self, tmp_path, monkeypatch, capsys):
        # should HiGHS not solve the master LP to optimality, the solve ends
        # at the pooling point at the upper contract bound, feasible with its
        # gap, and `rcl solve` exits 2 rather than with a traceback
        from scipy.optimize._highspy import _core

        statuses = []

        class Stalled(_core._Highs):
            def getModelStatus(self):
                statuses.append(super().getModelStatus())
                return _core.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(_core, "_Highs", Stalled)
        uu = rcl.to_utility_units(rcl.build_preset("cara_hedging"))
        res = rcl.solve_mechanism(uu)
        assert statuses == [_core.HighsModelStatus.kOptimal]
        assert res.feasibility.feasible and not res.converged
        np.testing.assert_array_equal(res.mechanism.assignment,
                                      np.tile(uu.c_hi, (uu.n_types, 1)))
        assert rcl.cli.main(["solve", "--preset", "cara_hedging",
                             "--out", str(tmp_path / "stalled")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bound_holds_at_one_newton_step(self, monkeypatch):
        # one step leaves c* far from the dual's inner maximizer, so the dual
        # value there falls below D(lam, mu); the inner slack keeps the
        # reported bound above the optimum, and the gap it shows is too wide
        # to certify. SLSQP wanders for thousands of iterations on so rough a
        # dual, so 200 is cap enough
        monkeypatch.setattr(rcl.solver, "NEWTON_ITERS", 1)
        uu = rcl.to_utility_units(rcl.build_preset("reinsurance_halfline"))
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=200))
        assert res.bound >= res.value - 1e-12
        assert res.bound >= rcl.grid_oracle(uu, 4).value - 1e-12
        assert not res.converged

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
            res_wide = rcl.solve_mechanism(uu_wide)
            res_narrow = rcl.solve_mechanism(uu_narrow)
            assert res_wide.converged and res_narrow.converged
            assert res_wide.value <= res_narrow.bound + 1e-12

    @pytest.mark.parametrize("case", ["halfline", "cara_hedging", "linear_linear", "tabulated"])
    def test_solve_makes_no_checked_utility_call(self, monkeypatch, case):
        # the box is checked when the utility-units instance is built; a
        # solve, its master included (linear-linear), evaluates inside
        # the box through the unchecked cores alone
        calls = []
        for name in ("value", "inverse", "deriv"):
            def counted(self, z, _name=name, _checked=getattr(rcl.UtilitySpec, name)):
                calls.append(_name)
                return _checked(self, z)
            monkeypatch.setattr(rcl.UtilitySpec, name, counted)
        if case == "halfline":
            inst = rcl.build_preset("reinsurance_halfline")
        elif case == "cara_hedging":
            inst = rcl.build_preset("cara_hedging")
        elif case == "linear_linear":
            inst = make_instance(np.random.default_rng(7), family="linear", v_family="linear")
        else:
            grid = np.geomspace(0.05, 6.0, 40)
            inst = single_type_instance(
                rcl.UtilitySpec("tabulated", grid=grid, values=np.log(grid)),
                rcl.cara(1.0, "half-line"), e_a=[1.0, 1.2], e_p=[2.0, 1.8],
                lo=[-0.8, -0.9], hi=[1.5, 1.4], q=[0.5, 0.5], d=[1.2, 0.8])
        calls.clear()
        uu = rcl.to_utility_units(inst)
        assert calls
        calls.clear()
        res = rcl.solve_mechanism(uu)
        assert res.converged
        assert calls == []

    def test_trace_recorded(self, rng):
        # one (iteration, bound) row per dual iteration, every bound above
        # the recovered mechanism's value
        uu = make_uu(rng)
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=40))
        assert len(res.trace) == res.iterations > 0
        iters, bounds = zip(*res.trace)
        assert list(iters) == list(range(1, res.iterations + 1))
        assert min(bounds + (res.bound,)) >= res.value - 1e-12


TAB_GRID = np.geomspace(0.05, 6.0, 9)
UTILITIES = {
    "crra": lambda: rcl.crra(0.5),
    "log": rcl.log_utility,
    "cara_half": lambda: rcl.cara(1.0, "half-line"),
    "cara_whole": lambda: rcl.cara(1.0, "whole-line"),
    "linear": rcl.linear,
    "tabulated": lambda: rcl.UtilitySpec("tabulated", grid=TAB_GRID, values=np.log(TAB_GRID)),
    "tabulated_derivs": lambda: rcl.UtilitySpec(
        "tabulated", grid=TAB_GRID, values=np.log(TAB_GRID), derivs=1.0 / TAB_GRID),
}


def checked_marginal(uu, c):
    """phi' = -v'(e_p + e_a - u^-1(c)) / u'(u^-1(c)) taken through the
    public, checked `inverse` and `deriv`: no code shared with the solver.
    A nan phi' counts as 0."""
    inst = uu.base
    agent = inst.u.inverse(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        marginal = -inst.v.deriv(inst.e_p + inst.e_a - agent) / inst.u.deriv(agent)
        return np.where(np.isnan(marginal), 0.0, marginal)


def checked_slope(uu, weight, g, c):
    """Slope in c of the dual's inner objective weight_ji phi_i(c) + g_ji c,
    phi' from `checked_marginal`; a type of weight 0 has slope g."""
    marginal = checked_marginal(uu, c)
    with np.errstate(invalid="ignore"):
        return g + np.where(weight > 0.0, weight * marginal, 0.0)


def reference_inner_max(uu, s, g, halvings):
    """The inner maximizer by the plain rule: `halvings` rounds of bisecting
    `checked_slope` over every entry, faces included; also the mask of the
    entries strictly inside. Each entry's weight and g are first scaled by
    one power of two, exactly, to a largest magnitude in [0.5, 1): the
    slope's sign is unchanged, but at a subnormal weight and g the slope
    would round to a multiple of the least subnormal, and be 0 over a span
    of c far wider than the tolerance the bisection is held to."""
    weight = s[:, None] * uu.base.principal_weights()
    exponent = -np.frexp(np.maximum(np.abs(weight), np.abs(g)))[1]
    weight, g = np.ldexp(weight, exponent), np.ldexp(g, exponent)
    lo = np.broadcast_to(uu.c_lo, g.shape)
    hi = np.broadcast_to(uu.c_hi, g.shape)
    at_lo = checked_slope(uu, weight, g, lo) <= 0.0
    inside = ~at_lo & (checked_slope(uu, weight, g, hi) < 0.0)
    c = np.where(at_lo, lo, hi)
    if inside.any():
        left, right = lo, hi
        for _ in range(halvings):
            mid = 0.5 * (left + right)
            up = checked_slope(uu, weight, g, mid) > 0.0
            left, right = np.where(up, mid, left), np.where(up, right, mid)
        c = np.where(inside, 0.5 * (left + right), c)
    return c, inside


def inner_max_case(seed, u_name, v_name, n, m, full_box, scale=1.0):
    """A random instance and (s, g) whose entries of positive weight take
    inside, lower face, upper face in turn, s scaled by `scale`.

    Every family and domain for both parties, and one type with weight 0 in
    the prior mixture. The full box (the no-short-sale limits) floors the
    agent's wealth at the lower face and gives a CRRA principal a slope of
    -inf at the upper; it needs a closed-form agent and a principal defined
    at wealth 0.
    """
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, m=m, n=n)
    full_box &= not u_name.startswith("tabulated") and v_name not in (
        "log", "tabulated", "tabulated_derivs")
    bounds = dict(contract_lo=-inst.e_a, contract_hi=inst.e_p) if full_box else {}
    inst = rcl.validate_instance(dataclasses.replace(
        inst, u=UTILITIES[u_name](), v=UTILITIES[v_name](), **bounds))
    uu = rcl.to_utility_units(inst)
    s = rng.dirichlet(np.ones(n)) * scale
    s[rng.integers(n)] = 0.0
    weight = s[:, None] * inst.principal_weights()
    lo = np.broadcast_to(uu.c_lo, (n, m))
    hi = np.broadcast_to(uu.c_hi, (n, m))
    zero = np.zeros((n, m))
    at_lo, at_hi = (checked_slope(uu, weight, zero, face) for face in (lo, hi))
    # g = -slope term at a point t of the way from lo to hi: t < 0 puts the
    # entry on the lower face, t > 1 on the upper, t in (0, 1) inside; a
    # -inf slope at the upper face stands for a span of 1
    turn = (np.cumsum(weight > 0.0) - 1).reshape(n, m) % 3
    t = np.array([rng.uniform(0.05, 0.95), -0.5, 1.5])[turn]
    g = -(at_lo + t * np.where(np.isfinite(at_hi), at_hi - at_lo, -1.0))
    g = np.where(weight > 0.0, g, rng.normal(size=(n, m)) * scale)
    return uu, s, g


def checked_faces(uu, shape):
    """A `_DualFaces` whose phi' at the faces, and whose table of
    log(-phi') at TABLE_KNOTS knots evenly spaced over each atom's box, are
    taken through the checked utilities (`checked_marginal`): what
    `_dual_faces` must reproduce bitwise."""
    inst = uu.base
    lo = np.broadcast_to(uu.c_lo, shape)
    hi = np.broadcast_to(uu.c_hi, shape)
    knots = np.linspace(uu.c_lo, uu.c_hi, rcl.solver.TABLE_KNOTS, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = np.log(-checked_marginal(uu, knots.T)).T
    return rcl.solver._DualFaces(
        inst.u, inst.v, inst.principal_weights(), lo, hi,
        np.broadcast_to(inst.e_p + inst.e_a, shape),
        checked_marginal(uu, lo), checked_marginal(uu, hi), knots, levels)


def assert_matches_bisection(uu, s, g, faces=None):
    """Face entries bitwise those of bisection, interior entries within
    1e-10 of the box width of 60 halvings, and no more slack than 35
    halvings leave (the bisection this iteration replaced); `faces` are
    the instance's own unless given."""
    faces = faces or rcl.solver._dual_faces(uu)
    c = rcl.solver._inner_max(faces, s, g)
    fine, inside = reference_inner_max(uu, s, g, 60)
    np.testing.assert_array_equal(c[~inside], fine[~inside])
    width = np.broadcast_to(uu.c_hi - uu.c_lo, g.shape)
    assert np.all(np.abs(c - fine)[inside] <= 1e-10 * width[inside])
    coarse = reference_inner_max(uu, s, g, 35)[0]
    assert rcl.solver._inner_slack(faces, s, g, c) <= (
        rcl.solver._inner_slack(faces, s, g, coarse) + 1e-12)
    return c, inside


def psi_evaluations(monkeypatch):
    """The `u._inverse` calls of each `_inner_max` call that follows: one
    per psi evaluation, and two more where `_gains` picks a bracket end."""
    counts, inside = [], []
    inverse, inner_max = rcl.model.UtilitySpec._inverse, rcl.solver._inner_max

    def counted_inverse(self, y):
        if inside:
            counts[-1] += 1
        return inverse(self, y)

    def counted_inner_max(*args):
        counts.append(0)
        inside.append(True)
        c = inner_max(*args)
        inside.clear()
        return c

    monkeypatch.setattr(rcl.model.UtilitySpec, "_inverse", counted_inverse)
    monkeypatch.setattr(rcl.solver, "_inner_max", counted_inner_max)
    return counts


class TestInnerMax:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        u_name=st.sampled_from(sorted(UTILITIES)),
        v_name=st.sampled_from(sorted(UTILITIES)),
        n=st.integers(2, 4),
        m=st.integers(1, 4),
        full_box=st.booleans(),
        scale=st.sampled_from([1.0, 1e-300, 1e-310]),
        unpriced=st.booleans(),
    )
    def test_prepared_faces_match_per_call_faces(self, seed, u_name, v_name, n, m,
                                                 full_box, scale, unpriced):
        # faces and the table prepared once per solve give every c* bitwise,
        # weight-0 types, -inf slopes and subnormal weights included; an
        # unpriced type of weight 0 (as at the dual's start, mu = 0) has
        # slope 0 on the lower face and sits there
        uu, s, g = inner_max_case(seed, u_name, v_name, n, m, full_box, scale)
        if unpriced:
            g = np.where(s[:, None] > 0.0, g, 0.0)
        faces, checked = rcl.solver._dual_faces(uu), checked_faces(uu, g.shape)
        for name in ("marginal_lo", "marginal_hi", "knots", "levels"):
            np.testing.assert_array_equal(getattr(faces, name), getattr(checked, name))
        np.testing.assert_array_equal(rcl.solver._inner_max(faces, s, g),
                                      rcl.solver._inner_max(checked, s, g))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        u_name=st.sampled_from(sorted(UTILITIES)),
        v_name=st.sampled_from(sorted(UTILITIES)),
        n=st.integers(2, 4),
        m=st.integers(1, 4),
        full_box=st.booleans(),
        garbage=st.sampled_from(["shuffled", "nan", "inf", "-inf", "mixed"]),
    )
    def test_the_table_only_starts_newton(self, seed, u_name, v_name, n, m, full_box,
                                          garbage):
        # the safeguard, not the table, owns correctness: with the table's
        # levels shuffled, nan, infinite or a mix of these, Newton starts
        # elsewhere in the box and still ends where bisection does
        uu, s, g = inner_max_case(seed, u_name, v_name, n, m, full_box)
        faces = rcl.solver._dual_faces(uu)
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(faces.levels.ravel()).reshape(faces.levels.shape)
        levels = {
            "shuffled": shuffled,
            "nan": np.full_like(shuffled, np.nan),
            "inf": np.full_like(shuffled, np.inf),
            "-inf": np.full_like(shuffled, -np.inf),
            "mixed": np.where(rng.random(shuffled.shape) < 0.5, shuffled,
                              rng.choice([np.nan, np.inf, -np.inf], shuffled.shape)),
        }[garbage]
        assert_matches_bisection(uu, s, g, dataclasses.replace(faces, levels=levels))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        u_name=st.sampled_from(sorted(UTILITIES)),
        v_name=st.sampled_from(sorted(UTILITIES)),
        n=st.integers(2, 4),
        m=st.integers(1, 4),
        full_box=st.booleans(),
        scale=st.sampled_from([1.0, 1e-300, 1e-310]),
    )
    @example(seed=0, u_name="crra", v_name="crra", n=3, m=4, full_box=True, scale=1.0)
    @example(seed=1, u_name="linear", v_name="crra", n=3, m=4, full_box=True, scale=1e-310)
    def test_entry_independent_of_the_others(self, seed, u_name, v_name, n, m, full_box,
                                             scale):
        # every entry iterates in place under the live mask, so changing the
        # g of all the others, which moves them between the faces, the
        # interior and the collapsed brackets, leaves its c* bitwise as it was
        uu, s, g = inner_max_case(seed, u_name, v_name, n, m, full_box, scale)
        faces = rcl.solver._dual_faces(uu)
        c = rcl.solver._inner_max(faces, s, g)
        others = np.random.default_rng(seed).permutation(g.ravel()).reshape(g.shape)
        for entry in np.ndindex(g.shape):
            moved = others.copy()
            moved[entry] = g[entry]
            alone = rcl.solver._inner_max(faces, s, moved)
            assert alone[entry].tobytes() == c[entry].tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        u_name=st.sampled_from(sorted(UTILITIES)),
        v_name=st.sampled_from(sorted(UTILITIES)),
        n=st.integers(2, 4),
        m=st.integers(1, 4),
        full_box=st.booleans(),
    )
    def test_matches_bisection(self, seed, u_name, v_name, n, m, full_box):
        uu, s, g = inner_max_case(seed, u_name, v_name, n, m, full_box)
        c, inside = assert_matches_bisection(uu, s, g)
        assert (~inside).any()
        if not u_name == v_name == "linear":
            assert inside.any()

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-310], ids=["1", "1e-300", "subnormal"])
    @pytest.mark.parametrize("v_name", ["crra", "cara_half"])
    @pytest.mark.parametrize("u_name", ["crra", "log", "cara_whole", "linear"])
    def test_hard_entries(self, u_name, v_name, scale):
        # on the full box a CRRA principal's slope is -inf at the upper face,
        # and her first-order condition grows too steep near it for
        # |psi| <= 1e-13 between adjacent floats: such entries end on the
        # bracket end of less slack. Prior weights of 1e-300 and of
        # subnormal size make w and g tiny
        for seed in range(8):
            uu, s, g = inner_max_case(seed, u_name, v_name, n=3, m=4, full_box=True,
                                      scale=scale)
            _, inside = assert_matches_bisection(uu, s, g)
            assert inside.any()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        v_name=st.sampled_from(["cara_half", "cara_whole"]),
        n=st.integers(2, 4),
        m=st.integers(1, 4),
        full_box=st.booleans(),
        scale=st.sampled_from([1.0, 1e-300, 1e-310]),
    )
    def test_linear_agent_cara_principal_in_one_evaluation(self, seed, v_name, n, m,
                                                            full_box, scale):
        # psi is linear in c, so the linear interpolant of the table is psi
        # less log(w/g) and its root is psi's: one evaluation finds every
        # interior entry, and no entry is left for `_gains` to place
        uu, s, g = inner_max_case(seed, "linear", v_name, n, m, full_box, scale)
        with pytest.MonkeyPatch.context() as patch:
            counts = psi_evaluations(patch)
            c = rcl.solver._inner_max(rcl.solver._dual_faces(uu), s, g)
        assert counts == [1]
        fine, inside = reference_inner_max(uu, s, g, 60)
        width = np.broadcast_to(uu.c_hi - uu.c_lo, g.shape)
        assert np.all(np.abs(c - fine)[inside] <= 1e-10 * width[inside])

    @pytest.mark.parametrize("name, params, most", [
        ("reinsurance_halfline", None, 4),
        ("reinsurance_halfline", {"n_atoms": 8, "n_types": 6, "n_priors": 4, "tilt": 0.4,
                                  "penalty": 0.01}, 4),
        ("cara_hedging", None, 1),
    ], ids=["reinsurance_halfline-4", "halfline_8x6x4-4", "cara_hedging-1"])
    def test_evaluations_per_call_of_a_solve(self, monkeypatch, name, params, most):
        # the log agent's box reaches down to log(1e-8): from its midpoint
        # Newton took up to 10 evaluations, from the regula-falsi root of psi
        # between the faces up to 6 (7 at 8 x 6 x 4), from the table's start
        # at most 4; a linear agent and a CARA principal need one
        counts = psi_evaluations(monkeypatch)
        res = rcl.solve_mechanism(rcl.to_utility_units(rcl.build_preset(name, params)))
        assert res.converged and counts and max(counts) <= most

    @pytest.mark.parametrize("full_box", [False, True], ids=["shrunk_box", "full_box"])
    def test_evaluations_per_call_over_the_families(self, full_box):
        # every pair of families from the table's start: at most 5
        # evaluations a call, `_gains` included (up to 8 from the
        # regula-falsi start). A CRRA principal on the full box is left out:
        # her root lies within about 1e-16 of a face where her slope is
        # -inf, and Newton runs to its cap there
        for u_name, v_name in itertools.product(sorted(UTILITIES), repeat=2):
            if full_box and v_name == "crra":
                continue
            for seed in range(6):
                uu, s, g = inner_max_case(seed, u_name, v_name, n=3, m=4, full_box=full_box)
                with pytest.MonkeyPatch.context() as patch:
                    counts = psi_evaluations(patch)
                    rcl.solver._inner_max(rcl.solver._dual_faces(uu), s, g)
                assert counts[0] <= 5, (u_name, v_name, seed)


def linear_lp_optimum(uu):
    """The robust optimum of a linear-u, linear-v instance as an LP (HiGHS):
    max t s.t. t <= kappa_k V(c) + pen_k, A c >= b and the box, where
    V_j(c) = sum_i w_i (e_p,i + e_a,i - c_ji)."""
    inst = uu.base
    n, m = uu.n_types, uu.n_atoms
    priors, penalties = inst.beliefs.priors, inst.beliefs.penalties
    w = inst.principal_weights()
    a, b = rcl.build_system(uu).rows(np.ones(n * n, dtype=bool))
    # t + sum_j kappa_kj w_i c_ji <= pen_k + sum_j kappa_kj w.(e_p + e_a)
    epigraph = np.hstack([(priors[:, :, None] * w).reshape(len(priors), n * m),
                          np.ones((len(priors), 1))])
    rhs = penalties + priors.sum(axis=1) * (w @ (inst.e_p + inst.e_a))
    rows = np.hstack([-a, np.zeros((b.size, 1))])
    res = linprog(np.r_[np.zeros(n * m), -1.0],
                  A_ub=np.vstack([epigraph, rows]), b_ub=np.r_[rhs, -b],
                  bounds=list(zip(np.tile(uu.c_lo, n), np.tile(uu.c_hi, n)))
                  + [(None, None)], method="highs")
    assert res.status == 0
    return -res.fun


class TestCertificate:
    @pytest.mark.parametrize("name, params", [
        ("reinsurance_halfline", None),
        ("reinsurance_wholeline", None),
        ("cara_hedging", None),
        ("cara_hedging", {"n_nodes": 200, "slopes": tuple(np.linspace(-0.45, 0.45, 8))}),
    ], ids=["halfline", "wholeline", "cara_hedging", "cara_hedging_200x8"])
    def test_presets_close_their_gap(self, name, params):
        # log_delegation builds the same solver instance as cara_hedging
        uu = rcl.to_utility_units(rcl.build_preset(name, params))
        res = rcl.solve_mechanism(uu)
        assert res.converged and res.feasibility.feasible
        assert -1e-12 <= res.gap <= 1e-8
        if name == "cara_hedging" and params is None:
            assert res.value >= 0.8640006

    @pytest.mark.parametrize("miss, dual_runs", [
        (2 * DEFAULT_TOL, False), (DEFAULT_TOL / 2, True), (np.nan, False),
    ], ids=["by_2_tol", "by_half_tol", "nan"])
    def test_pooling_point_decides_infeasibility(self, rng, miss, dual_runs):
        # type 0's reservation, injected after validation, sits `miss` above
        # what pooling at the top gives it: beyond tol (or nan) the solve
        # returns at once, within tol it goes on to the dual
        uu = make_uu(rng, m=2, n=2)
        reservation = np.array(uu.reservation, dtype=float)
        reservation[0] = rcl.constraints.agent_levels(uu, uu.c_hi)[0, 0] + miss
        uu.base.reservation = reservation
        res = rcl.solve_mechanism(uu)
        assert (res.iterations > 0) == dual_runs
        if not dual_runs:
            assert res.bound == -np.inf and not res.converged
            assert not res.feasibility.feasible
            np.testing.assert_array_equal(res.mechanism.assignment,
                                          np.tile(uu.c_hi, (uu.n_types, 1)))

    def test_halfline_recovers_when_a_prior_weight_vanishes(self, monkeypatch):
        # at default settings the dual drives the uniform prior's weight to
        # about 5e-13, where type 1's c* is nearly bang-bang; the mechanism
        # must still certify, by the master's mixture of the columns
        mixtures = []
        inner_max = rcl.solver._inner_max

        def recorded(faces, s, g):
            mixtures.append(s)
            return inner_max(faces, s, g)

        monkeypatch.setattr(rcl.solver, "_inner_max", recorded)
        uu = rcl.to_utility_units(rcl.build_preset("reinsurance_halfline"))
        res = rcl.solve_mechanism(uu)
        assert mixtures[-1].min() < 1e-9
        assert res.converged
        assert -1e-12 <= res.gap <= 1e-8

    def test_no_state_carries_between_solves(self):
        # the dual's faces are prepared per solve: solving A, B, A in one
        # process gives A twice bitwise, and B as when it is solved first.
        # Both presets are 2 x 2, so faces carried over would not raise
        def solve(name):
            res = rcl.solve_mechanism(rcl.to_utility_units(rcl.build_preset(name)))
            return json.dumps(res.to_json()), res.trace

        alone = solve("reinsurance_wholeline")
        first, between, again = (solve(name) for name in (
            "reinsurance_halfline", "reinsurance_wholeline", "reinsurance_halfline"))
        assert again == first
        assert between == alone
        assert first != between

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3)])
    def test_linear_linear_matches_linprog(self, n, m):
        # the dual is piecewise linear and its c* sits on box corners, so
        # the master's first LP falls short of the LP optimum and pricing
        # at its duals closes the gap
        rng = np.random.default_rng(7)
        for _ in range(4):
            uu = make_uu(rng, n=n, m=m, family="linear", v_family="linear")
            res = rcl.solve_mechanism(uu)
            assert res.converged
            assert res.value == pytest.approx(linear_lp_optimum(uu), abs=1e-9)

    def test_presets_certify_in_the_first_master_lp(self, monkeypatch):
        # the master over hi, lo and the dual's last c* for each type, on W's
        # rows, certifies every preset in its first LP: one run, and no
        # pricing row in the trace past SLSQP's iterations
        runs = count_master_calls(monkeypatch)
        rounds = record_rounds(monkeypatch)
        for name in PRESET_NAMES:
            del runs[:], rounds[:]
            res = rcl.solve_mechanism(rcl.to_utility_units(rcl.build_preset(name)))
            assert res.converged
            assert [call for call, _ in runs].count("run") == 1
            assert res.iterations == sum(result.nit for _, result in rounds)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["log", "crra", "cara", "linear"]),
        v_family=st.sampled_from(["cara_half", "cara_whole", "linear"]),
        n=st.integers(1, 3),
        m=st.integers(1, 3),
    )
    def test_every_family_certifies(self, seed, family, v_family, n, m):
        uu = make_uu(np.random.default_rng(seed), n=n, m=m, family=family,
                     v_family=v_family, random_penalties=bool(seed % 2))
        opts = rcl.SolveOptions()
        res = rcl.solve_mechanism(uu, opts)
        assert res.converged
        assert rcl.check_mechanism(rcl.build_system(uu), res.mechanism, tol=1e-8).feasible
        assert rcl.grid_oracle(uu, 3).value <= res.bound + 1e-12
        assert res.value >= res.bound - opts.tol

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), delta=st.floats(1e-8, 1e-5))
    @example(seed=7, delta=1e-5)
    @example(seed=7, delta=1e-6)
    @example(seed=7, delta=1e-7)
    @example(seed=7, delta=1e-8)
    def test_near_duplicate_types_certify(self, seed, delta):
        # type 2 becomes type 0 times (1 + delta N(0, 1)), renormalised: the
        # IC pair between them nearly coincides, the binding rows' condition
        # number is about 1 / delta, and the master's mixture must still meet
        # every row to the LP's feasibility tolerance
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, m=3, n=3)
        q, base = inst.states.ref_prob, inst.types[0].density
        density = base * (1.0 + delta * rng.standard_normal(3))
        types = [*inst.types[:2], rcl.AgentType(density=density / (q @ density), label="theta2")]
        uu = rcl.to_utility_units(rcl.validate_instance(
            dataclasses.replace(inst, types=types, reservation=None)))
        opts = rcl.SolveOptions()
        res = rcl.solve_mechanism(uu, opts)
        assert res.converged
        assert rcl.check_mechanism(rcl.build_system(uu), res.mechanism, tol=opts.tol).feasible
        assert res.gap <= opts.tol
        assert rcl.build_system(uu).residual(res.mechanism.assignment).min() >= -1e-9


def dual_parts(uu, lam, mu):
    """D(lam, mu) without the inner slack, summed from the solver's own
    pieces as `solve_mechanism` adds them up (pen, the row prices and the
    inner maximum), and the slack `_inner_slack` adds to it."""
    a, b = rcl.build_system(uu).rows(np.ones(uu.n_types ** 2, dtype=bool))
    priors, penalties = uu.base.beliefs.priors, uu.base.beliefs.penalties
    s, g = lam @ priors, (mu @ a).reshape(uu.n_types, uu.n_atoms)
    faces = rcl.solver._dual_faces(uu)
    c = rcl.solver._inner_max(faces, s, g)
    dual = float(lam @ penalties - mu @ b + s @ rcl.solver._evaluate(uu, c) + np.sum(g * c))
    return dual, rcl.solver._inner_slack(faces, s, g, c)


class TestDualReadsItsLastEvaluation:
    @pytest.mark.parametrize("name", ["reinsurance_halfline", "cara_hedging"])
    def test_trace_and_bound_at_the_iterates(self, monkeypatch, name):
        # the solver keeps no memo: each trace row is D at the iterate SLSQP
        # calls back with, and the bound is D plus the slack at the point it
        # returns, recomputed here from the iterates themselves
        iterates, results = [], []

        def recorded(fun, x0, callback=None, **kwargs):
            def record(z):
                iterates.append(z.copy())
                callback(z)

            results.append(minimize(fun, x0, callback=record, **kwargs))
            return results[-1]

        monkeypatch.setattr("scipy.optimize.minimize", recorded)
        uu = rcl.to_utility_units(rcl.build_preset(name))
        res = rcl.solve_mechanism(uu)
        k = uu.base.beliefs.priors.shape[0]

        def at(z):
            lam = np.maximum(z[:k], 0.0)
            return dual_parts(uu, lam / lam.sum(), np.maximum(z[k:], 0.0))

        assert len(results) == 1 and len(iterates) == res.iterations > 0
        assert [bound for _, bound in res.trace] == [at(z)[0] for z in iterates]
        dual, slack = at(results[0].x)
        assert res.bound == dual + slack


def seeded_rows(uu):
    """The rows the first dual round prices, by the rule itself: every IR
    row, and both IC rows between each type and each of its two nearest
    types by Euclidean distance between rows of `type_weights()`."""
    weights, n = uu.base.type_weights(), uu.n_types
    near = set()
    for j in range(n):
        others = sorted((k for k in range(n) if k != j),
                        key=lambda k: (float(np.linalg.norm(weights[j] - weights[k])), k))
        near |= {pair for k in others[:2] for pair in ((j, k), (k, j))}
    return np.array([pair in near for pair in rcl.build_system(uu).ic_pairs()] + [True] * n)


def record_rounds(monkeypatch):
    """(x0, result) of every dual SLSQP round of the solves that follow."""
    rounds = []

    def recorded(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        rounds.append((np.array(x0), res))
        return res

    monkeypatch.setattr("scipy.optimize.minimize", recorded)
    return rounds


def count_master_calls(monkeypatch):
    """(call, count) of every `run`, `addRows` and `addCols` of the master
    LPs that follow, a count being the rows or columns the call adds."""
    from scipy.optimize._highspy import _core

    calls = []

    class Counted(_core._Highs):
        def run(self):
            calls.append(("run", 0))
            return super().run()

        def addRows(self, count, *args):
            calls.append(("rows", count))
            return super().addRows(count, *args)

        def addCols(self, count, *args):
            calls.append(("cols", count))
            return super().addCols(count, *args)

    monkeypatch.setattr(_core, "_Highs", Counted)
    return calls


def shuffled(inst, order):
    """`inst` with its types listed in `order`."""
    return rcl.validate_instance(dataclasses.replace(
        inst, types=[inst.types[j] for j in order],
        beliefs=rcl.BeliefSet(inst.beliefs.priors[:, order], inst.beliefs.penalties),
        reservation=inst.reservation[order]))


class TestWorkingSet:
    # the dual prices a working set of rows: the IR rows and the IC rows
    # between near types, then the rows its maximizer violates; the master
    # starts from W's rows and takes in any other row its mixture violates

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_few_types_price_every_row(self, monkeypatch, n):
        # each type's two nearest types are all the others: one round, on
        # every row
        rounds = record_rounds(monkeypatch)
        uu = make_uu(np.random.default_rng(n), n=n, m=3)
        res = rcl.solve_mechanism(uu)
        k = uu.base.beliefs.priors.shape[0]
        assert seeded_rows(uu).all()
        assert [x0.size for x0, _ in rounds] == [k + n * n]
        assert res.converged and res.iterations == rounds[0][1].nit

    def test_bound_is_the_full_dual_at_the_padded_prices(self, monkeypatch):
        # 8 evenly spaced slopes listed out of order: the nearest types are
        # the neighbouring slopes, not the neighbouring indices
        slopes = np.linspace(-0.45, 0.45, 8)[[3, 0, 6, 1, 7, 4, 2, 5]]
        rounds = record_rounds(monkeypatch)
        uu = rcl.to_utility_units(rcl.build_preset(
            "cara_hedging", {"n_nodes": 40, "slopes": tuple(slopes)}))
        res = rcl.solve_mechanism(uu)
        k, n = uu.base.beliefs.priors.shape[0], uu.n_types
        working = seeded_rows(uu)
        assert working.sum() == 26
        assert [x0.size for x0, _ in rounds] == [k + 26]
        z = rounds[0][1].x
        lam, mu = np.maximum(z[:k], 0.0), np.zeros(n * n)
        mu[working] = np.maximum(z[k:], 0.0)
        dual, slack = dual_parts(uu, lam / lam.sum(), mu)
        assert res.converged
        assert res.bound == pytest.approx(dual + slack, rel=0.0, abs=1e-12)

    def test_no_call_builds_every_row(self, monkeypatch):
        # 16 types: W and the rows the master takes in are a fraction of the
        # 256 rows, so no dense all-rows A is built
        asked = []
        rows = rcl.LinearConstraintSystem.rows

        def spy(system, mask):
            dense = rows(system, mask)
            asked.append(dense[1].size)
            return dense

        monkeypatch.setattr(rcl.LinearConstraintSystem, "rows", spy)
        uu = rcl.to_utility_units(rcl.build_preset(
            "cara_hedging", {"n_nodes": 40, "slopes": tuple(np.linspace(-0.45, 0.45, 16))}))
        res = rcl.solve_mechanism(uu)
        assert res.converged
        assert asked and max(asked) < 256

    @pytest.mark.parametrize("cap, stopped", [(40, 0), (150, 1)])
    def test_cap_bounds_the_summed_rounds(self, tmp_path, monkeypatch, cap, stopped):
        # a linear-linear 8-type draw certifies in several rounds of about
        # 100 iterations each; the cap counts them all and stops the round
        # that reaches it
        rounds = record_rounds(monkeypatch)
        path = tmp_path / "inst.json"
        rcl.save_instance(make_instance(np.random.default_rng(5), n=8, m=1, family="linear",
                                        v_family="linear"), path)
        assert rcl.cli.main(["solve", "--instance", str(path), "--out",
                             str(tmp_path / "full")]) == 0
        spent = np.cumsum([res.nit for _, res in rounds])
        assert len(rounds) > 2 and np.searchsorted(spent, cap) == stopped
        del rounds[:]
        out = tmp_path / "capped"
        code = rcl.cli.main(["solve", "--instance", str(path), "--max-iters", str(cap),
                             "--out", str(out)])
        trace = (out / "trace.csv").read_text().splitlines()[1:]
        result = json.loads((out / "result.json").read_text())["result"]
        assert code == 2
        assert len(rounds) == stopped + 1
        assert rounds[-1][1].status == 9  # SLSQP's iteration limit
        assert len(trace) == result["iterations"] == sum(res.nit for _, res in rounds) <= cap

    def test_linear_linear_certifies_through_master_rows_and_columns(self, monkeypatch):
        # a bang-bang c* violates few outside rows, and the dual's rounds end
        # with the gap open: the master starts on W's rows, takes in any
        # other row its mixture violates (how many W holds by then follows
        # SLSQP's path, and so the BLAS threads), and prices columns at its
        # duals, each pricing a trace row past SLSQP's iterations; its
        # mixture meets all 64 rows and closes the gap at the LP optimum
        calls = count_master_calls(monkeypatch)
        rounds = record_rounds(monkeypatch)
        uu = make_uu(np.random.default_rng(37), n=8, m=4, family="linear", v_family="linear")
        res = rcl.solve_mechanism(uu)
        k = uu.base.beliefs.priors.shape[0]
        working = rounds[-1][0].size - k
        # set-up: the prior and mixing rows, t, hi, lo and c* for each type,
        # then W's rows
        assert calls[:4] == [("rows", k + 8), ("cols", 1), ("cols", 24), ("rows", working)]
        assert sum(count for call, count in calls[4:] if call == "cols") > 0
        assert res.converged
        assert res.iterations > sum(result.nit for _, result in rounds)
        assert rcl.build_system(uu).residual(res.mechanism.assignment).min() >= -1e-9
        assert res.value == pytest.approx(linear_lp_optimum(uu), abs=1e-9)

    def test_capped_dual_leaves_the_rows_to_the_master(self, monkeypatch):
        # one SLSQP iteration leaves W at its seed and the gap open, and no
        # pricing runs past the cap: the master takes in the rows its
        # mixture of hi, lo and c* violates, so the mechanism meets all 64
        # rows, uncertified
        calls = count_master_calls(monkeypatch)
        uu = make_uu(np.random.default_rng(37), n=8, m=4, family="linear", v_family="linear")
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=1))
        assert calls[3] == ("rows", seeded_rows(uu).sum()) and seeded_rows(uu).sum() < 64
        assert sum(count for call, count in calls[4:] if call == "rows") > 0
        assert sum(count for call, count in calls[4:] if call == "cols") == 0
        assert res.iterations == 1 and not res.converged
        assert rcl.build_system(uu).residual(res.mechanism.assignment).min() >= -1e-9

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["log", "crra", "cara", "linear"]),
        v_family=st.sampled_from(["cara_half", "cara_whole", "linear"]),
        n=st.integers(4, 12),
        m=st.integers(1, 3),
        data=st.data(),
    )
    def test_shuffled_types_certify(self, seed, family, v_family, n, m, data):
        inst = make_instance(np.random.default_rng(seed), n=n, m=m, family=family,
                             v_family=v_family, random_penalties=bool(seed % 2))
        order = data.draw(st.permutations(range(n)))
        uu = rcl.to_utility_units(shuffled(inst, np.array(order)))
        opts = rcl.SolveOptions()
        res = rcl.solve_mechanism(uu, opts)
        assert res.converged
        assert rcl.check_mechanism(rcl.build_system(uu), res.mechanism, tol=1e-8).feasible
        assert res.value >= res.bound - opts.tol


class TestWeakDuality:
    # every prior mixture and every nonnegative row price bounds the optimum
    # from above, not only the ones SLSQP visits: draws far from its path
    # (vertices, zero and large prices) test the inner maximum and its slack
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        u_name=st.sampled_from(sorted(UTILITIES)),
        v_name=st.sampled_from(sorted(UTILITIES)),
        n=st.integers(2, 3),
        lam=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=2,
                     max_size=2),
        mu=st.lists(st.sampled_from([0.0, 1e6]) | st.floats(0.0, 1e3), min_size=9,
                    max_size=9),
    )
    def test_dual_bounds_the_grid_optimum(self, seed, u_name, v_name, n, lam, mu):
        inst = make_instance(np.random.default_rng(seed), m=2, n=n,
                             random_penalties=bool(seed % 2))
        uu = rcl.to_utility_units(rcl.validate_instance(dataclasses.replace(
            inst, u=UTILITIES[u_name](), v=UTILITIES[v_name]())))
        lam = np.array(lam) if sum(lam) > 0.0 else np.array([1.0, 0.0])
        mu = np.array(mu[:n * n])
        dual, slack = dual_parts(uu, lam / lam.sum(), mu)
        bound = dual + slack
        assert bound >= rcl.grid_oracle(uu, 4).value - 1e-12


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
        assert res.feasibility.feasible
        values = rcl.contract_values(uu, res.mechanism.assignment)
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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        tol=st.sampled_from([DEFAULT_TOL, DEFAULT_TIE_TOL]),
        source=st.sampled_from(["random", "grid"]),
        size=st.integers(1, 6),
        duplicates=st.integers(0, 3),
        identical_types=st.booleans(),
    )
    def test_enumeration_matches_product_reference(
            self, seed, n, m, tol, source, size, duplicates, identical_types):
        # duplicated contracts and identical types make ties, which must go
        # to the lexicographically smallest index tuple
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, n=n, m=m, n_priors=int(rng.integers(1, 4)),
                             random_penalties=bool(seed % 2))
        if identical_types:
            inst = rcl.validate_instance(dataclasses.replace(inst, reservation=None, types=[
                rcl.AgentType(density=inst.types[0].density.copy(), label=f"theta{j}")
                for j in range(n)]))
        uu = rcl.to_utility_units(inst)
        if source == "grid":
            contracts = rcl.grid_contracts(uu, min(size, 3))
        else:
            contracts = rng.uniform(uu.c_lo, uu.c_hi, size=(size, m))
        contracts = np.vstack([contracts, contracts[rng.integers(0, len(contracts), duplicates)]])

        expected = product_reference(contracts, uu, tol)
        if expected is None:
            with pytest.raises(ValidationError, match="no feasible assignment"):
                rcl.enumerate_best_assignment(contracts, uu, tol=tol)
            return
        idx, value, count = rcl.enumerate_best_assignment(contracts, uu, tol=tol)
        assert tuple(idx.tolist()) == expected[0]
        assert value == expected[1]  # bitwise
        assert count == expected[2] == len(contracts) ** n
        # the winner is feasible and worth its value by the checker's own rows
        mech = rcl.Mechanism(contracts[idx])
        assert rcl.check_mechanism(rcl.build_system(uu), mech, tol).feasible
        assert rcl.principal_value(uu, mech)[0] == pytest.approx(value, abs=1e-12)

    def test_worst_case_enumeration_memory_is_bounded(self, rng):
        # every one of the 3162**2 assignments passes every row; blocks of
        # at most _CHUNK cells keep memory near the parent loop's 7 MB
        uu = make_uu(rng, m=2, n=2)
        contracts = np.tile(uu.c_hi, (3162, 1))
        tracemalloc.start()
        try:
            idx, _, count = rcl.enumerate_best_assignment(contracts, uu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.tolist() == [0, 0]
        assert count == 9_998_244
        assert peak < 32 * 2**20


def product_reference(contracts, uu, tol):
    """The optimum over itertools.product of contract indices, each
    assignment's IR and IC rows checked in a plain loop on the levels every
    row check reads (`agent_levels`). Values come from the enumeration's
    expression over the whole space at once, so they compare bitwise.
    Returns (index tuple, value, count), or None when no assignment is
    feasible."""
    inst = uu.base
    n = inst.n_types
    e_mat = rcl.agent_levels(uu, contracts)
    combos = list(itertools.product(range(len(contracts)), repeat=n))
    feasible = [
        all(e_mat[j, g[j]] >= uu.reservation[j] - tol for j in range(n))
        and all(e_mat[j, g[j]] >= e_mat[j, g[k]] - tol for j in range(n) for k in range(n))
        for g in combos
    ]
    if not any(feasible):
        return None
    idx = np.array(combos, dtype=np.intp)
    values = rcl.contract_values(uu, contracts)
    robust = (values[idx] @ inst.beliefs.priors.T + inst.beliefs.penalties).min(axis=1)
    best = max((i for i in range(len(combos)) if feasible[i]),
               key=lambda i: (robust[i], -i))
    return combos[best], robust[best], len(combos)
