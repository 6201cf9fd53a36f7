"""Utility-units transform and the AE tail check."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rcl
from rcl.cli import main
from rcl.errors import DomainError, InconclusiveError, RangeError, ValidationError

from conftest import make_instance, random_mechanisms


def simple_instance(u, e_a, e_p, lo, hi, q=(0.5, 0.5), densities=((1.0, 1.0),)):
    m = len(q)
    states = rcl.StateSpace(ref_prob=np.array(q))
    types = [rcl.AgentType(density=np.array(d), label=f"theta{i}")
             for i, d in enumerate(densities)]
    n = len(types)
    return rcl.validate_instance(rcl.Instance(
        states=states,
        types=types,
        principal_belief=rcl.AgentType(density=np.ones(m), label="p"),
        beliefs=rcl.BeliefSet(priors=np.full((1, n), 1.0 / n), penalties=[0.0]),
        e_a=np.asarray(e_a, float),
        e_p=np.asarray(e_p, float),
        u=u,
        v=rcl.cara(1.0),
        contract_lo=np.asarray(lo, float),
        contract_hi=np.asarray(hi, float),
    ))


class TestToUtilityUnits:
    def test_log_unit_endowment(self):
        inst = simple_instance(rcl.log_utility(), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[0.0, 0.0], hi=[math.e, math.e])
        uu = rcl.to_utility_units(inst)
        np.testing.assert_allclose(uu.c_lo, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(uu.c_hi, [math.log(1 + math.e)] * 2, atol=1e-15)
        assert uu.clamped_atoms == []

    def test_crra_half_power(self):
        # z^0.5 / 0.5 at wealth 1 and 4 gives levels 2 and 4
        inst = simple_instance(rcl.crra(0.5), e_a=[0.0, 0.0], e_p=[5.0, 5.0],
                               lo=[1.0, 1.0], hi=[4.0, 4.0])
        uu = rcl.to_utility_units(inst)
        np.testing.assert_allclose(uu.c_lo, [2.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(uu.c_hi, [4.0, 4.0], atol=1e-14)

    def test_log_floor_substitution(self):
        inst = simple_instance(rcl.log_utility(), e_a=[0.5, 0.5], e_p=[3.0, 3.0],
                               lo=[-0.5, -0.5], hi=[1.0, 1.0])
        uu = rcl.to_utility_units(inst)
        np.testing.assert_allclose(uu.c_lo, [math.log(1e-8)] * 2, atol=1e-12)
        assert uu.c_lo[0] == pytest.approx(-18.420680743952367)
        assert uu.clamped_atoms == [0, 1]

    def test_whole_line_bounds_not_floored(self):
        inst = simple_instance(rcl.cara(1.0), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[-2.0, -2.0], hi=[1.0, 1.0])
        uu = rcl.to_utility_units(inst)
        np.testing.assert_allclose(uu.c_lo, 1.0 - np.exp(1.0), atol=1e-15)
        assert uu.clamped_atoms == []


def one_atom_instance(u, v, e_a, e_p, lo, hi):
    """An unvalidated one-atom, one-type instance."""
    return rcl.Instance(
        states=rcl.StateSpace(ref_prob=[1.0]),
        types=[rcl.AgentType(density=[1.0], label="theta0")],
        principal_belief=rcl.AgentType(density=[1.0], label="p"),
        beliefs=rcl.BeliefSet(priors=[[1.0]], penalties=[0.0]),
        e_a=[e_a], e_p=[e_p], u=u, v=v, contract_lo=[lo], contract_hi=[hi],
    )


class TestBoxInsideDomains:
    # both utilities must be defined on the whole utility-unit box; building
    # a box that is not raises DomainError before anything is evaluated

    def test_half_line_principal_domain_error(self):
        # an upper contract bound beyond the principal's endowment pushes her
        # wealth negative, which a half-line utility must refuse: validation
        # rejects the instance, and the transform of the unvalidated one raises
        inst = one_atom_instance(rcl.log_utility(), rcl.crra(0.5), e_a=1.0, e_p=1.0,
                                 lo=0.0, hi=2.0)
        with pytest.raises(ValidationError, match="principal utility"):
            rcl.validate_instance(inst)
        with pytest.raises(DomainError, match="half line undefined"):
            rcl.to_utility_units(inst)

    def test_agent_inverse_refuses_a_face_level(self):
        # a CRRA agent has no wealth at a negative utility level, so a box
        # with its lower face there cannot be built, by replace either
        inst = rcl.validate_instance(one_atom_instance(
            rcl.crra(0.5), rcl.cara(1.0, "half-line"), e_a=1.0, e_p=2.0, lo=-0.5, hi=1.0))
        uu = rcl.to_utility_units(inst)
        with pytest.raises(DomainError, match="crra utility level must be >= 0"):
            dataclasses.replace(uu, c_lo=np.array([-0.1]))

    @staticmethod
    def refused_at_a_face(inst, who, tmp_path, capsys):
        # validation lists the face outside the grid with the other
        # violations, naming the utility; the transform of the unvalidated
        # instance raises the same DomainError, and so does every command
        message = f"{who} utility: tabulated utility evaluated outside its grid"
        with pytest.raises(ValidationError, match=message):
            rcl.validate_instance(inst)
        with pytest.raises(DomainError, match=message):
            rcl.to_utility_units(inst)
        path = tmp_path / "inst.json"
        rcl.save_instance(inst, path)
        for command in ("solve", "oracle"):
            out = tmp_path / command
            assert main([command, "--instance", str(path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (out / "result.json").exists()

    def test_tabulated_principal_short_of_the_lower_face(self, tmp_path, capsys):
        # the principal's wealth e_p - lo is largest at the lower face, and
        # her tabulated grid stops short of it (2.5 < 2.8)
        grid = np.geomspace(0.05, 2.5, 20)
        inst = one_atom_instance(
            rcl.log_utility(), rcl.UtilitySpec("tabulated", grid=grid, values=np.log(grid)),
            e_a=1.0, e_p=2.0, lo=-0.8, hi=1.5)
        self.refused_at_a_face(inst, "principal", tmp_path, capsys)

    def test_tabulated_agent_short_of_the_lower_face(self, tmp_path, capsys):
        # the agent's wealth e_a + lo = 0.2 at the lower face lies below his
        # tabulated grid, which the upper face (2.5) stays inside
        grid = np.geomspace(0.5, 6.0, 20)
        inst = one_atom_instance(
            rcl.UtilitySpec("tabulated", grid=grid, values=np.log(grid)), rcl.cara(1.0),
            e_a=1.0, e_p=2.0, lo=-0.8, hi=1.5)
        self.refused_at_a_face(inst, "agent", tmp_path, capsys)

    def test_whole_line_tabulated_principal_short_of_the_lower_face(self, tmp_path, capsys):
        # a CARA principal tabulated on [-5, 5] keeps 2 - 1 = 1 at the upper
        # face but would need 2 + 10 = 12 at the lower one
        grid = np.linspace(-5.0, 5.0, 41)
        inst = one_atom_instance(
            rcl.linear(), rcl.UtilitySpec("tabulated", grid=grid, values=-np.expm1(-grid)),
            e_a=1.0, e_p=2.0, lo=-10.0, hi=1.0)
        self.refused_at_a_face(inst, "principal", tmp_path, capsys)


    def test_principal_value_not_finite_at_a_face(self):
        # a CARA principal left with wealth 2 - 800 at the upper face has
        # utility 1 - exp(798) = -inf there: no box is built on it, and the
        # overflow is reported by the error alone
        inst = one_atom_instance(rcl.linear(), rcl.cara(1.0), e_a=1.0, e_p=2.0,
                                 lo=-1.0, hi=800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="principal utility: not finite"):
                rcl.validate_instance(inst)
            with pytest.raises(DomainError, match="principal utility: not finite"):
                rcl.to_utility_units(inst)

    def test_agent_value_overflowing_at_a_face(self, tmp_path, capsys):
        # a CARA agent left with wealth e_a - 800 at the lower face has
        # utility 1 - exp(800 - e_a) = -inf there: validation names the
        # agent's utility, quietly, and every command exits 1 on one line
        inst = dataclasses.replace(
            rcl.build_preset("reinsurance_wholeline"), u=rcl.cara(1.0), v=rcl.cara(0.5),
            contract_lo=np.array([-800.0, -1.0]), reservation=None)
        message = "agent utility: not finite at the contract bounds"
        path = tmp_path / "inst.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                rcl.validate_instance(inst)
            with pytest.raises(DomainError, match=message):
                rcl.to_utility_units(inst)
            rcl.save_instance(inst, path)
            for command in (["solve"], ["oracle", "--levels", "3"], ["menu", "--levels", "3"]):
                out = tmp_path / command[0]
                assert main([*command, "--instance", str(path), "--out", str(out)]) == 1
                assert capsys.readouterr().err == f"error: {message}\n"
                assert not (out / "result.json").exists()


class TestFromUtilityUnits:
    def test_log_zero_level_is_zero_transfer(self):
        inst = simple_instance(rcl.log_utility(), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[-0.5, -0.5], hi=[2.0, 2.0])
        uu = rcl.to_utility_units(inst)
        np.testing.assert_allclose(rcl.from_utility_units(uu, np.zeros(2)), 0.0, atol=1e-12)

    def test_cara_inversion(self):
        inst = simple_instance(rcl.cara(1.0), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[-1.0, -1.0], hi=[2.0, 2.0])
        uu = rcl.to_utility_units(inst)
        c = np.full(2, 1.0 - math.exp(-2.0))
        np.testing.assert_allclose(rcl.from_utility_units(uu, c), 1.0, atol=1e-12)

    def test_below_lower_bound_raises(self):
        inst = simple_instance(rcl.log_utility(), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[0.0, 0.0], hi=[2.0, 2.0])
        uu = rcl.to_utility_units(inst)
        with pytest.raises(RangeError):
            rcl.from_utility_units(uu, uu.c_lo - 1e-6)

    def test_nan_level_raises(self):
        inst = simple_instance(rcl.log_utility(), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[0.0, 0.0], hi=[2.0, 2.0])
        uu = rcl.to_utility_units(inst)
        with pytest.raises(RangeError):
            rcl.from_utility_units(uu, np.array([np.nan, uu.c_hi[1]]))

    def test_contract_of_the_wrong_length_raises(self):
        inst = simple_instance(rcl.log_utility(), e_a=[1.0, 1.0], e_p=[3.0, 3.0],
                               lo=[0.0, 0.0], hi=[2.0, 2.0])
        uu = rcl.to_utility_units(inst)
        with pytest.raises(RangeError) as exc:
            rcl.from_utility_units(uu, np.zeros(3))
        assert str(exc.value) == "contract length 3 does not match 2 atoms"

    def test_roundtrip_identity(self, rng):
        for _ in range(25):
            inst = make_instance(rng, m=3, n=2)
            uu = rcl.to_utility_units(inst)
            x = rng.uniform(0.9 * inst.contract_lo, 0.9 * inst.contract_hi)
            c = inst.u.value(inst.e_a + x)
            np.testing.assert_allclose(rcl.from_utility_units(uu, c), x, atol=1e-9)


class TestAgentUtility:
    def test_dot_product(self):
        states = rcl.StateSpace(ref_prob=[0.5, 0.5])
        t = rcl.AgentType(density=[1.0, 1.0])
        assert rcl.expectation(states, t, np.array([2.0, 4.0])) == pytest.approx(3.0)

    def test_signed_levels(self):
        states = rcl.StateSpace(ref_prob=[0.5, 0.5])
        t = rcl.AgentType(density=[1.2, 0.8])
        assert rcl.expectation(states, t, np.array([1.0, -1.0])) == pytest.approx(
            0.2, abs=1e-14
        )

    @given(lam=st.floats(-4.0, 4.0), c=st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    def test_bilinear_scaling(self, lam, c):
        states = rcl.StateSpace(ref_prob=[0.5, 0.5])
        t = rcl.AgentType(density=[1.2, 0.8])
        c = np.array(c)
        assert rcl.expectation(states, t, lam * c) == pytest.approx(
            lam * rcl.expectation(states, t, c), abs=1e-11
        )


class TestMonotonePreservation:
    def test_pointwise_order_carries_to_utilities(self, rng):
        for _ in range(20):
            inst = make_instance(rng, m=3, n=3)
            x = rng.uniform(0.8 * inst.contract_lo, 0.8 * inst.contract_hi)
            x_hi = x + rng.uniform(0.0, 0.1, size=x.shape)
            x_hi = np.minimum(x_hi, inst.contract_hi)
            c, c_hi = inst.u.value(inst.e_a + x), inst.u.value(inst.e_a + x_hi)
            for t in inst.types:
                assert rcl.expectation(inst.states, t, c) <= rcl.expectation(
                    inst.states, t, c_hi
                ) + 1e-12


class TestFeasibilityInvariance:
    def test_payoff_and_utility_unit_verdicts_agree(self, rng):
        # Truth-telling and participation verdicts must coincide across the
        # transform: the payoff-side utilities recompute the exact levels the
        # linear rows consume.
        agreements = 0
        for _ in range(10):
            inst = make_instance(rng, m=2, n=2)
            uu = rcl.to_utility_units(inst)
            system = rcl.build_system(uu)
            for mech in random_mechanisms(rng, uu, 10):
                linear_verdict = rcl.check_mechanism(system, mech, tol=1e-8).feasible
                x = np.stack([rcl.from_utility_units(uu, row) for row in mech.assignment])
                direct = True
                for j, t in enumerate(inst.types):
                    u_j = [
                        rcl.expectation(inst.states, t, inst.u.value(inst.e_a + x[k]))
                        for k in range(inst.n_types)
                    ]
                    if u_j[j] < inst.reservation[j] - 1e-8:
                        direct = False
                    if any(u_j[j] < u_j[k] - 1e-8 for k in range(inst.n_types)):
                        direct = False
                assert direct == linear_verdict
                agreements += 1
        assert agreements == 100


class TestAeCheck:
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_crra_estimate_equals_gamma(self, gamma):
        report = rcl.ae_check(rcl.crra(gamma))
        assert report.passed
        assert report.estimate == pytest.approx(gamma, abs=1e-3)

    def test_linear_fails_at_exactly_one(self):
        report = rcl.ae_check(rcl.linear("half-line"))
        assert not report.passed
        assert report.estimate == 1.0

    def test_shifted_log_tail_passes(self):
        # u(z) = ln(1+z): ratio z / ((1+z) ln(1+z)) peaks at the grid's left
        # end and is tiny by z = 1e6
        grid = np.geomspace(50.0, 2e6, 400)
        u = rcl.UtilitySpec("tabulated", grid=grid, values=np.log1p(grid),
                            derivs=1.0 / (1.0 + grid))
        report = rcl.ae_check(u)
        assert report.passed
        z = np.geomspace(1e2, 1e6, 200)
        direct = np.max(z / ((1.0 + z) * np.log1p(z)))
        assert report.estimate == pytest.approx(direct, rel=1e-3)

    def test_cara_tail_passes(self):
        report = rcl.ae_check(rcl.cara(0.5, "half-line"))
        assert report.passed and report.estimate < 0.01

    def test_negative_utility_inconclusive_until_shifted(self):
        grid = np.geomspace(50.0, 2e6, 300)
        u = rcl.UtilitySpec("tabulated", grid=grid, values=-1.0 / grid,
                            derivs=1.0 / grid**2)
        with pytest.raises(InconclusiveError):
            rcl.ae_check(u)

    def test_crra_scale_invariance(self):
        # reparameterizing z -> 2z leaves the crra elasticity ratio untouched
        gamma = 0.4
        base = rcl.ae_check(rcl.crra(gamma)).estimate
        grid = np.geomspace(50.0, 2e6, 500)
        scaled = rcl.UtilitySpec(
            "tabulated", grid=grid, values=(2.0 * grid) ** gamma / gamma,
            derivs=2.0 * (2.0 * grid) ** (gamma - 1.0),
        )
        assert rcl.ae_check(scaled).estimate == pytest.approx(base, abs=1e-6)
