"""Linear constraint assembly and mechanism feasibility checks."""

import numpy as np
import pytest

import rcl
from rcl.constraints import ic_rows
from rcl.errors import DimensionError, RangeError

from conftest import make_instance, make_uu, random_contracts, random_mechanisms


def uu_with_types(densities, q=(0.5, 0.5), reservation=None):
    m = len(q)
    states = rcl.StateSpace(ref_prob=np.array(q))
    types = [rcl.AgentType(density=np.array(d), label=f"theta{i}")
             for i, d in enumerate(densities)]
    n = len(types)
    inst = rcl.validate_instance(rcl.Instance(
        states=states,
        types=types,
        principal_belief=rcl.AgentType(density=np.ones(m), label="p"),
        beliefs=rcl.BeliefSet(priors=np.full((1, n), 1.0 / n), penalties=[0.0]),
        e_a=np.full(m, 1.0),
        e_p=np.full(m, 3.0),
        u=rcl.log_utility(),
        v=rcl.cara(1.0),
        contract_lo=np.full(m, -0.9),
        contract_hi=np.full(m, 3.0),
        reservation=reservation,
    ))
    return rcl.to_utility_units(inst)


class TestAgentLevels:
    def test_matches_expectation(self, rng):
        # the same weights and the same `_row_dots` sum as the model's expectation
        uu = make_uu(rng, n=3, m=4)
        contracts = random_contracts(rng, uu, 5)
        levels = rcl.agent_levels(uu, contracts)
        assert levels.shape == (3, 5)
        for j, t in enumerate(uu.base.types):
            for g, c in enumerate(contracts):
                assert levels[j, g] == rcl.expectation(uu.states, t, c)

    def test_column_independent_of_neighbours(self, rng):
        # a contract's levels are bitwise the same alone or beside others, in
        # any order, repeated, or laid out in Fortran order or as a strided view
        for m in (2, 8, 40):
            uu = make_uu(rng, n=3, m=m)
            contracts = random_contracts(rng, uu, 6)
            levels = rcl.agent_levels(uu, contracts)
            layouts = {
                "reversed": (contracts[::-1], levels[:, ::-1]),
                "repeated": (np.tile(contracts, (3, 1)), np.tile(levels, 3)),
                "fortran": (np.asfortranarray(contracts), levels),
                "strided": (np.repeat(contracts, 2, axis=0)[::2], levels),
            }
            for name, (batch, expected) in layouts.items():
                np.testing.assert_array_equal(rcl.agent_levels(uu, batch), expected, err_msg=name)
            for g, c in enumerate(contracts):
                np.testing.assert_array_equal(rcl.agent_levels(uu, c)[:, 0], levels[:, g])
                np.testing.assert_array_equal(
                    rcl.agent_levels(uu, contracts[g:])[:, 0], levels[:, g])


def _row_name(entry):
    """(kind, j, k) of a row_slacks entry such as IC(0,2) or IR(1)."""
    kind, rest = entry["row"][:2], entry["row"][3:-1]
    idx = [int(x) for x in rest.split(",")]
    return kind, idx[0], idx[1] if kind == "IC" else None


class TestBuildSystem:
    @pytest.mark.parametrize("n,ic,ir", [(1, 0, 1), (2, 2, 2), (3, 6, 3)])
    def test_row_counts(self, rng, n, ic, ir):
        uu = make_uu(rng, n=n, m=2)
        system = rcl.build_system(uu)
        a, b = system.rows(np.ones(n * n, dtype=bool))
        assert a.shape == (n * n, n * 2) and b.shape == (n * n,)
        report = rcl.check_mechanism(system, rcl.Mechanism(np.tile(uu.c_hi, (n, 1))))
        kinds = [_row_name(entry)[0] for entry in report.row_slacks]
        assert kinds == ["IC"] * ic + ["IR"] * ir
        assert ic == n * (n - 1) and ir == n

    def test_rows_supported_on_their_types(self, rng):
        uu = make_uu(rng, n=3, m=2)
        system = rcl.build_system(uu)
        a, b = system.rows(np.ones(9, dtype=bool))
        report = rcl.check_mechanism(system, rcl.Mechanism(np.tile(uu.c_hi, (3, 1))))
        weights = uu.base.type_weights()
        for coeffs, rhs, entry in zip(a.reshape(-1, 3, 2), b, report.row_slacks):
            kind, j, k = _row_name(entry)
            support = {t for t in range(3) if np.any(coeffs[t] != 0.0)}
            expected = {j} if k is None else {j, k}
            assert support == expected
            np.testing.assert_array_equal(coeffs[j], weights[j])
            if k is None:
                assert rhs == uu.reservation[j]
            else:
                np.testing.assert_array_equal(coeffs[k], -weights[j])
                assert rhs == 0.0

    def test_pooling_ic_slacks_exactly_zero(self):
        uu = uu_with_types([(1.3, 0.7), (0.6, 1.4)])
        system = rcl.build_system(uu)
        pooled = rcl.Mechanism(np.tile(uu.c_hi, (2, 1)))
        report = rcl.check_mechanism(system, pooled)
        ic = [entry["slack"] for entry in report.row_slacks if entry["row"].startswith("IC")]
        assert ic == [0.0, 0.0]
        assert report.max_ic_violation == 0.0

    def test_pooling_at_endowment_binds_reservation_exactly(self):
        uu = uu_with_types([(1.3, 0.7), (0.6, 1.4)])
        system = rcl.build_system(uu)
        base = uu.base.u.value(uu.base.e_a)
        pooled = rcl.Mechanism(np.tile(base, (2, 1)))
        report = rcl.check_mechanism(system, pooled)
        assert report.feasible
        assert len(report.row_slacks) == 4
        for entry in report.row_slacks:
            assert entry["slack"] == 0.0


class TestRowExport:
    # the rows a mask picks and the residual over every row, both in the
    # row order `ic_pairs` defines, then IR

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_ic_rows_name_rows_by_type_pair(self, rng, n):
        # IC(j,k) for each j and each k != j; an own x other mask picks
        # IC(j,k) exactly where mask[j, k] is set, whatever its diagonal holds
        system = rcl.build_system(make_uu(rng, n=n, m=2))
        assert system.ic_pairs() == [(j, k) for j in range(n) for k in range(n) if k != j]
        for _ in range(4):
            mask = rng.random((n, n)) < 0.5
            picked = [pair for pair, keep in zip(system.ic_pairs(), ic_rows(mask)) if keep]
            assert picked == [(j, k) for j, k in zip(*np.nonzero(mask)) if j != k]

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_masked_rows(self, rng, n):
        uu = make_uu(rng, n=n, m=3)
        system = rcl.build_system(uu)
        labels = system.ic_pairs() + [(j, None) for j in range(n)]
        weights = uu.base.type_weights()
        every_a, every_b = system.rows(np.ones(n * n, dtype=bool))
        for _ in range(6):
            mask = rng.random(n * n) < 0.5
            a, b = system.rows(mask)
            np.testing.assert_array_equal(a, every_a[mask])
            np.testing.assert_array_equal(b, every_b[mask])
            picked = [label for label, keep in zip(labels, mask) if keep]
            for coeffs, rhs, (j, k) in zip(a.reshape(-1, n, 3), b, picked):
                support = {t for t in range(n) if np.any(coeffs[t] != 0.0)}
                assert support == ({j} if k is None else {j, k})
                np.testing.assert_array_equal(coeffs[j], weights[j])
                if k is None:
                    assert rhs == uu.reservation[j]
                else:
                    np.testing.assert_array_equal(coeffs[k], -weights[j])
                    assert rhs == 0.0

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_residual_matches_the_rows(self, rng, n):
        uu = make_uu(rng, n=n, m=3)
        system = rcl.build_system(uu)
        a, b = system.rows(np.ones(n * n, dtype=bool))
        for mech in random_mechanisms(rng, uu, 6):
            c = mech.assignment
            residual = system.residual(c)
            np.testing.assert_array_equal(system.residual(c.ravel()), residual)
            np.testing.assert_array_equal(residual, np.concatenate(system.slacks(mech)))
            scale = max(1.0, float((np.abs(a) @ np.abs(c.ravel()) + np.abs(b)).max()))
            np.testing.assert_allclose(residual, a @ c.ravel() - b, rtol=0,
                                       atol=1e-15 * scale)
            pooled = np.tile(c[0], (n, 1))
            assert (system.residual(pooled)[:n * (n - 1)] == 0.0).all()


class TestCheckMechanism:
    def test_separating_swap_violates_ic(self):
        # strictly separating contracts: each type prefers the contract
        # aligned with its own density, so the swap breaks truth-telling
        uu = uu_with_types([(1.8, 0.2), (0.2, 1.8)], reservation=[-5.0, -5.0])
        system = rcl.build_system(uu)
        c_good = np.array([1.0, -1.0])
        c_bad = np.array([-1.0, 1.0])
        straight = rcl.Mechanism(np.stack([c_good, c_bad]))
        report = rcl.check_mechanism(system, straight)
        assert report.feasible
        # direct evaluation: slack of IC(0,1) is E_0[c_good - c_bad] = 1.6
        assert report.row_slacks[0]["slack"] == pytest.approx(1.6, abs=1e-12)
        swapped = rcl.Mechanism(np.stack([c_bad, c_good]))
        report = rcl.check_mechanism(system, swapped)
        assert not report.feasible
        assert report.max_ic_violation == pytest.approx(1.6, abs=1e-12)

    def test_below_reservation_flags_ir(self):
        uu = uu_with_types([(1.0, 1.0)], reservation=[0.5])
        system = rcl.build_system(uu)
        report = rcl.check_mechanism(system, rcl.Mechanism(np.zeros((1, 2))))
        assert not report.feasible
        assert report.max_ir_violation == pytest.approx(0.5)
        assert report.max_ic_violation == 0.0

    @pytest.mark.parametrize("tol", [-1e-9, np.inf, np.nan])
    def test_rejects_bad_tol(self, tol):
        # an infinite tol would call any mechanism feasible
        uu = uu_with_types([(1.0, 1.0)], reservation=[0.5])
        with pytest.raises(RangeError, match="tol"):
            rcl.check_mechanism(rcl.build_system(uu), rcl.Mechanism(np.zeros((1, 2))), tol)

    def test_nan_mechanism_is_infeasible(self):
        # max(0.0, -nan) is 0.0: a NaN slack must not read as satisfied
        uu = rcl.to_utility_units(rcl.build_preset("reinsurance_halfline"))
        system = rcl.build_system(uu)
        report = rcl.check_mechanism(
            system, rcl.Mechanism(np.full((uu.n_types, uu.n_atoms), np.nan)))
        assert not report.feasible
        assert not report.max_ic_violation <= 0.0
        assert not report.max_ir_violation <= 0.0
        # a NaN in the last row only, among finite slacks
        assignment = np.tile(uu.c_hi, (uu.n_types, 1))
        assignment[-1, 0] = np.nan
        report = rcl.check_mechanism(system, rcl.Mechanism(assignment))
        assert not report.feasible
        assert not report.max_ir_violation <= 0.0

    def test_dimension_mismatch(self, rng):
        uu = make_uu(rng, n=2, m=2)
        system = rcl.build_system(uu)
        with pytest.raises(DimensionError):
            rcl.check_mechanism(system, rcl.Mechanism(np.zeros((3, 2))))

    def test_truthful_reporting_optimal_for_feasible(self, rng):
        found = 0
        for _ in range(20):
            uu = make_uu(rng, n=3, m=2)
            uu.base.reservation = np.full(uu.n_types, -10.0)
            system = rcl.build_system(uu)
            for mech in self._self_selected(rng, uu, 5):
                report = rcl.check_mechanism(system, mech)
                assert report.feasible
                found += 1
                for j, tj in enumerate(uu.base.types):
                    own = rcl.expectation(uu.states, tj, mech.assignment[j])
                    for k in range(uu.n_types):
                        other = rcl.expectation(uu.states, tj, mech.assignment[k])
                        assert own >= other - 1e-8
        assert found == 100

    @staticmethod
    def _self_selected(rng, uu, count):
        """Feasible mechanisms: every type takes its favorite of a random set."""
        weights = uu.base.type_weights()
        out = []
        for _ in range(count):
            pool = rng.uniform(uu.c_lo, uu.c_hi, size=(uu.n_types + 1, uu.n_atoms))
            picks = np.argmax(weights @ pool.T, axis=1)
            out.append(rcl.Mechanism(pool[picks]))
        return out

    def test_feasible_set_convex(self, rng):
        # convex combinations of feasible mechanisms stay feasible
        checked = 0
        for _ in range(20):
            uu = make_uu(rng, n=2, m=2)
            # low reservations leave truth-telling as the only live block
            uu.base.reservation = np.full(uu.n_types, -10.0)
            system = rcl.build_system(uu)
            feasible = self._self_selected(rng, uu, 6)
            for a, b in zip(feasible, feasible[1:]):
                lam = rng.uniform()
                blend = rcl.Mechanism(lam * a.assignment + (1 - lam) * b.assignment)
                report = rcl.check_mechanism(system, blend, tol=1e-10)
                assert report.feasible
                checked += 1
        assert checked == 100

    def test_atom_permutation_invariance(self, rng):
        inst = make_instance(rng, m=3, n=2)
        uu = rcl.to_utility_units(inst)
        system = rcl.build_system(uu)
        mech = random_mechanisms(rng, uu, 1)[0]
        slacks = [e["slack"] for e in rcl.check_mechanism(system, mech).row_slacks]

        perm = np.array([2, 0, 1])
        pinst = rcl.validate_instance(rcl.Instance(
            states=rcl.StateSpace(ref_prob=inst.states.ref_prob[perm]),
            types=[rcl.AgentType(density=t.density[perm], label=t.label)
                   for t in inst.types],
            principal_belief=rcl.AgentType(
                density=inst.principal_belief.density[perm], label="p"),
            beliefs=inst.beliefs,
            e_a=inst.e_a[perm],
            e_p=inst.e_p[perm],
            u=inst.u,
            v=inst.v,
            contract_lo=inst.contract_lo[perm],
            contract_hi=inst.contract_hi[perm],
            reservation=inst.reservation,
        ))
        puu = rcl.to_utility_units(pinst)
        psystem = rcl.build_system(puu)
        pmech = rcl.Mechanism(mech.assignment[:, perm])
        pslacks = [e["slack"] for e in rcl.check_mechanism(psystem, pmech).row_slacks]
        np.testing.assert_allclose(pslacks, slacks, atol=1e-12)

    def test_report_serializes(self, rng):
        uu = make_uu(rng)
        system = rcl.build_system(uu)
        report = rcl.check_mechanism(system, rcl.Mechanism(np.tile(uu.c_hi, (2, 1))))
        doc = report.to_json()
        assert {"feasible", "max_ic_violation", "max_ir_violation", "row_slacks"} <= set(doc)
        assert len(doc["row_slacks"]) == system.rows(np.ones(4, dtype=bool))[0].shape[0]
