"""Menus, self-selection, menu optimization and the equivalence certificate."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcl
import rcl.menu as menu_module
from rcl.errors import PreconditionError, RclError, SizeCapError, ValidationError
from rcl.menu import DEFAULT_TIE_TOL

from conftest import make_uu, random_contracts


def two_atom_uu(densities, reservation=None, e_p=3.0):
    m = 2
    states = rcl.StateSpace(ref_prob=np.array([0.5, 0.5]))
    types = [rcl.AgentType(density=np.array(d), label=f"theta{i}")
             for i, d in enumerate(densities)]
    n = len(types)
    inst = rcl.validate_instance(rcl.Instance(
        states=states,
        types=types,
        principal_belief=rcl.AgentType(density=np.ones(m), label="p"),
        beliefs=rcl.BeliefSet(priors=np.full((1, n), 1.0 / n), penalties=[0.0]),
        e_a=np.full(m, 1.0),
        e_p=np.full(m, e_p),
        u=rcl.log_utility(),
        v=rcl.cara(1.0, "half-line"),
        contract_lo=np.full(m, -0.9),
        contract_hi=np.full(m, e_p),
        reservation=reservation,
    ))
    return rcl.to_utility_units(inst)


class TestMenuBasics:
    def test_dedup_and_nonempty(self):
        menu = rcl.Menu(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.5, 0.5]]))
        np.testing.assert_array_equal(menu.contracts, [[1.0, 2.0], [0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            rcl.Menu(np.empty((0, 2)))

    def test_distinct_rows_kept_however_close(self):
        # rows 5.8e-13 apart that solve_menu scores as a pair: merging them
        # left a menu that is not IR, and extraction then failed
        uu = two_atom_uu([(1.2, 0.8)])
        w = uu.base.type_weights()[0]
        g = 0.5 * (uu.c_lo + uu.c_hi)
        a = g + 5e-13 * w / (w @ w)
        uu.base.reservation = np.array([w @ a + 1e-9 - 2.5e-13])
        menu, value = rcl.solve_menu(np.stack([g, a]), uu)
        np.testing.assert_array_equal(menu.contracts, [g, a])
        mech = rcl.extract_mechanism(menu, uu)
        assert rcl.principal_value(uu, mech)[0] == value
        report = rcl.equivalence_check(np.stack([g, a]), uu)
        assert report.agent_optimal_sets["theta0"] == [0, 1]

    def test_nan_contract_rejected(self):
        # NaN is no duplicate of anything: it must not swallow the other rows
        for contracts in ([[np.nan, 1.0], [0.5, 0.5]], [[0.5, 0.5], [0.2, np.inf]]):
            with pytest.raises(ValidationError, match="finite"):
                rcl.Menu(np.array(contracts))

    def test_best_value_singleton(self):
        uu = two_atom_uu([(1.2, 0.8)])
        menu = rcl.Menu(np.array([[1.0, -1.0]]))
        best, _, _ = rcl.menu_choices(uu, menu)
        assert best[0] == pytest.approx(0.2, abs=1e-14)

    def test_best_value_dominating_contract(self):
        uu = two_atom_uu([(1.2, 0.8)])
        menu = rcl.Menu(np.array([[0.0, 0.0], [0.5, 0.5]]))
        best, _, _ = rcl.menu_choices(uu, menu)
        assert best[0] == pytest.approx(0.5, abs=1e-14)

    def test_best_value_two_dots(self):
        uu = two_atom_uu([(1.2, 0.8)])
        menu = rcl.Menu(np.array([[1.0, 0.0], [0.0, 1.0]]))
        best, _, _ = rcl.menu_choices(uu, menu)
        assert best[0] == pytest.approx(0.6, abs=1e-14)

    def test_menu_monotone_under_inclusion(self, rng):
        uu = make_uu(rng, m=2, n=3)
        pool = random_contracts(rng, uu, 6)
        small, _, _ = rcl.menu_choices(uu, rcl.Menu(pool[:3]))
        large, _, _ = rcl.menu_choices(uu, rcl.Menu(pool))
        assert np.all(small <= large + 1e-15)


def window_of(uu, menu, j=0):
    _, window, _ = rcl.menu_choices(uu, menu)
    return list(np.flatnonzero(window[j]))


class TestOptimalContracts:
    def test_strict_maximizer_is_singleton(self):
        uu = two_atom_uu([(1.2, 0.8)])
        menu = rcl.Menu(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert window_of(uu, menu) == [0]

    def test_exact_tie_returns_both(self):
        uu = two_atom_uu([(1.0, 1.0)])
        menu = rcl.Menu(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert window_of(uu, menu) == [0, 1]

    def test_uniform_type_indifferent_across_zero_mean(self):
        uu = two_atom_uu([(1.0, 1.0)])
        menu = rcl.Menu(np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]]))
        assert window_of(uu, menu) == [0, 1, 2]

    def test_members_attain_best_value(self, rng):
        uu = make_uu(rng, m=3, n=2)
        menu = rcl.Menu(random_contracts(rng, uu, 5))
        best, window, _ = rcl.menu_choices(uu, menu)
        for j, t in enumerate(uu.base.types):
            picks = np.flatnonzero(window[j])
            assert picks.size >= 1
            for g in picks:
                got = rcl.expectation(uu.states, t, menu.contracts[g])
                assert got >= best[j] - 1e-9


class TestPrincipalMenuValue:
    def test_singleton(self):
        uu = two_atom_uu([(1.2, 0.8)])
        menu = rcl.Menu(np.array([[0.1, 0.2]]))
        direct = rcl.contract_values(uu, menu.contracts)[0]
        _, _, favoured = rcl.menu_choices(uu, menu)
        assert favoured[0] == direct

    def test_ties_resolve_for_principal(self):
        # uniform agent indifferent; principal prefers the cheaper contract
        uu = two_atom_uu([(1.0, 1.0)])
        menu = rcl.Menu(np.array([[0.3, -0.3], [-0.3, 0.3]]))
        vals = rcl.contract_values(uu, menu.contracts)
        _, _, favoured = rcl.menu_choices(uu, menu)
        assert favoured[0] == max(vals)

    def test_upper_bounded_by_unrestricted_best(self, rng):
        uu = make_uu(rng, m=2, n=2)
        menu = rcl.Menu(random_contracts(rng, uu, 5))
        cap = max(rcl.contract_values(uu, menu.contracts))
        _, _, favoured = rcl.menu_choices(uu, menu)
        assert np.all(favoured <= cap + 1e-15)


class TestSolveMenu:
    def test_single_candidate(self, rng):
        uu = make_uu(rng, m=2, n=2)
        candidates = np.array([uu.c_hi])
        menu, value = rcl.solve_menu(candidates, uu)
        assert len(menu.contracts) == 1
        _, _, per_type = rcl.menu_choices(uu, menu)
        expected, _ = uu.base.beliefs.robust_value(per_type)
        assert value == expected

    def test_irrelevant_alternative_dropped(self, rng):
        uu = make_uu(rng, m=2, n=2)
        good = uu.c_hi.copy()
        dominated = uu.c_lo.copy()  # strictly worse for every type
        menu, value = rcl.solve_menu(np.array([good, dominated]), uu)
        menu_only, value_only = rcl.solve_menu(np.array([good]), uu)
        assert value == value_only
        assert len(menu.contracts) == 1
        np.testing.assert_array_equal(menu.contracts, menu_only.contracts)

    def test_candidate_cap(self, rng):
        # the cap counts the subsets walked: sizes 1..4 of 40 at two types
        uu = make_uu(rng, m=2, n=2)
        with pytest.raises(SizeCapError, match="102090"):
            rcl.solve_menu(random_contracts(rng, uu, 40), uu)

    def test_seventeen_candidates_solve(self, rng):
        # 3,213 subsets of at most 4 contracts, inside the cap
        uu = make_uu(rng, m=2, n=2)
        candidates = random_contracts(rng, uu, 17)
        candidates[0] = uu.c_hi
        menu, _ = rcl.solve_menu(candidates, uu)
        assert 1 <= len(menu.contracts) <= 4

    def test_out_of_bounds_candidates_rejected(self, rng):
        uu = make_uu(rng, m=2, n=2)
        with pytest.raises(ValidationError, match="bounds"):
            rcl.solve_menu(np.array([uu.c_hi + 1.0]), uu)

    def test_nan_candidate_rejected(self, rng):
        uu = make_uu(rng, m=2, n=2)
        candidates = np.array([uu.c_hi, [np.nan, uu.c_hi[1]]])
        with pytest.raises(ValidationError, match="bounds"):
            rcl.solve_menu(candidates, uu)

    def test_no_ir_subset_raises(self):
        uu = two_atom_uu([(1.2, 0.8)], reservation=[0.9])
        with pytest.raises(ValidationError, match="individually rational"):
            rcl.solve_menu(np.array([[0.0, 0.0], [0.2, 0.2]]), uu)


def full_walk(candidates, uu, max_size=None):
    """Reference optimum: every non-empty subset (of at most max_size
    contracts), by size and then lexicographically, one at a time, scored by
    the menu-choice rule written out here (best level, IR floor, tie window,
    favoured value) on column slices of the levels and values of all
    candidates, which `agent_levels` and `contract_values` give bitwise as
    for the subset alone; a strictly better value replaces the incumbent.
    (None, -inf) when no subset is IR."""
    levels = rcl.agent_levels(uu, candidates)
    values = rcl.contract_values(uu, candidates)
    floor = uu.reservation - DEFAULT_TIE_TOL
    best_members, best_value = None, -np.inf
    for size in range(1, (max_size or len(candidates)) + 1):
        for members in map(list, itertools.combinations(range(len(candidates)), size)):
            level = levels[:, members]
            best = level.max(axis=1)
            if np.any(best < floor):
                continue
            window = level >= best[:, None] - DEFAULT_TIE_TOL
            favoured = np.where(window, values[members], -np.inf).max(axis=1)
            value, _ = uu.base.beliefs.robust_value(favoured)
            if value > best_value:
                best_members, best_value = members, value
    return best_members, best_value


def reference_walk(candidates, uu):
    """The pruned one-subset-at-a-time walk: `full_walk` over the subsets of
    at most 2·n_types contracts, which `solve_menu` must match bitwise."""
    return full_walk(candidates, uu, min(len(candidates), 2 * uu.n_types))


def near_tie_case(seed, family, n, count):
    """Random candidates, some of them copies of an earlier one moved along a
    type's level direction by up to 1.5e-9 in level. For half the copies
    that type's reservation is set up to the tie window above the higher of
    the two levels, where an optimal menu may need both. The copied
    contract is often the principal's favourite so far, so the pair is
    likely to be picked."""
    rng = np.random.default_rng(seed)
    uu = make_uu(rng, m=int(rng.integers(1, 4)), n=n, family=family,
                 n_priors=int(rng.integers(1, 4)), random_penalties=True)
    w = uu.base.type_weights()
    candidates = random_contracts(rng, uu, count)
    candidates[0] = uu.c_hi
    values = rcl.contract_values(uu, candidates)
    reservation = uu.reservation.copy()
    for g in range(2, count):
        if rng.random() < 0.4:
            j = rng.integers(n)
            src = 1 + int(np.argmax(values[1:g])) if rng.random() < 0.5 else rng.integers(1, g)
            candidates[g] = candidates[src] + rng.uniform(-1.5e-9, 1.5e-9) * w[j] / (w[j] @ w[j])
            if rng.random() < 0.5:
                top = max(w[j] @ candidates[src], w[j] @ candidates[g])
                reservation[j] = top + rng.uniform(0.0, 1e-9)
    uu.base.reservation = reservation
    return uu, candidates


class TestPrunedWalk:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["log", "crra", "cara", "linear"]),
        n=st.integers(1, 4),
        count=st.integers(1, 12),
    )
    def test_matches_full_walk(self, seed, family, n, count):
        # walking only subsets of at most 2 n contracts finds the full
        # walk's menu and its value to the last bit
        uu, candidates = near_tie_case(seed, family, n, count)
        members, value = full_walk(candidates, uu)
        if members is None:
            with pytest.raises(ValidationError, match="individually rational"):
                rcl.solve_menu(candidates, uu)
            return
        menu, got = rcl.solve_menu(candidates, uu)
        assert got == value
        np.testing.assert_array_equal(menu.contracts, rcl.Menu(candidates[members]).contracts)

    def test_one_type_needs_two_contracts(self):
        # a = g + 0.5e-9 w / |w|^2 clears a reservation that g misses by
        # 0.3e-9, and g sits in the tie window of a with a better value for
        # the principal: only {a, g} attains the optimum, so a walk bounded
        # at n_types contracts would miss it
        uu = two_atom_uu([(1.2, 0.8)])
        w = uu.base.type_weights()[0]
        g = 0.5 * (uu.c_lo + uu.c_hi)
        a = g + 0.5e-9 * w / (w @ w)
        uu.base.reservation = np.array([w @ a + 0.8e-9])
        candidates = np.stack([g, a])
        menu, value = rcl.solve_menu(candidates, uu)
        assert len(menu.contracts) == 2
        with pytest.raises(ValidationError, match="individually rational"):
            rcl.solve_menu(candidates[:1], uu)
        _, singleton = rcl.solve_menu(candidates[1:], uu)
        assert value > singleton


def exact_tie_case(seed, n, count):
    """Candidates drawn with repetition from a few contracts and their mirror
    images, on a two-atom instance symmetric under swapping the atoms whose
    types come in mirrored pairs: many subsets have bitwise equal favoured
    values, or robust values, so size and then lexicographic order decide."""
    rng = np.random.default_rng(seed)
    tilts = np.repeat(rng.uniform(0.05, 0.4, (n + 1) // 2), 2)[:n]
    uu = two_atom_uu([(1 + t, 1 - t) if j % 2 else (1 - t, 1 + t)
                      for j, t in enumerate(tilts)])
    pool = rng.uniform(uu.c_lo, uu.c_hi, (int(rng.integers(1, 4)), 2))
    pool = np.vstack([pool, pool[:, ::-1], uu.c_hi])
    levels = rcl.agent_levels(uu, pool)
    share = np.repeat(rng.uniform(0.0, 1.0, (n + 1) // 2), 2)[:n]
    uu.base.reservation = levels.min(axis=1) + share * np.ptp(levels, axis=1)
    return uu, pool[rng.integers(0, len(pool), count)]


def one_ulp_case(seed, n, count):
    """Each candidate a copy of the one before, nudged ulp by ulp until the
    principal's value moves, up or down, mostly by one ulp. Every type clears
    a low reservation with every contract and one prior carries no penalty,
    so a menu's robust value is P·(v, ..., v) for its best value v: with one
    type (n = 1) exactly v, so robust values one ulp apart; with 8·n types,
    a sum long enough for numpy's pairwise routine to split, which any other
    order of summation may round apart."""
    rng = np.random.default_rng(seed)
    uu = make_uu(rng, m=2, n=1 if n == 1 else 8 * n, n_priors=1)
    uu.base.reservation = np.full(uu.n_types, -10.0)
    rows = [0.5 * (uu.c_lo + uu.c_hi) + 0.1 * (uu.c_hi - uu.c_lo) * rng.uniform(-1, 1, 2)]
    for _ in range(count - 1):
        c = rows[-1].copy()
        value = rcl.contract_values(uu, c[None])[0]
        # the principal's value falls as the contract rises
        direction = np.inf if rng.random() < 0.5 else -np.inf
        for _ in range(64):
            c[0] = np.nextafter(c[0], direction)
            if rcl.contract_values(uu, c[None])[0] != value:
                break
        rows.append(c)
    return uu, np.array(rows)


def with_priors(uu, rng, n_priors):
    """Replace the belief set by n_priors random priors, with penalties of
    either sign from 1e-3 to 1e6 in size, or zero."""
    penalties = rng.choice([-1.0, 1.0], n_priors) * 10.0 ** rng.uniform(-3, 6, n_priors)
    penalties[rng.random(n_priors) < 0.3] = 0.0
    uu.base.beliefs = rcl.BeliefSet(
        priors=rng.dirichlet(np.ones(uu.n_types), n_priors), penalties=penalties)


FAMILIES = ["log", "crra", "cara", "linear"]
WALK_CASES = {
    "near_tie": lambda seed, n, count: near_tie_case(seed, FAMILIES[seed % 4], n, count),
    "exact_tie": exact_tie_case,
    "one_ulp": one_ulp_case,
}


class TestBatchedWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(sorted(WALK_CASES)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        count=st.integers(1, 10),
        n_priors=st.integers(0, 4),
        chunk=st.sampled_from([1, 7, 64, None]),
    )
    @example(case="exact_tie", seed=3, n=2, count=10, n_priors=0, chunk=1)
    @example(case="near_tie", seed=5, n=3, count=10, n_priors=4, chunk=7)
    @example(case="one_ulp", seed=1, n=1, count=10, n_priors=0, chunk=1)
    @example(case="one_ulp", seed=2, n=3, count=10, n_priors=0, chunk=None)
    def test_matches_reference_walk(self, case, seed, n, count, n_priors, chunk):
        # batched scoring returns the one-subset walk's menu and value to the
        # last bit, also when a size spans several blocks of `chunk` cells;
        # n_priors > 0 swaps in 1-4 priors with penalties up to 1e6 in size
        uu, candidates = WALK_CASES[case](seed, n, count)
        if n_priors and case != "one_ulp":
            with_priors(uu, np.random.default_rng(seed), n_priors)
        members, value = reference_walk(candidates, uu)
        with mock.patch.object(menu_module, "_CHUNK", chunk or menu_module._CHUNK):
            if members is None:
                with pytest.raises(ValidationError, match="individually rational"):
                    rcl.solve_menu(candidates, uu)
                return
            menu, got = rcl.solve_menu(candidates, uu)
        assert got == value
        np.testing.assert_array_equal(menu.contracts, rcl.Menu(candidates[members]).contracts)

    def test_many_types_memory_is_bounded(self, rng):
        # 65,535 subsets of 16 candidates at 128 types; one batch per size
        # would hold 128 x 12,870 x 8 level cells (100 MiB) at size 8
        uu = make_uu(rng, m=2, n=128)
        candidates = random_contracts(rng, uu, 16)
        candidates[0] = uu.c_hi
        tracemalloc.start()
        try:
            menu, value = rcl.solve_menu(candidates, uu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert rcl.principal_value(uu, rcl.extract_mechanism(menu, uu))[0] == value

    def test_one_type_many_candidates(self, rng):
        # 361 + C(361, 2) = 65,341 subsets, inside the cap
        uu = make_uu(rng, m=2, n=1)
        candidates = random_contracts(rng, uu, 361)
        candidates[0] = uu.c_hi
        members, value = reference_walk(candidates, uu)
        menu, got = rcl.solve_menu(candidates, uu)
        assert got == value
        np.testing.assert_array_equal(menu.contracts, candidates[members])

    def test_cap_checked_before_any_subset_is_built(self, rng, monkeypatch):
        def unreachable(*args):
            raise AssertionError("subsets built before the cap check")
        monkeypatch.setattr(itertools, "combinations", unreachable)
        monkeypatch.setattr(menu_module, "agent_levels", unreachable)
        uu = make_uu(rng, m=2, n=2)
        with pytest.raises(SizeCapError, match="66018450"):
            rcl.solve_menu(random_contracts(rng, uu, 200), uu)


class TestExtractMechanism:
    def test_singleton_menu_pools(self, rng):
        uu = make_uu(rng, m=2, n=3)
        menu = rcl.Menu(np.array([uu.c_hi]))
        mech = rcl.extract_mechanism(menu, uu)
        for row in mech.assignment:
            np.testing.assert_array_equal(row, uu.c_hi)

    def test_requires_ir_menu(self):
        uu = two_atom_uu([(1.2, 0.8)], reservation=[0.9])
        with pytest.raises(PreconditionError):
            rcl.extract_mechanism(rcl.Menu(np.array([[0.0, 0.0]])), uu)

    def test_extracted_always_feasible(self, rng):
        # IR menus produce feasible mechanisms, 100 out of 100
        passed = 0
        for _ in range(25):
            uu = make_uu(rng, m=2, n=2)
            uu.base.reservation = np.full(uu.n_types, -10.0)
            system = rcl.build_system(uu)
            for _ in range(4):
                menu = rcl.Menu(random_contracts(rng, uu, 4))
                mech = rcl.extract_mechanism(menu, uu)
                assert rcl.check_mechanism(system, mech).feasible
                passed += 1
        assert passed == 100

    def test_extraction_reproduces_menu_value_exactly(self, rng):
        for _ in range(10):
            uu = make_uu(rng, m=2, n=2)
            candidates = random_contracts(rng, uu, 5)
            candidates[0] = uu.c_hi  # keep at least one IR subset
            menu, value = rcl.solve_menu(candidates, uu)
            mech = rcl.extract_mechanism(menu, uu)
            extracted_value, _ = rcl.principal_value(uu, mech)
            assert extracted_value == value


def knife_edge_case(rng):
    """Two 8-atom contracts on the edge of type 0's tie window.

    c2 = c1 - 1e-9 v with w0 @ v = 1 and w1 @ v = 5: type 0 loses exactly
    the tie tolerance on c2 and type 1 five times that, below a reservation
    that only c1 clears. c2 is then nudged by ulps until a matrix product
    W @ C.T and the per-type products C @ w0 disagree on whether it lies in
    type 0's window (the unnudged pair if they never do).
    """
    uu = make_uu(rng, m=8, n=2)
    w = uu.base.type_weights()
    v = np.linalg.solve(w @ w.T, np.array([1.0, 5.0])) @ w
    c1 = 0.5 * (uu.c_lo + uu.c_hi) + 0.05 * (uu.c_hi - uu.c_lo) * rng.uniform(-1, 1, 8)
    c2 = c1 - 1e-9 * v
    uu.base.reservation = np.array([-10.0, w[1] @ c1 - 1e-10])
    for i, direction in itertools.product(range(8), (np.inf, -np.inf)):
        c = c2.copy()
        for _ in range(64):
            pair = np.stack([c1, c])
            by_matrix = (w @ pair.T)[0]
            by_type = pair @ w[0]
            if ((by_matrix[1] >= by_matrix.max() - 1e-9)
                    != (by_type[1] >= by_type.max() - 1e-9)):
                return uu, pair
            c[i] = np.nextafter(c[i], direction)
    return uu, np.stack([c1, c2])


class TestKnifeEdgeRounding:
    def test_menu_value_extraction_and_sets_agree(self):
        # the menu optimum, the mechanism extracted from it and the reported
        # optimal sets read one level matrix, so they agree to the last bit
        # even where two ways of rounding the levels put c2 on either side
        # of the tie window (draws 8 and 10 of this seed did so)
        rng = np.random.default_rng(11)
        for _ in range(10):
            uu, candidates = knife_edge_case(rng)
            menu, value = rcl.solve_menu(candidates, uu)
            mech = rcl.extract_mechanism(menu, uu)
            assert rcl.principal_value(uu, mech)[0] == value
            report = rcl.equivalence_check(candidates, uu)
            assert report.witness_menu == menu.contracts.tolist()
            for j, t in enumerate(uu.base.types):
                g = [row.tolist() for row in menu.contracts].index(mech.assignment[j].tolist())
                assert g in report.agent_optimal_sets[t.label]


class TestEquivalence:
    def test_single_type_reduces_to_best_ir_candidate(self, rng):
        uu = make_uu(rng, m=2, n=1)
        candidates = random_contracts(rng, uu, 5)
        candidates[0] = uu.c_hi
        report = rcl.equivalence_check(candidates, uu)
        assert report.equal
        e_vals = candidates @ (uu.states.ref_prob * uu.base.types[0].density)
        values = rcl.contract_values(uu, candidates)
        feasible = e_vals >= uu.reservation[0] - 1e-9
        assert report.menu_value == pytest.approx(values[feasible].max(), abs=1e-12)

    def test_random_instances_agree(self, rng):
        for _ in range(10):
            uu = make_uu(rng, m=2, n=2, n_priors=2, random_penalties=True)
            candidates = random_contracts(rng, uu, 4)
            candidates[0] = uu.c_hi
            report = rcl.equivalence_check(candidates, uu)
            assert report.gap <= 1e-9

    def test_ic_binding_instance_strictly_below_relaxed(self):
        # candidate B is the only participation-satisfying option for the
        # eager type, and the laid-back type prefers it too, so serving the
        # relaxed per-type optima (B, A) breaks truth-telling
        uu = two_atom_uu([(1.8, 0.2), (1.4, 0.6)], reservation=[0.5, 0.0])
        cand_a = np.array([0.0, 0.0])
        cand_b = np.array([1.0, 1.0])
        candidates = np.stack([cand_a, cand_b])
        report = rcl.equivalence_check(candidates, uu)
        assert report.equal
        values = rcl.contract_values(uu, candidates)
        v_a, v_b = values
        # direct evaluation: pooling on B is the only truthful arrangement
        assert report.menu_value == pytest.approx(v_b, abs=1e-12)
        e_mat = uu.base.type_weights() @ candidates.T
        relaxed_per_type = []
        for j in range(2):
            ok = e_mat[j] >= uu.reservation[j] - 1e-9
            relaxed_per_type.append(values[ok].max())
        relaxed, _ = uu.base.beliefs.robust_value(np.array(relaxed_per_type))
        assert relaxed > report.mechanism_value + 0.05

    def test_nan_candidate_rejected(self, rng):
        uu = make_uu(rng, m=2, n=2)
        candidates = np.array([uu.c_hi, [uu.c_lo[0], np.nan]])
        with pytest.raises(RclError, match="bounds"):
            rcl.equivalence_check(candidates, uu)

    def test_report_serializes(self, rng):
        uu = make_uu(rng, m=2, n=2)
        candidates = random_contracts(rng, uu, 3)
        candidates[0] = uu.c_hi
        doc = rcl.equivalence_check(candidates, uu).to_json()
        assert doc["equal"] is True
        assert len(doc["witness_assignment"]) == uu.n_types

    def test_mechanism_range_menu_never_beats_menu_optimum(self, rng):
        # the menu formed by any feasible mechanism's range is one of the
        # subsets the menu optimizer ranges over
        for _ in range(5):
            uu = make_uu(rng, m=2, n=2)
            candidates = random_contracts(rng, uu, 4)
            candidates[0] = uu.c_hi
            _, menu_value = rcl.solve_menu(candidates, uu)
            assignment, _, _ = rcl.enumerate_best_assignment(
                candidates, uu, tol=1e-9
            )
            _, _, favoured = rcl.menu_choices(uu, rcl.Menu(candidates[assignment]))
            range_value, _ = uu.base.beliefs.robust_value(favoured)
            assert range_value <= menu_value + 1e-12
