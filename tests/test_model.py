"""Model layer: expectations, utility specs, instance validation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import rcl
from rcl.errors import DimensionError, DomainError, ValidationError
from rcl.model import _dumps, _row_dots

from conftest import make_instance

LOG_GRID = np.geomspace(0.05, 10.0, 40)
TAB_GRID = np.geomspace(0.05, 6.0, 9)


def two_state(q=(0.5, 0.5)):
    return rcl.StateSpace(ref_prob=np.array(q))


class TestExpectation:
    def test_uniform_density_is_arithmetic_mean(self):
        states = two_state()
        t = rcl.AgentType(density=[1.0, 1.0])
        assert rcl.expectation(states, t, [2.0, 4.0]) == pytest.approx(3.0, abs=1e-14)

    def test_constant_payoff(self):
        states = two_state()
        t = rcl.AgentType(density=[1.2, 0.8])
        assert rcl.expectation(states, t, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_weighted_atom(self):
        # direct summation: 0.25 * 2 * 1 + 0.75 * (2/3) * 0 = 0.5
        states = two_state(q=(0.25, 0.75))
        t = rcl.AgentType(density=[2.0, 2.0 / 3.0])
        assert rcl.expectation(states, t, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            rcl.expectation(two_state(), rcl.AgentType(density=[1.0, 1.0]), [1.0, 2.0, 3.0])

    @given(
        x=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        y=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        lam=st.floats(-5.0, 5.0),
    )
    def test_linearity(self, x, y, lam):
        states = rcl.StateSpace(ref_prob=np.array([0.2, 0.5, 0.3]))
        t = rcl.AgentType(density=np.array([1.5, 1.0, 2.0 / 3.0]))
        x, y = np.array(x), np.array(y)
        lhs = rcl.expectation(states, t, x + lam * y)
        rhs = rcl.expectation(states, t, x) + lam * rcl.expectation(states, t, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(raw=st.lists(st.floats(0.05, 5.0), min_size=4, max_size=4))
    def test_density_integrates_to_one(self, raw):
        q = np.array([0.1, 0.4, 0.3, 0.2])
        states = rcl.StateSpace(ref_prob=q)
        raw = np.array(raw)
        t = rcl.AgentType(density=raw / (q @ raw))
        assert abs(rcl.expectation(states, t, np.ones(4)) - 1.0) <= 1e-10


def bits(x):
    """The IEEE bit patterns of x, so -0.0 and 0.0 (and NaN payloads) differ."""
    return np.asarray(x, dtype=float).view(np.uint64)


def extreme_rows(rng, rows, length):
    """Signed values of magnitude 1e-300 to 1e300, spread over a few decades
    around a random one (where the order of a sum shows in its rounding) or
    over all of them, with zeros and infinities of both signs sprinkled in."""
    spread = rng.choice([1.0, 5.0, 600.0])
    exponent = np.clip(rng.uniform(-300, 300) + rng.uniform(-spread, spread, (rows, length)),
                       -300, 300)
    out = rng.choice([-1.0, 1.0], (rows, length)) * 10.0 ** exponent
    special = rng.random((rows, length)) < rng.choice([0.0, 0.05, 0.3])
    out[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], int(special.sum()))
    return out


class TestRowDots:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           length=st.integers(1, 300))
    def test_row_bitwise_the_same_in_any_batch(self, seed, rows, length):
        # each row's sum is bitwise the same alone, in the full matrix, in a
        # 3-D broadcast batch, in a Fortran-ordered copy and in any subset
        # of the rows: the invariant `solve_menu` scores its blocks by
        rng = np.random.default_rng(seed)
        matrix = extreme_rows(rng, rows, length)
        vector, other = extreme_rows(rng, 2, length)
        with np.errstate(over="ignore", invalid="ignore"):
            alone = np.array([_row_dots(row, vector) for row in matrix])
            np.testing.assert_array_equal(bits(_row_dots(matrix, vector)), bits(alone))
            batch = _row_dots(matrix, np.stack([vector, other])[:, None, :])
            np.testing.assert_array_equal(bits(batch[0]), bits(alone))
            np.testing.assert_array_equal(
                bits(_row_dots(matrix[:, None, :], np.stack([other, vector]))[:, 1]), bits(alone))
            np.testing.assert_array_equal(
                bits(_row_dots(np.asfortranarray(matrix), vector)), bits(alone))
            subset = rng.choice(rows, int(rng.integers(1, rows + 1)), replace=False)
            np.testing.assert_array_equal(
                bits(_row_dots(matrix[subset], vector)), bits(alone[subset]))


# JSON documents as rcl's writer may meet them: every scalar json encodes,
# floats alone and in lists mixed with ints, tuples, and nested containers
FLOATS = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text() | st.lists(FLOATS),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(FLOATS | st.integers())
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


class TestDumps:
    @settings(max_examples=100, deadline=None)
    @given(value=JSON_VALUES)
    def test_bytes_of_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_empty_containers_and_a_float_list(self):
        value = {"b": [], "a": {}, "c": [1.5, -0.0, float("nan")], "d": ()}
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("key", [1, 1.5, None, True])
    def test_non_str_key_is_rejected(self, key):
        # json would write the key as a string; no document rcl writes has one
        with pytest.raises(TypeError):
            _dumps({"a": [{key: 1.0}]})


class TestStateSpace:
    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValidationError):
            rcl.StateSpace(ref_prob=[0.5, 0.5, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            rcl.StateSpace(ref_prob=[0.5, 0.6])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            rcl.StateSpace(ref_prob=[])

    def test_default_labels(self):
        s = rcl.StateSpace(ref_prob=[0.25, 0.75])
        assert s.atoms == ["s0", "s1"]

    def test_messages_print_plain_floats(self):
        with pytest.raises(ValidationError) as exc:
            rcl.StateSpace(ref_prob=[0.6, 0.5])
        assert str(exc.value) == "reference probabilities sum to 1.1, not 1"
        with pytest.raises(DomainError) as exc:
            rcl.log_utility().value(np.array([-0.5, 1.0]))
        assert str(exc.value) == "log utility undefined at wealth -0.5"
        with pytest.raises(DomainError) as exc:
            rcl.crra(0.5).value(np.array([-0.5, 1.0]))
        assert str(exc.value) == "crra utility on the half line undefined at -0.5"


class TestUtilitySpec:
    def test_crra_gamma_must_be_interior(self):
        with pytest.raises(ValidationError):
            rcl.crra(1.5)
        with pytest.raises(ValidationError):
            rcl.crra(0.0)

    def test_cara_alpha_positive(self):
        with pytest.raises(ValidationError):
            rcl.cara(-1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_cara_alpha_finite(self, alpha):
        with pytest.raises(ValidationError, match="finite alpha"):
            rcl.cara(alpha)

    def test_log_domain(self):
        u = rcl.log_utility()
        with pytest.raises(DomainError):
            u.value(0.0)

    def test_closed_inverses_roundtrip(self):
        z = np.linspace(0.2, 5.0, 9)
        for u in [rcl.crra(0.4), rcl.log_utility(), rcl.cara(2.0), rcl.linear()]:
            np.testing.assert_allclose(u.inverse(u.value(z)), z, rtol=0, atol=1e-12)

    def test_tabulated_requires_monotone_concave(self):
        grid = np.linspace(0.1, 4.0, 12)
        with pytest.raises(ValidationError):
            rcl.UtilitySpec("tabulated", grid=grid, values=grid**2)  # convex
        with pytest.raises(ValidationError):
            rcl.UtilitySpec("tabulated", grid=grid, values=-grid)  # decreasing

    def test_tabulated_tracks_log(self):
        grid = np.geomspace(0.1, 10.0, 60)
        u = rcl.UtilitySpec("tabulated", grid=grid, values=np.log(grid),
                            derivs=1.0 / grid)
        z = np.linspace(0.3, 8.0, 17)
        np.testing.assert_allclose(u.value(z), np.log(z), atol=1e-6)
        np.testing.assert_allclose(u.inverse(u.value(z)), z, atol=1e-9)

    @pytest.mark.parametrize("start, domain", [(0.1, "half-line"), (-1.0, "whole-line")])
    def test_tabulated_without_derivs_is_monotone_cubic(self, start, domain):
        # no derivs: a shape-preserving PCHIP cubic through the values; a
        # grid reaching below 0 puts the utility on the whole line
        grid = np.linspace(start, 3.0, 9)
        u = rcl.UtilitySpec("tabulated", grid=grid, values=1.0 - np.exp(-grid))
        assert u.domain == domain
        np.testing.assert_allclose(u.value(grid), 1.0 - np.exp(-grid), rtol=1e-14)
        z = np.linspace(start, 3.0, 31)
        assert np.all(np.diff(u.value(z)) > 0.0) and np.all(u.deriv(z) > 0.0)
        np.testing.assert_allclose(u.inverse(u.value(z)), z, atol=1e-9)

    @pytest.mark.parametrize("grid, values, derivs", [
        (TAB_GRID, np.log(TAB_GRID), 1.0 / TAB_GRID),
        (TAB_GRID, np.log(TAB_GRID), None),
        (np.linspace(-1.0, 3.0, 9), 1.0 - np.exp(-np.linspace(-1.0, 3.0, 9)), None),
        (np.geomspace(0.05, 6.0, 400), np.log(np.geomspace(0.05, 6.0, 400)),
         1.0 / np.geomspace(0.05, 6.0, 400)),
    ], ids=["derivs", "pchip", "whole_line", "400_knots"])
    def test_tabulated_inverse_matches_brentq(self, grid, values, derivs):
        # the one-interval Newton against brentq over the whole grid, both
        # to within brentq's tolerance 1e-13 + 4 eps |z| of the root, on
        # random levels, every knot's value and both table ends
        u = rcl.UtilitySpec("tabulated", grid=grid, values=values, derivs=derivs)
        rng = np.random.default_rng(3)
        levels = np.concatenate([rng.uniform(values[0], values[-1], 200), values])

        def brentq_inverse(y):
            # with derivs, the spline can end a rounding below the top
            # value, where f(z) = y has no root on the grid and brentq
            # refuses the bracket: the nearest wealth is the grid's end
            if u._fwd(grid[-1]) - y <= 0.0:
                return grid[-1]
            return brentq(lambda z: u._fwd(z) - y, grid[0], grid[-1],
                          xtol=1e-13, rtol=8.9e-16)

        expected = np.array([brentq_inverse(y) for y in levels])
        found = u.inverse(levels)
        np.testing.assert_allclose(found, expected, rtol=2 * 8.9e-16, atol=2e-13)
        assert u.inverse(values[0]) == grid[0]
        assert u.inverse(values[-1]) == pytest.approx(grid[-1], rel=0, abs=1e-13)
        # each root is the same whichever levels sit beside it
        assert [u.inverse(y) for y in levels[:20]] == found[:20].tolist()
        np.testing.assert_array_equal(u.inverse(levels[:200].reshape(4, 50)),
                                      found[:200].reshape(4, 50))

    @pytest.mark.parametrize("u, z", [
        (rcl.crra(0.4), np.linspace(0.1, 5.0, 9)),
        (rcl.log_utility(), np.linspace(0.1, 5.0, 9)),
        (rcl.cara(1.5, "half-line"), np.linspace(0.1, 5.0, 9)),
        (rcl.cara(1.5, "whole-line"), np.linspace(-3.0, 3.0, 9)),
        (rcl.linear("half-line"), np.linspace(0.1, 5.0, 9)),
        (rcl.linear("whole-line"), np.linspace(-3.0, 3.0, 9)),
        # knots at the grid points: the interval midpoints keep z +- h on
        # one cubic piece
        (rcl.UtilitySpec("tabulated", grid=LOG_GRID, values=np.log(LOG_GRID)),
         np.sqrt(LOG_GRID[1:] * LOG_GRID[:-1])),
        (rcl.UtilitySpec("tabulated", grid=LOG_GRID, values=np.log(LOG_GRID),
                         derivs=1.0 / LOG_GRID), np.sqrt(LOG_GRID[1:] * LOG_GRID[:-1])),
        (rcl.UtilitySpec("tabulated", grid=np.linspace(-1.0, 3.0, 9),
                         values=1.0 - np.exp(-np.linspace(-1.0, 3.0, 9))),
         np.linspace(-0.75, 2.75, 8)),
    ], ids=["crra", "log", "cara_half", "cara_whole", "linear_half", "linear_whole",
            "tabulated", "tabulated_derivs", "tabulated_whole"])
    def test_risk_aversion_matches_central_differences(self, u, z):
        # -u''/u' against -(u'(z + h) - u'(z - h)) / (2 h u'(z))
        h = 1e-5 * np.maximum(np.abs(z), 0.1)
        numeric = -(u.deriv(z + h) - u.deriv(z - h)) / (2.0 * h * u.deriv(z))
        np.testing.assert_allclose(u._risk_aversion(z), numeric, rtol=1e-6, atol=1e-9)


class TestValidateInstance:
    def test_preset_zero_transfer_is_feasible(self, rng):
        inst = make_instance(rng)
        assert np.all(inst.contract_lo <= 0.0) and np.all(inst.contract_hi >= 0.0)

    def test_rejects_unnormalized_density(self, rng):
        inst = make_instance(rng)
        doc = inst.to_json()
        doc["types"][0]["density"] = [2.0, 0.5]
        doc["states"] = {"ref_prob": [0.5, 0.5]}
        with pytest.raises(ValidationError, match="not normalized"):
            rcl.validate_instance(doc)

    def test_rejects_crra_above_one(self, rng):
        doc = make_instance(rng).to_json()
        doc["u"] = {"family": "crra", "gamma": 1.5}
        with pytest.raises(ValidationError, match="gamma"):
            rcl.validate_instance(doc)

    def test_rejects_empty_types(self, rng):
        doc = make_instance(rng).to_json()
        doc["types"] = []
        doc["beliefs"] = {"priors": [[]], "penalties": [0.0]}
        with pytest.raises(ValidationError):
            rcl.validate_instance(doc)

    def test_rejects_crossed_bounds(self, rng):
        doc = make_instance(rng).to_json()
        doc["bounds"]["lo"], doc["bounds"]["hi"] = doc["bounds"]["hi"], doc["bounds"]["lo"]
        with pytest.raises(ValidationError, match="contract_lo exceeds"):
            rcl.validate_instance(doc)

    def test_rejects_unreachable_reservation(self, rng):
        doc = make_instance(rng).to_json()
        doc["reservation"] = [100.0] * len(doc["types"])
        with pytest.raises(ValidationError, match="individually rational"):
            rcl.validate_instance(doc)

    def test_rejects_principal_utility_undefined_at_upper_bound(self):
        # the halfline preset pays the principal's whole endowment at its upper
        # bound; a log principal has no utility for the wealth left over
        doc = rcl.build_preset("reinsurance_halfline").to_json()
        doc["v"] = {"family": "log"}
        with pytest.raises(ValidationError, match="principal utility"):
            rcl.validate_instance(doc)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("utility, message", [
        # exp(800 * 4) overflows: the check reports it without a warning
        ({"v": rcl.cara(800.0)}, "principal utility: utility not finite on"),
        # -exp(-60 z) / 60 is flat to float resolution on most of [-3.6, 3.6]
        ({"u": rcl.cara(60.0)}, "agent utility: utility not strictly increasing on"),
        ({"u": rcl.UtilitySpec("tabulated", grid=np.array([0.01, 1.0, 2.0, 3.0, 4.0]),
                               values=np.array([0.0, 1.0, 1.5, 1.8, 2.0]),
                               derivs=np.array([1.0, 0.05, 0.05, 0.05, 0.05]))},
         "agent utility: utility not concave on"),
    ], ids=["not_finite", "not_increasing", "not_concave"])
    def test_spot_check_reports_a_bad_utility(self, utility, message):
        inst = rcl.Instance(
            states=two_state(),
            types=[rcl.AgentType(density=np.array(d), label=f"theta{j}")
                   for j, d in enumerate([(1.2, 0.8), (0.8, 1.2)])],
            principal_belief=rcl.AgentType(density=np.ones(2), label="p"),
            beliefs=rcl.BeliefSet(priors=[[0.5, 0.5]], penalties=[0.0]),
            e_a=np.full(2, 1.0), e_p=np.full(2, 2.0),
            **{"u": rcl.log_utility(), "v": rcl.cara(1.0), **utility},
            contract_lo=np.full(2, -0.8), contract_hi=np.full(2, 1.6))
        with pytest.raises(ValidationError, match=message):
            rcl.validate_instance(inst)

    @pytest.mark.parametrize("labels", [("same", "same"), ("type1", "")],
                             ids=["equal", "default_clash"])
    def test_rejects_duplicate_report_labels(self, rng, labels):
        # reports key types by label (type{j} when empty), so a clash would
        # merge two types in agent_optimal_sets and summary.csv
        doc = make_instance(rng).to_json()
        for entry, label in zip(doc["types"], labels):
            entry["label"] = label
        with pytest.raises(ValidationError, match="not distinct"):
            rcl.validate_instance(doc)

    @pytest.mark.parametrize("path, message", [
        (("states", "ref_prob", 0), "reference probabilities must be finite"),
        (("beliefs", "priors", 0, 0), "prior weights must be finite"),
        (("reservation", 0), "reservation contains non-finite entries"),
        (("e_a", 0), "e_a contains non-finite entries"),
    ], ids=["ref_prob", "prior", "reservation", "e_a"])
    def test_rejects_nan_entry(self, rng, path, message):
        # NaN slips past checks like `<= 0` and `abs(s - 1) > tol`
        doc = make_instance(rng).to_json()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = float("nan")
        with pytest.raises(ValidationError, match=message):
            rcl.validate_instance(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("beliefs", {"priors": [[1.0]], "penalties": [0.0]}, "prior length"),
        ("reservation", [0.0], "reservation length"),
        ("e_a", [1.0, 1.0, 1.0], "e_a length 3 does not match 2 atoms"),
        ("e_a", [[1.0, 1.0]], "e_a must be a one-dimensional array"),
    ], ids=["prior_length", "reservation_length", "e_a_length", "e_a_2d"])
    def test_rejects_misshapen_field(self, rng, key, value, message):
        doc = make_instance(rng, m=2, n=2).to_json()
        doc[key] = value
        with pytest.raises(ValidationError, match=message):
            rcl.validate_instance(doc)

    def test_idempotent_returns_same_object(self, rng):
        inst = make_instance(rng)
        assert rcl.validate_instance(inst) is inst

    def test_json_roundtrip(self, rng, tmp_path):
        inst = make_instance(rng, m=3, n=2)
        path = tmp_path / "inst.json"
        rcl.save_instance(inst, path)
        back = rcl.load_instance(path)
        np.testing.assert_allclose(back.states.ref_prob, inst.states.ref_prob, atol=0)
        np.testing.assert_allclose(back.e_a, inst.e_a, atol=0)
        np.testing.assert_allclose(back.reservation, inst.reservation, atol=0)
        assert back.u.family == inst.u.family

    @pytest.mark.parametrize("u", [
        rcl.crra(0.4),
        rcl.UtilitySpec("tabulated", grid=LOG_GRID, values=np.log(LOG_GRID),
                        derivs=1.0 / LOG_GRID),
    ], ids=["crra", "tabulated"])
    def test_json_roundtrip_keeps_agent_utility(self, rng, tmp_path, u):
        inst = make_instance(rng, m=3, n=2)
        inst = rcl.validate_instance(dataclasses.replace(inst, u=u, reservation=None))
        path = tmp_path / "inst.json"
        rcl.save_instance(inst, path)
        back = rcl.load_instance(path)
        assert back.u.to_json() == u.to_json()
        assert back.to_json() == inst.to_json()

    def test_default_reservation_is_endowment_utility(self, rng):
        inst = make_instance(rng)
        base = inst.u.value(inst.e_a)
        for j, t in enumerate(inst.types):
            assert inst.reservation[j] == pytest.approx(
                rcl.expectation(inst.states, t, base), abs=1e-14
            )


class TestBeliefSet:
    def test_robust_value_ties_go_to_lowest_index(self):
        b = rcl.BeliefSet(priors=[[1.0, 0.0], [0.0, 1.0]], penalties=[0.0, 0.0])
        value, idx = b.robust_value(np.array([2.0, 2.0]))
        assert value == 2.0 and idx == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), k=st.integers(2, 5),
           level=st.floats(-1e3, 1e3), penalty=st.floats(-1.0, 1.0))
    def test_pooling_worst_prior_does_not_follow_summation_order(self, seed, n, k,
                                                                 level, penalty):
        # dyadic priors sum to 1 exactly, so at a pooling vector with equal
        # penalties every total is level + penalty in exact arithmetic, and
        # only rounding tells them apart; the type order changes the rounding
        rng = np.random.default_rng(seed)
        priors = rng.multinomial(1024, np.full(n, 1.0 / n), size=k) / 1024.0
        values = np.full(n, level)
        for order in (np.arange(n), rng.permutation(n), np.arange(n)[::-1]):
            b = rcl.BeliefSet(priors=priors[:, order], penalties=np.full(k, penalty))
            value, idx = b.robust_value(values)
            assert idx == 0
            assert value == (_row_dots(b.priors, values) + b.penalties).min()

    def test_robust_value_is_the_exact_minimum(self, rng):
        # the tie window moves the index only, never the value
        for _ in range(20):
            b = rcl.BeliefSet(priors=rng.dirichlet(np.ones(4), size=3),
                              penalties=rng.uniform(0.0, 0.1, 3))
            values = rng.normal(size=4)
            totals = _row_dots(b.priors, values) + b.penalties
            value, idx = b.robust_value(values)
            assert value == totals.min()
            assert idx == int(np.argmin(totals))

    def test_rejects_bad_priors(self):
        with pytest.raises(ValidationError):
            rcl.BeliefSet(priors=[[0.6, 0.6]], penalties=[0.0])
        with pytest.raises(ValidationError):
            rcl.BeliefSet(priors=[[0.5, 0.5]], penalties=[np.inf])
        with pytest.raises(ValidationError, match="at least one prior"):
            rcl.BeliefSet(priors=np.empty((0, 2)), penalties=[])
        with pytest.raises(ValidationError, match="one penalty per prior"):
            rcl.BeliefSet(priors=[[0.5, 0.5]], penalties=[0.0, 0.0])
        with pytest.raises(ValidationError, match="prior weights must be >= 0"):
            rcl.BeliefSet(priors=[[1.5, -0.5]], penalties=[0.0])
