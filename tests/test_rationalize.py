"""Tests for revealed relations, consistency, extensions, and diameters.

The naive enumerator at the top is the oracle for everything countable:
it builds every dense rank row by rejection from itertools.product and
replays data by hand, so it shares no code with the library paths.
"""

import itertools
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from prefid import (
    CapacityError,
    ChoiceSequence,
    ConfigurationError,
    DomainError,
    ExperimentConfig,
    ExperimentSequence,
    OrderedSpace,
    PreconditionError,
    Preference,
    ResolutionError,
    dense_subset,
    enumerate_pairs,
    from_points,
    from_utility,
    generate_choices,
    generator_values,
    make_aa_acts,
    make_dated_rewards,
    make_grid_euclidean,
    make_lottery_simplex,
    restrict,
)
import prefid.preferences as preferences_module
import prefid.rationalize as rationalize_module
from prefid.preferences import closed_convergence_distance
from prefid.rationalize import (
    _eu_from_edges,
    _max_height,
    _min_height,
    _relation_diameter,
    DiameterResult,
    RationalizationPolicy,
    RevealedRelation,
    adversarial_far_extension,
    all_total_preorders,
    brute_force_rationalizations,
    check_consistency,
    diameter_estimate,
    eu_preference,
    eu_rationalize,
    extend_preference,
    indifference_construction,
    lipschitz_rationalize,
    rationalizes,
    result_to_json,
    revealed_relation,
    sample_extension,
)

from conftest import (
    brute_graph_distance,
    dataset,
    farthest_row_distance,
    full_arc_walk,
    longest_path_ranks,
    naive_closures,
    naive_transitive_reduction,
    per_start_witness,
    reference_far_search,
)


def naive_preorders(n):
    """All dense rank rows on n points, by rejection."""
    rows = []
    for row in itertools.product(range(n), repeat=n):
        top = max(row)
        if set(row) == set(range(top + 1)):
            rows.append(row)
    return rows


def naive_replay(row, e, c):
    for (x, y), chosen in zip(e.pairs, c.choices):
        best = max(row[x], row[y])
        optimal = {z for z in (x, y) if row[z] == best}
        if c.mode == "strong":
            if set(chosen) != optimal:
                return False
        elif not set(chosen) <= optimal:
            return False
    return True


def draw_tiled_data(data, max_line, g=None):
    """Hypothesis-drawn choices on the space g, or else on a line of at most max_line points or a 2x2 grid,
    plus a monotone class.

    The schedule may run twice, so comparisons are revealed again; the picks are free, so they may contradict.
    """
    if g is None:
        dims = data.draw(st.integers(1, 2))
        g = make_grid_euclidean(dims, data.draw(st.integers(2, max_line if dims == 1 else 2)), (0.0, 1.0))
    mode = data.draw(st.sampled_from(["strong", "weak"]))
    monotone = data.draw(st.sampled_from(["none", "weak", "strict"]))
    members = data.draw(st.lists(st.integers(0, g.num_points - 1), min_size=2, max_size=g.num_points, unique=True))
    order = data.draw(st.sampled_from(["diagonal", "shuffled"]))
    schedule = enumerate_pairs(dense_subset(g, members=sorted(members)), order, data.draw(st.integers(0, 99)))
    e = ExperimentSequence(g, schedule.B, np.tile(schedule.pair_array, (data.draw(st.integers(1, 2)), 1)))
    options = [(True, False), (False, True)] + ([(True, True)] if mode == "strong" else [])
    picks = data.draw(st.lists(st.sampled_from(options), min_size=len(e), max_size=len(e)))
    return e, ChoiceSequence(e, np.array(picks, dtype=bool), mode), monotone


def holding_rows(r):
    """The rank rows of the preorder table that hold r's whole cells: weakly, and strictly where a cell is strict."""
    table = rationalize_module._preorder_table(r.space.num_points)
    weak = (table[:, :, None] >= table[:, None, :])[:, r.whole_cells(strict=False)].all(axis=1)
    strict = (table[:, :, None] > table[:, None, :])[:, r.whole_cells(strict=True)].all(axis=1)
    return table[weak & strict]


def far_bound(r, target):
    """max(h(U -> q), h(q -> L)) for the target q, with L and S from the path-search oracle and U the complement of
    S's transpose, h the directed Hausdorff distance cell by cell."""
    closure, strict_closure = naive_closures(r)
    D = r.space.distance_matrix

    def directed(a, b):
        cells_b = np.argwhere(b)
        return max(min(max(D[i, k], D[j, l]) for k, l in cells_b) for i, j in np.argwhere(a))

    return float(max(directed(~strict_closure.T, target.graph), directed(target.graph, closure)))


FAR_SPACES = {
    **{f"line{n}": make_grid_euclidean(1, n, (0.0, 1.0)) for n in range(2, 8)},
    "grid2x2": make_grid_euclidean(2, 2, (0.0, 1.0)),
    "simplex3x2": make_lottery_simplex(3, 2),
}


def draw_far_case(data, g=None):
    """Data on the space g, or else on a space of at most 7 points, that fits a drawn class, chosen by a truth in
    the class, and a target.

    A monotone truth counts the points each point weakly dominates, ten to a step, plus a drawn term below 10, so
    a strict dominance stays strict. The target is a drawn rank row, the truth turned round, or total indifference.
    """
    if g is None:
        g = FAR_SPACES[data.draw(st.sampled_from(sorted(FAR_SPACES)))]
    n = g.num_points
    monotone = data.draw(st.sampled_from(["none", "weak", "strict"]))
    mode = data.draw(st.sampled_from(["strong", "weak"]))
    noise = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    values = noise if monotone == "none" else 10.0 * g.weak_order.sum(axis=1) + noise
    e = enumerate_pairs(dense_subset(g), "shuffled", data.draw(st.integers(0, 99)))
    c = generate_choices(from_utility(g, values), e, mode=mode, tie_policy="both" if mode == "strong" else "first")
    ranks = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    target = from_utility(g, np.array(data.draw(ranks | st.just(list(-values)) | st.just([0.0] * n)), dtype=float))
    return e, c, monotone, target


def ordered_bell(n):
    # a(n) = sum_k C(n, k) a(n - k)
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def edge_sets(r):
    """The weak and the strict (x, y) edges of a revealed relation, as two sets."""
    edges = list(zip(r.x.tolist(), r.y.tolist(), r.strict.tolist()))
    return {(x, y) for x, y, strict in edges if not strict}, {(x, y) for x, y, strict in edges if strict}


class TestRevealedRelation:
    def test_leaves_the_callers_arrays_writeable(self, line5):
        columns = [np.array([3]), np.array([0]), np.array([True]), np.array([1])]
        r = RevealedRelation(line5, *columns)
        for column in columns:
            column[0] = 0
        assert [r.x.tolist(), r.y.tolist(), r.strict.tolist(), r.pair_index.tolist()] == [[3], [0], [True], [1]]
        assert not any(column.flags.writeable for column in (r.x, r.y, r.strict, r.pair_index))

    def test_weak_mode_yields_weak_edges(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "weak")
        r = revealed_relation(e, c, "weak")
        assert edge_sets(r) == ({(3, 0)}, set())
        (edge,) = r.edges
        assert edge.source == "data"
        assert edge.pair_index == 1

    def test_strong_singleton_yields_strict_edge(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        assert edge_sets(r)[1] == {(3, 0)}

    def test_strong_tie_yields_both_weak_edges(self, line5):
        e, c = dataset(line5, [(1, 2, (1, 2))], "strong")
        r = revealed_relation(e, c, "strong")
        assert edge_sets(r) == ({(1, 2), (2, 1)}, set())

    def test_monotone_weak_injects_order_edges(self, chain6):
        e, c = dataset(chain6, [(0, 1, (1,))], "weak")
        r = revealed_relation(e, c, "weak", monotone="weak")
        assert r.monotone == "weak" and not r.data_edges().all()
        # the view names an edge with a pair a data edge, any other a monotonicity edge
        assert [(ed.source, ed.pair_index) for ed in r.edges] == [("data", 1)] + [("monotonicity", None)] * 5
        # the monotone edges are the chain's covering pairs i > i - 1; the arc matrix holds every pair i > j
        covers = [(i, i - 1, False) for i in range(1, 6)]
        assert list(zip(r.x.tolist(), r.y.tolist(), r.strict.tolist())) == [(1, 0, False)] + covers
        assert np.array_equal(r.arc_matrix, np.tril(np.ones((6, 6), dtype=bool), -1))

    def test_monotone_strict_injects_strict_edges(self, chain6):
        e, c = dataset(chain6, [(0, 1, (1,))], "weak")
        r = revealed_relation(e, c, "weak", monotone="strict")
        covers = [(i, i - 1) for i in range(1, 6)]
        expected = [(1, 0, False)] + [(x, y, False) for x, y in covers] + [(x, y, True) for x, y in covers]
        assert list(zip(r.x.tolist(), r.y.tolist(), r.strict.tolist())) == expected
        assert np.array_equal(r.arc_matrix, np.tril(np.ones((6, 6), dtype=bool), -1))
        # the witness reads the whole order: "0 strictly over 5" closes on the pair 5 > 0, not on a chain of covers
        e, c = dataset(chain6, [(0, 5, (0,))], "strong")
        for monotone in ("weak", "strict"):
            assert check_consistency(revealed_relation(e, c, "strong", monotone=monotone)).witness == (0, 5, 0)

    def test_monotone_none_keeps_data_only(self, chain6):
        e, c = dataset(chain6, [(0, 1, (1,))], "weak")
        r = revealed_relation(e, c, "weak")
        assert r.monotone == "none" and r.data_edges().all()
        assert len(r.edges) == 1

    def test_arc_matrix_mirrors_edges(self, line5):
        e, c = dataset(line5, [(0, 3, (3,)), (1, 2, (1, 2))], "strong")
        r = revealed_relation(e, c, "strong")
        expected = np.zeros((5, 5), dtype=bool)
        expected[3, 0] = expected[1, 2] = expected[2, 1] = True
        assert np.array_equal(r.arc_matrix, expected)

    def test_choice_outside_pair_rejected(self, line5):
        # an empty choice, or one outside its pair, is refused when the choices are built, so no reader sees it
        for mode in ("weak", "strong"):
            for chosen in ((4,), (3, 4), ()):
                e, c = dataset(line5, [(0, 3, (3,))], mode)
                with pytest.raises(DomainError, match="not a subset of its pair"):
                    type(c)(e, (chosen,), mode)

    @pytest.mark.parametrize("pair, chosen, mode, error", [
        pytest.param((-1, 0), (0,), "strong", DomainError, id="negative_index"),
        pytest.param((0, 5), (0,), "strong", DomainError, id="index_past_end"),
        pytest.param((2, 2), (2,), "weak", DomainError, id="self_pair"),
        pytest.param((0, 3), (3,), "loud", ConfigurationError, id="unknown_mode"),
    ])
    def test_malformed_pair_or_mode_rejected(self, line5, pair, chosen, mode, error):
        # the data is refused when it is built, so no reader sees it; none reads -1 as the last point
        with pytest.raises(error):
            e = ExperimentSequence(line5, dense_subset(line5), (pair,))
            ChoiceSequence(e, (chosen,), mode)

    def test_length_mismatch_rejected(self, line5):
        e, c = dataset(line5, [(0, 3, (3,)), (0, 1, (1,))], "weak")
        with pytest.raises(DomainError, match="different lengths"):
            type(c)(e, c.choices[:1], "weak")

    def test_choices_over_another_experiment_rejected(self, line5):
        e, _ = dataset(line5, [(0, 1, (1,)), (1, 2, (2,)), (2, 3, (3,))], "strong")
        _, other = dataset(line5, [(3, 4, (4,))], "strong")
        flat = from_utility(line5, np.zeros(5))
        for read in (lambda: revealed_relation(e, other, "strong"), lambda: rationalizes(flat, e, other),
                     lambda: restrict(e, other, 1)):
            with pytest.raises(DomainError):
                read()

    def test_unknown_mode_and_class_rejected(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "weak")
        with pytest.raises(ConfigurationError):
            revealed_relation(e, c, "loud")
        with pytest.raises(ConfigurationError):
            revealed_relation(e, c, "weak", monotone="convex")


class TestCheckConsistency:
    def test_chain_data_is_consistent(self, line5):
        e, c = dataset(line5, [(0, 1, (1,)), (1, 2, (2,)), (2, 3, (3,))], "strong")
        res = check_consistency(revealed_relation(e, c, "strong"))
        assert res.consistent
        assert res.witness is None

    def test_strict_three_cycle_witness(self, line5):
        e, c = dataset(line5, [(0, 1, (0,)), (1, 2, (1,)), (2, 0, (2,))], "strong")
        res = check_consistency(revealed_relation(e, c, "strong"))
        assert not res.consistent
        assert res.witness == (0, 1, 2, 0)

    def test_contradictory_pair_witness(self, line5):
        e, c = dataset(line5, [(0, 1, (0,)), (0, 1, (1,))], "strong")
        res = check_consistency(revealed_relation(e, c, "strong"))
        assert not res.consistent
        assert res.witness == (0, 1, 0)

    def test_weak_cycle_is_consistent(self, line5):
        # weak edges around a cycle collapse into one indifference class
        e, c = dataset(line5, [(0, 1, (0,)), (1, 2, (1,)), (2, 0, (2,))], "weak")
        r = revealed_relation(e, c, "weak")
        assert check_consistency(r).consistent
        p = extend_preference(r, RationalizationPolicy())
        assert p.rank[0] == p.rank[1] == p.rank[2]

    def test_monotone_conflict_is_caught(self, chain6):
        # data says 0 strictly beats 5; strict monotonicity says the reverse
        e, c = dataset(chain6, [(0, 5, (0,))], "strong")
        r = revealed_relation(e, c, "strong", monotone="strict")
        res = check_consistency(r)
        assert not res.consistent
        assert res.witness is not None

    def test_agrees_with_naive_enumeration(self, line5):
        # consistency == existence of a rationalizing rank row
        rows = naive_preorders(4)
        space = from_points(np.arange(4.0).reshape(-1, 1))
        cases = [
            [(0, 1, (0,)), (1, 2, (1,)), (2, 3, (2,))],
            [(0, 1, (0,)), (1, 0, (1,))],
            [(0, 1, (0, 1)), (1, 2, (1,)), (2, 0, (0, 2))],
            [(0, 1, (1,)), (1, 2, (2,)), (0, 2, (0,))],
        ]
        for rows_spec in cases:
            for mode in ("strong", "weak"):
                spec = rows_spec
                if mode == "weak":
                    spec = [(x, y, ch[:1]) for x, y, ch in rows_spec]
                e, c = dataset(space, spec, mode)
                expected = any(naive_replay(row, e, c) for row in rows)
                got = check_consistency(revealed_relation(e, c, mode)).consistent
                assert got == expected, (rows_spec, mode)


class TestCanonicalExtension:
    def test_full_strict_chain_recovers_ranks(self, line5):
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(from_utility(line5, line5.points[:, 0]), e, mode="strong")
        p = extend_preference(revealed_relation(e, c, "strong"), RationalizationPolicy())
        assert list(p.rank) == [0, 1, 2, 3, 4]

    def test_partial_data_sits_at_minimal_height(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        p = extend_preference(revealed_relation(e, c, "strong"), RationalizationPolicy())
        assert list(p.rank) == [0, 0, 0, 1, 0]

    def test_canonical_rationalizes_random_data(self, line5):
        rng = np.random.default_rng(4)
        e = enumerate_pairs(dense_subset(line5))
        for trial in range(20):
            vals = rng.integers(0, 3, size=5).astype(float)
            truth = from_utility(line5, vals)
            for mode, policy in (("strong", "both"), ("weak", "first")):
                c = generate_choices(truth, e, mode=mode, tie_policy=policy)
                p = extend_preference(revealed_relation(e, c, mode), RationalizationPolicy())
                assert rationalizes(p, e, c)

    def test_inconsistent_data_rejected(self, line5):
        e, c = dataset(line5, [(0, 1, (0,)), (0, 1, (1,))], "strong")
        with pytest.raises(PreconditionError):
            extend_preference(revealed_relation(e, c, "strong"), RationalizationPolicy())

    @pytest.mark.parametrize("points", [5, 16, 20], ids=["smaller", "equal_size", "larger"])
    def test_preference_on_another_space_rejected(self, points):
        # 4x4 grid data replayed against a line: a smaller one must not index past its end,
        # an equal or larger one must not give a verdict
        g = make_grid_euclidean(2, 4, (0.0, 1.0))
        e = enumerate_pairs(dense_subset(g))
        c = generate_choices(from_utility(g, g.points.sum(axis=1)), e, mode="strong")
        line = make_grid_euclidean(1, points, (0.0, 1.0))
        with pytest.raises(DomainError):
            rationalizes(from_utility(line, np.arange(points, dtype=float)), e, c)


class TestRankingKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_extremal_ranks_match_longest_path_oracle(self, data):
        dims, res = data.draw(st.integers(1, 2)), data.draw(st.integers(2, 4))
        g = make_grid_euclidean(dims, res, (0.0, 1.0))
        monotone = data.draw(st.sampled_from(["none", "weak", "strict"]))
        mode = data.draw(st.sampled_from(["strong", "weak"]))
        if monotone == "none":
            values = data.draw(st.lists(st.integers(0, 3), min_size=g.num_points, max_size=g.num_points))
        else:
            # integer level weights keep ties exact; positive weights respect
            # strict dominance, zero weights only the weak order
            low = 1 if monotone == "strict" else 0
            weights = data.draw(st.lists(st.integers(low, 3), min_size=dims, max_size=dims))
            values = np.rint(g.points * (res - 1)) @ np.array(weights)
        truth = from_utility(g, np.asarray(values, dtype=float))
        members = data.draw(st.lists(st.integers(0, g.num_points - 1), min_size=2, max_size=8, unique=True))
        e = enumerate_pairs(dense_subset(g, members=sorted(members)), "shuffled", data.draw(st.integers(0, 99)))
        c = generate_choices(truth, e, mode=mode, tie_policy="both" if mode == "strong" else "first")
        r = revealed_relation(e, c, mode, monotone=monotone)
        assert check_consistency(r).consistent
        lowest, highest = longest_path_ranks(g.num_points, [(ed.x, ed.y, ed.strict) for ed in r.edges])
        cond = r.condensation
        # the heights walk the arcs once, in stored order: each arc's head must come before its tail
        assert (cond.arc_v < cond.arc_u).all(), SCIPY_NUMBERING
        assert _min_height(cond).tolist() == lowest
        assert _max_height(cond).tolist() == highest

    @staticmethod
    def assert_deep_ranks_match_oracle(r, min_points):
        edges = list(zip(r.x.tolist(), r.y.tolist(), r.strict.tolist()))
        n = r.space.num_points
        # the case holds a long chain: its longest path, counting every arc, has at least min_points points
        chain, _ = longest_path_ranks(n, [(x, y, True) for x, y, _ in edges])
        assert max(chain) + 1 >= min_points
        lowest, highest = longest_path_ranks(n, edges)
        cond = r.condensation
        assert _min_height(cond).tolist() == lowest
        assert _max_height(cond).tolist() == highest

    def test_long_line_under_full_strong_data(self):
        line = make_grid_euclidean(1, 24, (0.0, 1.0))
        e = enumerate_pairs(dense_subset(line), "shuffled", 3)
        c = generate_choices(from_utility(line, line.points[:, 0]), e, mode="strong")
        self.assert_deep_ranks_match_oracle(revealed_relation(e, c, "strong"), 24)

    @pytest.mark.parametrize("mode, k", [("strong", 630), ("strong", 400), ("weak", 630), ("weak", 400)])
    def test_grid_under_strict_monotone_edges(self, mode, k):
        # distinct values, so every pair is ranked strictly; weak data leaves
        # only the dominance arcs strict, and weak arcs must weigh nothing
        g = make_grid_euclidean(2, 6, (0.0, 1.0))
        truth = from_utility(g, g.points @ np.array([1.0, 1.3]))
        e = enumerate_pairs(dense_subset(g), "shuffled", 5)
        c = generate_choices(truth, e, mode=mode, tie_policy="both" if mode == "strong" else "first")
        self.assert_deep_ranks_match_oracle(revealed_relation(*restrict(e, c, k), mode, monotone="strict"), 20)


class TestRelationPrefix:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_prefix_matches_fresh_relation(self, data):
        e, c, monotone = draw_tiled_data(data, 8)
        r = revealed_relation(e, c, c.mode, monotone=monotone)
        assert r.prefix(len(e)) is r
        k = data.draw(st.integers(1, len(e)))
        got, fresh = r.prefix(k), revealed_relation(*restrict(e, c, k), c.mode, monotone=monotone)
        for name in ("x", "y", "strict", "pair_index"):
            assert getattr(got, name).dtype == getattr(fresh, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(fresh, name)), name


class TestEdgeReplay:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_replay_matches_naive_replay(self, data):
        # repeated pairs, picks that may contradict each other, and monotone edges, which are not replayed
        e, c, monotone = draw_tiled_data(data, 6)
        table = rationalize_module._preorder_table(e.space.num_points)
        got = rationalize_module._replay_mask(table, revealed_relation(e, c, c.mode, monotone=monotone))
        assert got.tolist() == [naive_replay(row.tolist(), e, c) for row in table]


class TestSampleExtension:
    def test_samples_rationalize(self, line5):
        e, c = dataset(line5, [(0, 3, (3,)), (1, 2, (1, 2))], "strong")
        r = revealed_relation(e, c, "strong")
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert rationalizes(sample_extension(r, rng), e, c)

    def test_int_seed_is_deterministic(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "weak")
        r = revealed_relation(e, c, "weak")
        assert sample_extension(r, 7) == sample_extension(r, 7)

    def test_support_matches_naive_enumeration(self):
        # every rationalizing preorder of a 3-point dataset is reachable
        tri = from_points(np.array([0.0, 0.4, 1.0]).reshape(-1, 1))
        e, c = dataset(tri, [(0, 2, (2,))], "weak")
        r = revealed_relation(e, c, "weak")
        expected = {row for row in naive_preorders(3) if naive_replay(row, e, c)}
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(600):
            seen.add(tuple(int(v) for v in sample_extension(r, rng).rank))
        assert seen == expected

    def test_inconsistent_data_rejected(self, line5):
        e, c = dataset(line5, [(0, 1, (0,)), (0, 1, (1,))], "strong")
        r = revealed_relation(e, c, "strong")
        with pytest.raises(PreconditionError):
            sample_extension(r, 0)

    @pytest.mark.parametrize("merge_prob", [-0.5, float("nan"), 1.5, "0.5"])
    def test_merge_prob_outside_the_unit_interval_rejected(self, line5, merge_prob):
        e, c = dataset(line5, [(0, 3, (3,))], "weak")
        with pytest.raises(ConfigurationError, match="merge_prob"):
            sample_extension(revealed_relation(e, c, "weak"), 0, merge_prob)

    def test_mt19937_generator_rejected(self, line5):
        # its words are 32 bits and it keeps no half of one: the sampler cannot read its draws from them
        e, c = dataset(line5, [(0, 3, (3,))], "weak")
        with pytest.raises(ConfigurationError, match="MT19937"):
            sample_extension(revealed_relation(e, c, "weak"), np.random.Generator(np.random.MT19937(0)))


def comparable_state(state):
    """A bit generator's state with its arrays as lists, so that two states compare with ==."""
    return {key: comparable_state(value) if isinstance(value, dict) else
            value.tolist() if isinstance(value, np.ndarray) else value for key, value in state.items()}


class TestRawWords:
    """The sampler's word reader against the Generator draws it stands for."""

    # the three largest reject about half, a quarter and almost none of their first draws
    BOUNDS = [2, 144, 4096, 2**31 + 1, 3 * 2**30, 2**32 - 1]

    @settings(max_examples=300, deadline=None)
    @given(bit_generator=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox]),
           seed=st.integers(0, 2**64 - 1), lead=st.integers(0, 2), block=st.sampled_from([1, 3, 64]),
           draws=st.lists(st.sampled_from(BOUNDS) | st.none(), max_size=600))
    def test_reads_as_the_generator_draws(self, bit_generator, seed, lead, block, draws):
        got_rng, want_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        # one lead draw leaves the high half of its word kept, two leave it used but still in the state
        for _ in range(lead):
            assert got_rng.integers(7) == want_rng.integers(7)
        with mock.patch.object(rationalize_module, "_BLOCK", block):
            words = rationalize_module._RawWords(got_rng)
            got = [words.random() if m is None else words.integers(m) for m in draws]
            words.sync()
        # None draws a double, a bound an integer below it
        assert got == [want_rng.random() if m is None else int(want_rng.integers(m)) for m in draws]
        assert comparable_state(got_rng.bit_generator.state) == comparable_state(want_rng.bit_generator.state)
        assert got_rng.integers(2**40, size=3).tolist() == want_rng.integers(2**40, size=3).tolist()
        assert got_rng.random() == want_rng.random()


def oracle_sample(r, rng, merge_prob):
    """sample_extension's ranks, drawn on the walk that counts every arc of the condensation."""
    cond = r.condensation
    arcs = list(zip(cond.arc_u.tolist(), cond.arc_v.tolist()))
    strict = {frozenset(arc) for arc, s in zip(arcs, cond.arc_strict.tolist()) if s}
    levels, block, level = {}, [], -1
    for comp in full_arc_walk(cond.num_comps, arcs, lambda ready: int(rng.integers(len(ready)))):
        if block and rng.random() < merge_prob and not any(frozenset((comp, b)) in strict for b in block):
            block.append(comp)
        else:
            block, level = [comp], level + 1
        levels[comp] = level
    return [levels[comp] for comp in cond.labels.tolist()]


def assert_covers_are_the_reduction(cond):
    # the covers `above` lists, by head and then by tail, are the transitive reduction of the arcs, each once
    arcs = list(zip(cond.arc_u.tolist(), cond.arc_v.tolist()))
    covers = [(u, v) for v, tails in enumerate(cond.above) for u in tails]
    assert covers == sorted(naive_transitive_reduction(cond.num_comps, arcs), key=lambda arc: arc[::-1])


# under another numbering the pass over the arcs would read a component's reach before it is final and keep extra
# covers, which the sampler reads with the same draws
SCIPY_NUMBERING = ("a condensation arc runs from a lower component id to a higher one: the closures, the covers, the "
                   "extremal ranks and every seeded pin depend on SciPy numbering strong components in reverse "
                   "topological order")


class TestCoverWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cover_walk_draws_as_the_full_walk(self, data):
        dims = data.draw(st.integers(1, 3))
        g = make_grid_euclidean(dims, data.draw(st.integers(2, 8)) if dims == 1 else 2, (0.0, 1.0))
        monotone = data.draw(st.sampled_from(["none", "weak", "strict"]))
        mode = data.draw(st.sampled_from(["strong", "weak"]))
        # integer level weights keep ties exact; positive weights respect strict dominance
        low = {"none": -2, "weak": 0, "strict": 1}[monotone]
        weights = data.draw(st.lists(st.integers(low, 3), min_size=dims, max_size=dims))
        truth = from_utility(g, np.rint(g.points * 7) @ np.array(weights, dtype=float))
        members = data.draw(st.lists(st.integers(0, g.num_points - 1), min_size=2, max_size=8, unique=True))
        e = enumerate_pairs(dense_subset(g, members=sorted(members)), "shuffled", data.draw(st.integers(0, 99)))
        c = generate_choices(truth, e, mode=mode, tie_policy="both" if mode == "strong" else "first")
        r = revealed_relation(*restrict(e, c, data.draw(st.integers(1, len(e)))), mode, monotone=monotone)
        cond = r.condensation
        assert (cond.arc_v < cond.arc_u).all(), SCIPY_NUMBERING
        assert_covers_are_the_reduction(cond)
        seed, merge_prob = data.draw(st.integers(0, 2**32)), data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_extension(r, got_rng, merge_prob)
            assert got.rank.tolist() == Preference(g, oracle_sample(r, want_rng, merge_prob)).rank.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestClosures:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closures_match_path_search(self, data):
        # free picks on spaces of at most 7 points, under every class and mode; S is read only on consistent data,
        # where no strict edge joins two points of one component. The pass that builds the reach keeps the
        # transitive reduction as covers
        g = data.draw(st.sampled_from([None, FAR_SPACES["simplex3x2"]]))
        e, c, monotone = draw_tiled_data(data, 7, g)
        self.assert_walk_matches_path_search(revealed_relation(e, c, c.mode, monotone=monotone))

    @staticmethod
    def assert_walk_matches_path_search(r):
        cond = r.condensation
        closure, strict_closure = naive_closures(r)
        assert np.array_equal(cond.closure, closure)
        if cond.consistent:
            assert np.array_equal(cond.strict_closure, strict_closure)
        assert_covers_are_the_reduction(cond)

    @pytest.mark.parametrize("num_points", [8, 9, 64, 65])
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_chains_wider_than_a_byte(self, num_points, mode):
        # a strict truth leaves each point of a chain its own component, so a component's bitsets take 1, 2, 8 or 9
        # bytes; a shuffled prefix of 3 pairs a point leaves covers between points that are not neighbours
        space = from_points(np.arange(float(num_points)).reshape(-1, 1))
        e = enumerate_pairs(dense_subset(space), "shuffled", 5)
        truth = from_utility(space, np.arange(float(num_points)))
        c = generate_choices(truth, e, mode=mode, tie_policy="both" if mode == "strong" else "first")
        r = revealed_relation(*restrict(e, c, 3 * num_points), mode)
        assert r.condensation.num_comps == num_points
        self.assert_walk_matches_path_search(r)

    def test_readme_prefix_wider_than_a_byte(self):
        # the README's 12x12 data at k = 4,096 under strict_monotone: 119 components, strict and weak arcs
        space = make_grid_euclidean(2, 12, (0.0, 1.0))
        gen = from_utility(space, generator_values(space, {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}}))
        e = enumerate_pairs(dense_subset(space))
        r = revealed_relation(*restrict(e, generate_choices(gen, e, "strong"), 4096), "strong", monotone="strict")
        assert r.condensation.num_comps == 119 and 0 < r.condensation.arc_strict.sum() < len(r.condensation.arc_strict)
        self.assert_walk_matches_path_search(r)


def whole_order_relation(r, monotone):
    """r's data edges and, as monotonicity edges of the class, every ordered pair of the space order: the relation
    before covers."""
    space, data = r.space, r.data_edges()
    columns = [(r.x[data], r.y[data], r.strict[data], r.pair_index[data])]
    orders = [(False, space.weak_order & ~np.eye(space.num_points, dtype=bool))]
    if monotone == "strict":
        orders.append((True, space.strict_order))
    for is_strict, order in orders:
        ii, jj = np.nonzero(order)
        columns.append((ii, jj, np.full(len(ii), is_strict), np.zeros(len(ii), dtype=np.int64)))
    return RevealedRelation(space, *(np.concatenate(column) for column in zip(*columns)), monotone)


def _draw_monotone_space(data, max_points=36):
    """A space of at most max_points points: a small one of any kind, a scattered point set, or a hand-built one
    with tied order keys."""
    kind = data.draw(st.sampled_from(["grid", "lottery", "dated", "acts", "points", "tied"]))
    if kind == "grid":
        shapes = [(dims, side) for dims, top in ((1, 9), (2, 5), (3, 3)) for side in range(2, top + 1)]
        dims, side = data.draw(st.sampled_from([(d, k) for d, k in shapes if k**d <= max_points]))
        return make_grid_euclidean(dims, side, (0.0, 1.0))
    if kind == "lottery":
        shapes = [(prizes, k) for prizes in range(2, 6) for k in range(1, 9)]
        shapes = [(prizes, k) for prizes, k in shapes if math.comb(k + prizes - 1, k) <= max_points]
        return make_lottery_simplex(*data.draw(st.sampled_from(shapes)))
    if kind == "dated":
        shapes = [(money, dates) for money in range(2, 6) for dates in range(2, 5) if money * dates <= max_points]
        money, dates = data.draw(st.sampled_from(shapes))
        return make_dated_rewards(money, dates, ((0.0, 1.0), (0.0, 1.0)))
    if kind == "acts":
        shapes = [(states, prizes, k) for states in (2, 3) for prizes in (2, 3) for k in (1, 2)]
        shapes = [(s, prizes, k) for s, prizes, k in shapes if math.comb(k + prizes - 1, k) ** s <= max_points]
        states, prizes, k = data.draw(st.sampled_from(shapes))
        return make_aa_acts(states, make_lottery_simplex(prizes, k))
    if kind == "points":
        coords = st.tuples(st.integers(0, 3), st.integers(0, 3))
        points = st.lists(coords, min_size=2, max_size=min(9, max_points), unique=True)
        return from_points(np.array(data.draw(points), dtype=float))
    n = data.draw(st.integers(3, min(9, max_points)))
    keys = np.array(data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=n, max_size=n)))
    tied_kind = data.draw(st.sampled_from(["euclidean_points", "dated_rewards"]))
    return OrderedSpace(tied_kind, np.arange(n, dtype=float)[:, None], keys, (), 1.0, {"kind": tied_kind})


class TestMonotoneCovers:
    """The covers relation reads as the relation with every pair of the space order, to the last output."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_covers_relation_matches_whole_order_relation(self, data):
        space = _draw_monotone_space(data)
        monotone = data.draw(st.sampled_from(["weak", "strict"]))
        mode = data.draw(st.sampled_from(["strong", "weak"]))
        # integer utilities: noise 0 with positive weights respects the order, noise 1 often breaks it
        keys = np.asarray(space.order_keys, dtype=float)
        weights = np.array(data.draw(st.lists(st.integers(1, 3), min_size=keys.shape[1], max_size=keys.shape[1])))
        noise = data.draw(st.sampled_from([0, 1]))
        jitter = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=space.num_points,
                                             max_size=space.num_points)))
        truth = from_utility(space, keys @ weights + noise * 4 * jitter)
        members = data.draw(st.lists(st.integers(0, space.num_points - 1), min_size=2, max_size=8, unique=True))
        e = enumerate_pairs(dense_subset(space, members=sorted(members)), "shuffled", data.draw(st.integers(0, 99)))
        c = generate_choices(truth, e, mode=mode, tie_policy="both" if mode == "strong" else "first")
        r = revealed_relation(*restrict(e, c, data.draw(st.integers(1, len(e)))), mode, monotone=monotone)
        oracle = whole_order_relation(r, monotone)
        assert (r.condensation.arc_v < r.condensation.arc_u).all(), SCIPY_NUMBERING
        assert np.array_equal(r.arc_matrix, oracle.arc_matrix)
        assert r.condensation.labels.tolist() == oracle.condensation.labels.tolist()
        verdict = check_consistency(r)
        assert verdict == check_consistency(oracle)
        if space.kind == "lottery_simplex":
            got, want = _eu_from_edges(r), _eu_from_edges(oracle)
            assert got.status == want.status and got.margin == want.margin
            assert (got.index is None and want.index is None) or np.array_equal(got.index, want.index)
        if not verdict.consistent:
            return
        assert _min_height(r.condensation).tolist() == _min_height(oracle.condensation).tolist()
        assert _max_height(r.condensation).tolist() == _max_height(oracle.condensation).tolist()
        seed, merge_prob = data.draw(st.integers(0, 2**32)), data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert sample_extension(r, got_rng, merge_prob) == sample_extension(oracle, want_rng, merge_prob)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert _relation_diameter(r, 12, seed) == _relation_diameter(oracle, 12, seed)


class TestWitness:
    """The hop-table witness against one breadth-first search per strict start."""

    @pytest.mark.parametrize("speedup", [0, 10**9], ids=["sparse_levels", "dense_levels"])
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_witness_matches_per_start_search(self, speedup, data):
        space = _draw_monotone_space(data, max_points=9)
        e, c, monotone = draw_tiled_data(data, 9, space)
        # a drawn loop of picks, each point chosen over the next, closes long cycles; free picks follow it
        loop = data.draw(st.lists(st.integers(0, len(space) - 1), min_size=2, max_size=len(space), unique=True))
        k = data.draw(st.integers(0, len(e)))
        pairs = np.vstack([np.column_stack([loop, np.roll(loop, -1)]), e.pair_array[:k]])
        chose = np.vstack([np.tile([True, False], (len(loop), 1)), c.chose_mask[:k]])
        e = ExperimentSequence(space, e.B, pairs)
        r = revealed_relation(e, ChoiceSequence(e, chose, c.mode), c.mode, monotone=monotone)
        # every level takes the sparse product, or every level the dense one
        with mock.patch.object(rationalize_module, "_DENSE_SPEEDUP", speedup):
            witness = check_consistency(r).witness
        assert witness == per_start_witness(r)

    def test_corner_over_corner_on_a_strict_grid(self):
        # the whole 16x16 grid is one component: one search per strict start takes about 13 s on a 2-CPU x86 host
        space = make_grid_euclidean(2, 16, (0.0, 1.0))
        e, c = dataset(space, [(0, 255, (0,))], "strong")
        r = revealed_relation(e, c, "strong", monotone="strict")
        start = time.perf_counter()
        witness = check_consistency(r).witness
        elapsed = time.perf_counter() - start
        assert witness == (0, 255, 0)
        assert elapsed < 2.0, f"{elapsed:.2f}s"

    def test_strict_cycle_through_the_whole_grid(self):
        # every point starts a strict pair and the witness takes 576 arcs: on a 2-CPU x86 host one search per
        # start takes about 0.5 s, and a dense product per level about 2 s
        space = make_grid_euclidean(2, 24, (0.0, 1.0))
        e, c = dataset(space, [(i, (i + 1) % 576, (i,)) for i in range(576)], "strong")
        r = revealed_relation(e, c, "strong")
        start = time.perf_counter()
        witness = check_consistency(r).witness
        elapsed = time.perf_counter() - start
        assert witness == (*range(576), 0)
        assert elapsed < 0.25, f"{elapsed:.2f}s"

    def test_one_strict_pick_closes_a_chain_of_indifferences(self):
        space = make_grid_euclidean(2, 24, (0.0, 1.0))
        rows = [(i, i + 1, (i, i + 1)) for i in range(575)] + [(575, 0, (575,))]
        e, c = dataset(space, rows, "strong")
        assert check_consistency(revealed_relation(e, c, "strong")).witness == (575, *range(576))


class TestSeededGolden:
    """Seeded sampler outputs pinned to fixed values.

    They pin how the samplers consume the generator: ready components start
    in ascending order, each step pops a uniformly drawn ready index, and
    waiters are released in ascending component order.
    """

    @pytest.fixture
    def grid_data(self):
        g = make_grid_euclidean(2, 4, (0.0, 1.0))
        truth = from_utility(g, np.round(g.points[:, 0] + g.points[:, 1], 6))
        e = enumerate_pairs(dense_subset(g, members=[0, 3, 5, 6, 9, 12, 15]))
        return truth, e, generate_choices(truth, e, mode="strong")

    @pytest.mark.parametrize("monotone, expected", [
        ("weak", [
            [0, 1, 4, 6, 2, 3, 6, 9, 5, 6, 8, 10, 6, 7, 11, 12],
            [0, 1, 2, 4, 3, 3, 4, 6, 4, 4, 4, 6, 4, 4, 5, 6],
            [0, 0, 0, 2, 0, 1, 2, 2, 0, 2, 2, 3, 2, 2, 3, 3],
        ]),
        ("strict", [
            [0, 1, 4, 6, 2, 3, 6, 9, 5, 6, 8, 10, 6, 7, 11, 12],
            [0, 1, 2, 4, 3, 3, 4, 7, 4, 4, 5, 7, 4, 5, 6, 7],
            [0, 0, 0, 2, 0, 1, 2, 2, 0, 2, 2, 3, 2, 2, 3, 3],
        ]),
    ])
    def test_sample_extension_draws(self, grid_data, monotone, expected):
        _, e, c = grid_data
        r = revealed_relation(e, c, "strong", monotone=monotone)
        rng = np.random.default_rng(11)
        got = [sample_extension(r, rng, merge_prob=mp).rank.tolist() for mp in (0.0, 0.5, 0.9)]
        assert got == expected

    @pytest.mark.parametrize("policy_class, seed, candidates", [
        ("weak_monotone", 0, 29), ("weak_monotone", 1, 27),
        ("strict_monotone", 0, 30), ("strict_monotone", 1, 29),
    ])
    def test_sampled_diameter(self, grid_data, policy_class, seed, candidates):
        _, e, c = grid_data
        res = diameter_estimate(e, c, policy_class, num_samples=30, seed=seed)
        assert (res.value, res.method, res.num_candidates) == (1.0 / 3.0, "sampled", candidates)

    def test_adversarial_far_result(self, grid_data):
        # the constructed extension, the same for every seed, at the bound the path-search oracle gives
        truth, e, c = grid_data
        r = revealed_relation(e, c, "strong", monotone="weak")
        far, exhausted = adversarial_far_extension(r, truth, seed=2, budget=400)
        assert far.rank.tolist() == [0, 0, 0, 2, 0, 1, 2, 2, 0, 2, 2, 2, 2, 2, 2, 3]
        assert exhausted is False
        assert closed_convergence_distance(far, truth) == pytest.approx(far_bound(r, truth), abs=1e-12)
        assert far_bound(r, truth) == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestAdversarialFar:
    def test_far_point_rationalizes_and_moves_away(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        target = extend_preference(r, RationalizationPolicy())
        far, exhausted = adversarial_far_extension(r, target, seed=1, budget=150)
        assert rationalizes(far, e, c)
        d = closed_convergence_distance(far, target)
        assert abs(d - 0.8) < 1e-12
        assert exhausted is False

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_the_reference_loop(self, data):
        # lines of 2-6 points and the 2x2 grid. A budget below 50 may run out; all the pairs often leave one
        # rationalization, whose 51st draw is the 50th stale one, so a budget of 51 runs out on the draw that stops
        # the search; and a far target on few points reaches the largest distance of the space
        dims = data.draw(st.integers(1, 2))
        g = make_grid_euclidean(dims, data.draw(st.integers(2, 6)) if dims == 1 else 2, (0.0, 1.0))
        monotone = data.draw(st.sampled_from(["none", "weak"]))
        if monotone == "none":
            values = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(g), max_size=len(g))), dtype=float)
        else:
            weights = data.draw(st.lists(st.integers(0, 3), min_size=dims, max_size=dims))
            values = np.rint(g.points * 5) @ np.array(weights, dtype=float)
        mode = data.draw(st.sampled_from(["strong", "weak"]))
        e = enumerate_pairs(dense_subset(g), "shuffled", data.draw(st.integers(0, 99)))
        c = generate_choices(from_utility(g, values), e, mode=mode, tie_policy="both" if mode == "strong" else "first")
        k = data.draw(st.integers(1, len(e)) | st.just(len(e)))
        r = revealed_relation(*restrict(e, c, k), mode, monotone=monotone)
        target = from_utility(g, data.draw(st.sampled_from([-values, np.zeros(len(g)), values])))
        seed, budget = data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 240) | st.just(51))
        far, exhausted = adversarial_far_extension(r, target, seed, budget)
        d = closed_convergence_distance(far, target)
        # the search's best draw is a lower bound, and the enumerated maximum is the value
        best, _ = reference_far_search(r, target, seed, budget)
        assert d >= closed_convergence_distance(Preference(g, best), target) - 1e-12
        assert d == pytest.approx(farthest_row_distance(g, holding_rows(r), target), abs=1e-12)
        assert exhausted is False

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("budget", -3), ("budget", 2.5), ("budget", "400"),
    ])
    def test_seed_and_budget_must_be_whole_and_at_least_0(self, line5, field, value):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        target = extend_preference(r, RationalizationPolicy())
        with pytest.raises(ConfigurationError, match=field):
            adversarial_far_extension(r, target, **{field: value})
        with pytest.raises(ConfigurationError, match=field):
            RationalizationPolicy(tag="adversarial_far", target=target, **{field: value})

    def test_seed_and_budget_change_nothing(self, line5):
        # every seed and budget, 0 included, returns the one constructed extension, at the largest distance 0.8
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        target = extend_preference(r, RationalizationPolicy())
        got = {(tuple(far.rank.tolist()), exhausted)
               for seed in (0, 3, 2**16) for budget in (0, 1, 400)
               for far, exhausted in [adversarial_far_extension(r, target, seed, budget)]}
        assert got == {((0, 0, 0, 1, 2), False)}
        assert closed_convergence_distance(Preference(line5, [0, 0, 0, 1, 2]), target) == pytest.approx(0.8)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_is_the_enumerated_maximum(self, data):
        # spaces of at most 7 points, every class and mode: the far extension holds r's whole cells, weakly where
        # a cell is weak and strictly where it is strict, and sits at the largest distance of any that does
        e, c, monotone, target = draw_far_case(data)
        k = data.draw(st.integers(1, len(e)))
        r = revealed_relation(*restrict(e, c, k), c.mode, monotone=monotone)
        far, exhausted = adversarial_far_extension(r, target)
        rank = far.rank
        assert (rank[:, None] >= rank[None, :])[r.whole_cells(strict=False)].all()
        assert (rank[:, None] > rank[None, :])[r.whole_cells(strict=True)].all()
        want = farthest_row_distance(e.space, holding_rows(r), target)
        assert closed_convergence_distance(far, target) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(far_bound(r, target), abs=1e-12)
        assert exhausted is False

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_never_rises_along_the_prefixes(self, data):
        # each pair can only shrink the rationalization set, so the farthest of it comes no farther
        e, c, monotone, target = draw_far_case(data)
        values = [closed_convergence_distance(adversarial_far_extension(
            revealed_relation(*restrict(e, c, k), c.mode, monotone=monotone), target)[0], target)
            for k in range(1, len(e) + 1)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))

    def test_target_must_be_a_preference(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        gen = from_utility(line5, line5.points[:, 0])
        for target in (gen.relation(), None, gen.rank):
            with pytest.raises(DomainError, match="must be a Preference"):
                adversarial_far_extension(r, target)
            with pytest.raises(ConfigurationError, match="target Preference"):
                RationalizationPolicy(tag="adversarial_far", target=target)
        with pytest.raises(ConfigurationError, match="target Preference, got str"):
            RationalizationPolicy(tag="adversarial_far", target="generator")

    def test_target_is_checked_before_any_work(self, line5, monkeypatch):
        # inconsistent data would raise PreconditionError, so a DomainError shows the target is checked first
        e, c = dataset(line5, [(0, 1, (0,)), (0, 1, (1,))], "strong")
        r = revealed_relation(e, c, "strong")
        other = from_utility(make_grid_euclidean(1, 5, (0.0, 1.0)), np.arange(5.0))
        monkeypatch.setattr(rationalize_module, "_require_consistent", mock.Mock(side_effect=AssertionError))
        for target in (other, other.relation(), None):
            with pytest.raises(DomainError):
                adversarial_far_extension(r, target)
        assert "condensation" not in vars(r)

    def test_policy_requires_target(self):
        with pytest.raises(ConfigurationError):
            RationalizationPolicy(tag="adversarial_far")

    def test_policy_dispatch(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        target = extend_preference(r, RationalizationPolicy())
        policy = RationalizationPolicy(tag="adversarial_far", target=target, seed=1, budget=150)
        far = extend_preference(r, policy)
        assert closed_convergence_distance(far, target) > 0


class TestIndifferenceConstruction:
    def test_rationalizes_and_sits_near_flat(self):
        g = make_grid_euclidean(1, 64, (0.0, 1.0))
        truth = from_utility(g, g.points[:, 0])
        e = enumerate_pairs(dense_subset(g, members=[0, 21, 42, 63]))
        c = generate_choices(truth, e, mode="strong")
        q = indifference_construction(e, c)
        assert rationalizes(q, e, c)
        flat = from_utility(g, np.zeros(g.num_points))
        d = closed_convergence_distance(q, flat)
        k = len(e.pairs)
        assert d <= 1.0 / (2.0 * k) + 2.0 * g.step

    def test_coarse_grid_rejected(self):
        g = make_grid_euclidean(1, 3, (0.0, 1.0))
        e, c = dataset(g, [(0, 2, (2,))], "strong")
        with pytest.raises(ResolutionError):
            indifference_construction(e, c)

    def test_non_grid_space_rejected(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        with pytest.raises(ConfigurationError):
            indifference_construction(e, c)

    def test_policy_tag_gives_the_construction(self):
        g = make_grid_euclidean(1, 64, (0.0, 1.0))
        e = enumerate_pairs(dense_subset(g, members=[0, 21, 42, 63]))
        c = generate_choices(from_utility(g, g.points[:, 0]), e, mode="strong")
        policy = RationalizationPolicy(tag="adversarial_indifference")
        assert extend_preference(revealed_relation(e, c, "strong"), policy) == indifference_construction(e, c)

    def test_monotone_edges_rejected_by_policy(self):
        g = make_grid_euclidean(1, 64, (0.0, 1.0))
        e, c = dataset(g, [(0, 63, (63,))], "strong")
        r = revealed_relation(e, c, "strong", monotone="weak")
        with pytest.raises(ConfigurationError):
            extend_preference(r, RationalizationPolicy(tag="adversarial_indifference"))


class TestEuRationalize:
    def test_recovers_generating_index(self):
        s = make_lottery_simplex(3, 4)
        idx = np.array([0.8, -0.2, -0.6])
        idx = idx / np.linalg.norm(idx)
        e = enumerate_pairs(dense_subset(s))
        c = generate_choices(from_utility(s, s.points @ idx), e, mode="strong")
        res = eu_rationalize(e, c)
        assert res.status == "feasible"
        np.testing.assert_allclose(
            res.index, [0.7844645405406675, -0.19611613509594364, -0.5883484054447239], atol=1e-9
        )
        assert abs(res.margin - 0.04902903373476264) < 1e-9
        assert eu_preference(s, res.index) == from_utility(s, s.points @ idx)

    def test_index_is_unit_and_zero_sum(self):
        s = make_lottery_simplex(3, 4)
        e, c = dataset(s, [(0, 14, (0,)), (2, 9, (2,))], "strong")
        res = eu_rationalize(e, c)
        assert res.status == "feasible"
        assert abs(np.linalg.norm(res.index) - 1.0) < 1e-9
        assert abs(res.index.sum()) < 1e-9

    def test_strict_cycle_is_infeasible(self):
        s = make_lottery_simplex(3, 4)
        pts = s.points

        def find(v):
            return int(np.where((np.abs(pts - np.array(v)) < 1e-9).all(axis=1))[0][0])

        a, b, c3 = find((1, 0, 0)), find((0, 1, 0)), find((0, 0, 1))
        e, c = dataset(s, [(a, b, (a,)), (b, c3, (b,)), (c3, a, (c3,))], "strong")
        res = eu_rationalize(e, c)
        assert res.status == "infeasible"
        assert res.index is None

    def test_all_ties_are_degenerate(self):
        s = make_lottery_simplex(3, 4)
        e = enumerate_pairs(dense_subset(s))
        c = generate_choices(from_utility(s, np.zeros(s.num_points)), e, mode="strong")
        res = eu_rationalize(e, c)
        assert res.status == "degenerate"
        assert res.margin == 0.0

    def test_non_lottery_space_rejected(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        with pytest.raises(ConfigurationError):
            eu_rationalize(e, c)


class TestLipschitzRationalize:
    def test_weak_data_rides_the_upper_band(self):
        g = make_grid_euclidean(1, 4, (0.0, 1.0))
        e, c = dataset(g, [(0, 3, (3,))], "weak")
        res = lipschitz_rationalize(e, c, 1.0, 2.0)
        assert res.status == "feasible"
        np.testing.assert_allclose(res.values, [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0], atol=1e-9)
        assert rationalizes(from_utility(g, res.values), e, c)

    def test_strict_data_margin(self):
        g = make_grid_euclidean(1, 4, (0.0, 1.0))
        e, c = dataset(g, [(0, 3, (3,)), (1, 2, (2,))], "strong")
        res = lipschitz_rationalize(e, c, 1.0, 2.0)
        assert res.status == "feasible"
        np.testing.assert_allclose(res.values, [0.0, 1.0 / 3.0, 1.0, 4.0 / 3.0], atol=1e-9)
        assert abs(res.margin - 2.0 / 3.0) < 1e-9
        assert rationalizes(from_utility(g, res.values), e, c)

    def test_band_constraints_hold(self):
        g = make_grid_euclidean(1, 5, (0.0, 1.0))
        e, c = dataset(g, [(0, 4, (4,)), (1, 3, (3,))], "strong")
        res = lipschitz_rationalize(e, c, 0.5, 3.0)
        step = g.step
        diffs = np.diff(res.values)
        assert (diffs >= 0.5 * step - 1e-9).all()
        assert (diffs <= 3.0 * step + 1e-9).all()
        assert res.values[0] == 0.0

    def test_downward_choice_is_infeasible(self):
        g = make_grid_euclidean(1, 4, (0.0, 1.0))
        e, c = dataset(g, [(0, 3, (0,))], "strong")
        res = lipschitz_rationalize(e, c, 1.0, 2.0)
        assert res.status == "infeasible"
        assert res.values is None

    def test_bad_band_rejected(self):
        g = make_grid_euclidean(1, 4, (0.0, 1.0))
        e, c = dataset(g, [(0, 3, (3,))], "weak")
        with pytest.raises(ConfigurationError):
            lipschitz_rationalize(e, c, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            lipschitz_rationalize(e, c, 0.0, 1.0)

    def test_non_grid_space_rejected(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "weak")
        with pytest.raises(ConfigurationError):
            lipschitz_rationalize(e, c, 1.0, 2.0)

    @pytest.mark.parametrize("a, b", [(0.5, math.inf), (0.5, math.nan), (math.nan, 1.0), (math.inf, math.inf)])
    def test_non_finite_band_rejected(self, a, b):
        # an infinite b would pass 0 < a < b and reach the solver as an infinite bound
        g = make_grid_euclidean(1, 4, (0.0, 1.0))
        e, c = dataset(g, [(0, 3, (3,))], "weak")
        with pytest.raises(ConfigurationError, match="0 < a < b"):
            lipschitz_rationalize(e, c, a, b)


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_recurrence(self, n):
        assert all_total_preorders(n).shape[0] == ordered_bell(n)

    def test_rows_are_dense_ranks(self):
        for row in all_total_preorders(4):
            top = int(row.max())
            assert set(int(v) for v in row) == set(range(top + 1))

    def test_matches_naive_enumeration(self):
        got = {tuple(int(v) for v in row) for row in all_total_preorders(4)}
        assert got == set(naive_preorders(4))

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            all_total_preorders(8)

    def test_no_points_have_one_empty_preorder(self):
        rows = all_total_preorders(0)
        assert rows.shape == (ordered_bell(0), 0) == (1, 0)

    @pytest.mark.parametrize("n", [-1, -8, 2.0, 2.5, "3", None])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(DomainError):
            all_total_preorders(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_is_naive_enumeration_in_order(self, n):
        assert rationalize_module._preorder_table(n).tolist() == [list(row) for row in naive_preorders(n)]

    def test_table_is_read_only(self):
        table = rationalize_module._preorder_table(5)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_writing_a_returned_array_leaves_later_results_alone(self):
        first = all_total_preorders(4)
        first[:] = 0
        again = all_total_preorders(4)
        assert again.flags.writeable
        assert {tuple(int(v) for v in row) for row in again} == set(naive_preorders(4))

    def test_brute_force_filter(self):
        tri = from_points(np.array([0.0, 0.4, 1.0]).reshape(-1, 1))
        e, c = dataset(tri, [(0, 2, (2,))], "weak")
        got = {tuple(int(v) for v in row) for row in brute_force_rationalizations(e, c)}
        expected = {row for row in naive_preorders(3) if naive_replay(row, e, c)}
        assert got == expected


class TestDiameter:
    def test_fully_determined_data_has_zero_diameter(self, line5):
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(from_utility(line5, line5.points[:, 0]), e, mode="strong")
        res = diameter_estimate(e, c)
        assert res.value == 0.0
        assert res.method == "exact"
        assert res.num_candidates == 1

    def test_exact_matches_naive_oracle(self):
        tri = from_points(np.array([0.0, 0.4, 1.0]).reshape(-1, 1))
        e, c = dataset(tri, [(0, 2, (2,))], "weak")
        res = diameter_estimate(e, c)
        rows = [row for row in naive_preorders(3) if naive_replay(row, e, c)]
        prefs = [from_utility(tri, np.array(row, dtype=float)) for row in rows]
        expected = max(
            brute_graph_distance(tri, a, b) for a in prefs for b in prefs
        )
        assert res.method == "exact"
        assert res.num_candidates == len(rows) == 8
        assert abs(res.value - expected) < 1e-12
        assert abs(res.value - 0.6) < 1e-12

    @pytest.mark.parametrize("rows, value", [
        ([(1, 2, (1,)), (2, 5, (2, 5)), (0, 3, (0, 3)), (4, 1, (1,))], 0.5),
        ([(5, 4, (4,)), (0, 2, (0, 2)), (3, 0, (3,)), (4, 1, (4, 1)), (1, 5, (1,))], 0.3),
    ])
    def test_exact_matches_naive_oracle_on_2d_lattice(self, rows, value):
        lattice = from_points(np.array([(x, y) for x in (0.0, 0.7) for y in (0.0, 0.2, 0.5)]))
        e, c = dataset(lattice, rows, "strong")
        res = diameter_estimate(e, c, "all")
        prefs = [from_utility(lattice, np.array(row, dtype=float))
                 for row in naive_preorders(6) if naive_replay(row, e, c)]
        expected = max(brute_graph_distance(lattice, a, b) for a in prefs for b in prefs)
        assert res.method == "exact"
        assert res.num_candidates == len(prefs)
        assert abs(res.value - expected) < 1e-12
        assert abs(res.value - value) < 1e-12

    def test_partial_chain_values(self, chain6):
        e, c = dataset(chain6, [(0, 1, (1,)), (2, 3, (3,))], "strong")
        exact = diameter_estimate(e, c, "all")
        assert exact.method == "exact"
        assert exact.num_candidates == 919
        assert exact.value == 3.0

    def test_sampled_lower_bounds_exact(self, chain6):
        e, c = dataset(chain6, [(0, 1, (1,)), (2, 3, (3,))], "strong")
        exact = diameter_estimate(e, c, "all")
        sampled = diameter_estimate(e, c, "weak_monotone", num_samples=80, seed=0)
        assert sampled.method == "sampled"
        # the weak-monotone set is a subset, so its spread cannot exceed the full spread
        assert sampled.value <= exact.value + 1e-12

    def test_strict_monotone_chain_is_determined(self, chain6):
        e, c = dataset(chain6, [(0, 1, (1,)), (2, 3, (3,))], "strong")
        res = diameter_estimate(e, c, "strict_monotone", num_samples=40, seed=0)
        assert res.value == 0.0
        assert res.num_candidates == 1

    def test_eight_point_chunked_path(self):
        s8 = from_points(np.arange(8.0).reshape(-1, 1))
        e = enumerate_pairs(dense_subset(s8))
        c = generate_choices(from_utility(s8, np.arange(8.0)), e, mode="strong")
        res = diameter_estimate(e, c)
        assert res.method == "exact"
        assert res.value == 0.0
        assert res.num_candidates == 1

    def test_repeated_exact_diameters_enumerate_once(self, line5):
        # every exact diameter on one space size filters one held table, built on first use
        rationalize_module._preorder_table.cache_clear()
        for rows in ([(0, 3, (3,))], [(1, 2, (1, 2)), (4, 0, (4,))], [(2, 3, (2,))]):
            assert diameter_estimate(*dataset(line5, rows, "strong")).method == "exact"
        assert rationalize_module._preorder_table.cache_info().misses == 1
        assert rationalize_module._preorder_table.cache_info().hits == 2

    def test_exact_inconsistent_data_keeps_its_witness(self, line5):
        e, c = dataset(line5, [(0, 1, (0,)), (1, 2, (1,)), (2, 0, (2,))], "strong")
        with pytest.raises(PreconditionError, match=r"witness cycle \(0, 1, 2, 0\)"):
            diameter_estimate(e, c)

    def test_blocked_passes_match_one_pass(self, chain6, monkeypatch):
        # the 4,683 preorders replayed 2 at a time and 919 candidates dilated 7 at a time, against one pass each
        e, c = dataset(chain6, [(0, 1, (1,)), (2, 3, (3,))], "strong")
        monkeypatch.setattr(rationalize_module, "_REPLAY_CELLS", 5)
        monkeypatch.setattr(preferences_module, "_GRAPH_CHUNK", 7)
        blocked = diameter_estimate(e, c, "all")
        monkeypatch.setattr(rationalize_module, "_REPLAY_CELLS", 10**9)
        monkeypatch.setattr(preferences_module, "_GRAPH_CHUNK", 10**6)
        assert blocked == diameter_estimate(e, c, "all") == DiameterResult(3.0, "exact", 919)

    def test_exact_working_memory_does_not_grow_with_candidates(self):
        # the 8-point chain with one pair keeps 249,271 candidates; measuring them all at once took 148 MB
        s8 = from_points(np.arange(8.0).reshape(-1, 1))
        e, c = dataset(s8, [(0, 7, (7,))], "strong")
        rationalize_module._preorder_table(8)  # the held table is not working memory
        tracemalloc.start()
        try:
            res = diameter_estimate(e, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.value, res.method, res.num_candidates) == (3.0, "exact", 249271)
        assert peak < 16e6

    def test_sampled_value_is_largest_pairwise_oracle_distance(self, grid3, monkeypatch):
        # a 9-point grid takes the sampled branch; capture the candidate rank rows it measures
        seen = []
        real = rationalize_module._sampled_candidates
        monkeypatch.setattr(rationalize_module, "_sampled_candidates",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        e, c = dataset(grid3, [(0, 8, (8,)), (2, 6, (2, 6)), (1, 5, (5,))], "strong")
        res = diameter_estimate(e, c, "all", num_samples=12, seed=3)
        (rows,) = seen
        assert res.method == "sampled"
        assert rows.shape == (res.num_candidates, 9) and res.num_candidates > 2
        prefs = [Preference(grid3, row) for row in rows]
        want = max(brute_graph_distance(grid3, a, b) for a, b in itertools.combinations(prefs, 2))
        assert want > 0
        assert res.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("free, policy_class, value", [
        ((3, 4), "weak_monotone", 0.35), ((0, 1), "weak_monotone", 0.1), ((3, 4), "all", 0.35),
    ])
    def test_two_candidates(self, monkeypatch, free, policy_class, value):
        # strong data on every pair of a 9-point line but one leaves that pair strict or tied: two
        # candidates, measured at the ceiling h(U -> L) when they reach it, else by the fold, which bisects the
        # first row and tests each later row once, at the running best; values recorded while two rows had their
        # own test
        line9 = from_points(np.array([0.0, 0.1, 0.3, 0.35, 0.7, 0.8, 1.0, 1.4, 1.5]).reshape(-1, 1))
        pairs = [pair for pair in itertools.combinations(range(9), 2) if pair != free]
        e = ExperimentSequence(line9, dense_subset(line9), tuple(pairs))
        c = ChoiceSequence(e, tuple((j,) for _, j in pairs), "strong")
        seen = []
        real = rationalize_module._sampled_candidates
        monkeypatch.setattr(rationalize_module, "_sampled_candidates",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        res = diameter_estimate(e, c, policy_class, num_samples=10, seed=0)
        assert (res.value, res.method, res.num_candidates) == (value, "sampled", 2)
        (rows,) = seen
        assert res.value == pytest.approx(brute_graph_distance(line9, *(Preference(line9, row) for row in rows)))

    def test_inconsistent_data_rejected(self, line5):
        e, c = dataset(line5, [(0, 1, (0,)), (0, 1, (1,))], "strong")
        with pytest.raises(PreconditionError):
            diameter_estimate(e, c)

    def test_unknown_policy_class_rejected(self, line5):
        e, c = dataset(line5, [(0, 1, (0,))], "strong")
        with pytest.raises(ConfigurationError):
            diameter_estimate(e, c, "convex")

    @pytest.mark.parametrize("policy_class, field, value", [
        pytest.param(cls, field, value, id=cls if (field, value) == ("seed", -1) else f"{cls}-{field}={value!r}")
        for field, value in [("seed", -1), ("seed", 1.5), ("seed", True),
                             ("num_samples", -1), ("num_samples", 2.5), ("num_samples", "3")]
        for cls in ("all", "weak_monotone", "strict_monotone")
    ])
    def test_negative_seed_rejected(self, line5, policy_class, field, value):
        # the exact branch draws nothing, but a seed and a sample count are checked for every class: each must be
        # a whole number of at least 0
        e, c = dataset(line5, [(0, 1, (1,))], "strong")
        with pytest.raises(ConfigurationError, match=field):
            diameter_estimate(e, c, policy_class, **{field: value})

    def test_float_conversion(self, line5):
        e, c = dataset(line5, [(0, 1, (0,))], "strong")
        res = diameter_estimate(e, c)
        assert float(res) == res.value


# spaces of 9 and 10 points: the sampled branch under every class
CEILING_SPACES = {
    "grid3x3": make_grid_euclidean(2, 3, (0.0, 1.0)),
    "line10": make_grid_euclidean(1, 10, (0.0, 1.0)),
    "simplex3x3": make_lottery_simplex(3, 3),
    "dated3x3": make_dated_rewards(3, 3, ((0.0, 1.0), (0.0, 1.0))),
}


def draw_prefix_relation(data, g=None):
    """The revealed relation of a drawn prefix of data on the space g, or else on a space of at most 7 points,
    under a drawn class and mode: data of a truth in the class, or free picks, which may be inconsistent."""
    if data.draw(st.booleans()):
        e, c, monotone, _ = draw_far_case(data, g)
    else:
        e, c, monotone = draw_tiled_data(data, 7, g)
    return revealed_relation(*restrict(e, c, data.draw(st.integers(1, len(e)))), c.mode, monotone=monotone)


class TestDiameterCeiling:
    """h(U -> L), the sampled diameter's ceiling, against the preorder table and the fold it stops."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ceiling_is_the_largest_distance_between_holding_preorders(self, data):
        # spaces of at most 7 points, every class and mode: the rows of the table that hold r's whole cells are
        # its rationalizations, measured pairwise by the cell oracle while few, else by the exact branch's fold
        r = draw_prefix_relation(data, data.draw(st.sampled_from([None, FAR_SPACES["simplex3x2"]])))
        if not r.condensation.consistent:
            return
        space, rows = r.space, holding_rows(r)
        value = space.distance_values[rationalize_module._diameter_ceiling(r.condensation, space)]
        if len(rows) <= 30:
            want = max(farthest_row_distance(space, rows, Preference(space, row)) for row in rows)
        else:
            want = preferences_module._graph_diameter(space, rows, as_graphs=True)
        assert value == pytest.approx(want, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sampled_value_is_the_fold_to_the_bit(self, data):
        # spaces of 9 and 10 points, every class and mode, 0 to 12 draws: value and count are the fold's over the
        # same candidates, at the ceiling or below it; L = U exactly when the lowest extension is a strict chain of
        # the components, and then one candidate is counted
        g = CEILING_SPACES[data.draw(st.sampled_from(sorted(CEILING_SPACES)))]
        r = draw_prefix_relation(data, g)
        cond = r.condensation
        if not cond.consistent:
            return
        num_samples, seed = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 2**32 - 1))
        rows = rationalize_module._sampled_candidates(cond, _min_height(cond), num_samples, seed)
        got = _relation_diameter(r, num_samples, seed)
        assert got == DiameterResult(preferences_module._graph_diameter(g, rows), "sampled", len(rows))
        ceiling = g.distance_values[rationalize_module._diameter_ceiling(cond, g)]
        assert got.value <= ceiling
        event("at the ceiling" if got.value == ceiling else "below the ceiling")
        one = np.array_equal(cond.closure, cond.upper)
        assert (_min_height(cond).max() + 1 == cond.num_comps) == one
        if one:
            assert (got.value, got.num_candidates) == (0.0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ceiling_never_rises_along_prefixes(self, data):
        # data of a truth in the class stay consistent on every prefix, and each prefix holds the last one's edges
        g = data.draw(st.sampled_from([None, *CEILING_SPACES.values()]))
        e, c, monotone, _ = draw_far_case(data, g)
        r = revealed_relation(e, c, c.mode, monotone=monotone)
        ks = sorted(data.draw(st.lists(st.integers(0, len(e)), min_size=2, max_size=6, unique=True)))
        ceilings = [rationalize_module._diameter_ceiling(r.prefix(k).condensation, r.space) for k in ks]
        assert ceilings == sorted(ceilings, reverse=True)

    def test_ceiling_reached_skips_the_fold(self, grid3, monkeypatch):
        # two draws 0.5 apart reach the ceiling, so no candidate set is folded
        e, c = dataset(grid3, [(0, 8, (8,)), (2, 6, (2, 6)), (1, 5, (5,))], "strong")
        monkeypatch.setattr(rationalize_module, "_graph_diameter", mock.Mock(side_effect=AssertionError("folded")))
        assert diameter_estimate(e, c, "all", num_samples=12, seed=3) == DiameterResult(0.5, "sampled", 12)

    def test_one_rationalization_draws_nothing(self, grid3, monkeypatch):
        # strong data on every pair, chosen by a strict truth, leave one rationalization: L = U
        e = enumerate_pairs(dense_subset(grid3))
        c = generate_choices(from_utility(grid3, np.arange(9.0)), e, mode="strong")
        cond = revealed_relation(e, c, "strong").condensation
        assert np.array_equal(cond.closure, cond.upper)
        monkeypatch.setattr(rationalize_module, "_sampled_candidates", mock.Mock(side_effect=AssertionError("drew")))
        for policy_class in ("all", "weak_monotone", "strict_monotone"):
            assert diameter_estimate(e, c, policy_class, num_samples=50, seed=1) == DiameterResult(0.0, "sampled", 1)

    def test_one_candidate_below_the_ceiling(self, grid3):
        # one tie of strong data: with two draws both extremal extensions are one preorder, measured at 0 below the
        # ceiling 0.5; twelve draws, some ranking 2 or 6 above the other, reach it
        e, c = dataset(grid3, [(2, 6, (2, 6))], "strong")
        r = revealed_relation(e, c, "strong")
        assert grid3.distance_values[rationalize_module._diameter_ceiling(r.condensation, grid3)] == 0.5
        assert diameter_estimate(e, c, "all", num_samples=2, seed=0) == DiameterResult(0.0, "sampled", 1)
        assert diameter_estimate(e, c, "all", num_samples=12, seed=3) == DiameterResult(0.5, "sampled", 11)


class TestResultJson:
    def test_document_shape(self, line5):
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        r = revealed_relation(e, c, "strong")
        p = extend_preference(r, RationalizationPolicy())
        diam = diameter_estimate(e, c)
        doc = json.loads(
            result_to_json("canonical", True, preference=p, diameter=diam)
        )
        assert doc["policy"] == "canonical"
        assert doc["consistent"] is True
        assert doc["ranks"] == [0, 0, 0, 1, 0]
        assert doc["diameter"] == {"value": diam.value, "method": "exact",
                                   "num_candidates": diam.num_candidates}

    def test_witness_document(self):
        doc = json.loads(result_to_json("canonical", False, witness=(0, 1, 0)))
        assert doc["witness_cycle"] == [0, 1, 0]
        assert "ranks" not in doc

    def test_policy_validation(self, line5):
        with pytest.raises(ConfigurationError):
            RationalizationPolicy(tag="optimist")
        # the monotone class is the revealed relation's, and it refuses an unknown one
        e, c = dataset(line5, [(0, 3, (3,))], "strong")
        with pytest.raises(ConfigurationError, match="unknown monotone class 'loose'"):
            revealed_relation(e, c, "strong", monotone="loose")
        config = ExperimentConfig.from_dict({"space": line5.descriptor, "generator": {"formula": "sum"},
                                             "policy": {"monotone": "loose"}})
        with pytest.raises(ConfigurationError, match="unknown monotone class 'loose'"):
            config.rationalization_policy()
