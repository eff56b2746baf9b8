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
from hypothesis import given, settings
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
    full_arc_walk,
    longest_path_ranks,
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


# under another numbering the cover walk would keep extra arcs, which the sampler reads with the same draws
SCIPY_NUMBERING = ("a condensation arc runs from a lower component id to a higher one: the cover walk, the extremal "
                   "ranks and every seeded pin depend on SciPy numbering strong components in reverse topological "
                   "order")


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
        arcs = list(zip(cond.arc_u.tolist(), cond.arc_v.tolist()))
        covers = {arc for arc, keep in zip(arcs, cond.covering.tolist()) if keep}
        assert covers == naive_transitive_reduction(cond.num_comps, arcs)
        seed, merge_prob = data.draw(st.integers(0, 2**32)), data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_extension(r, got_rng, merge_prob)
            assert got.rank.tolist() == Preference(g, oracle_sample(r, want_rng, merge_prob)).rank.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
        truth, e, c = grid_data
        r = revealed_relation(e, c, "strong", monotone="weak")
        far, exhausted = adversarial_far_extension(r, truth, seed=2, budget=400)
        assert far.rank.tolist() == [0, 0, 1, 2, 0, 1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 3]
        assert exhausted is False


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
        assert (far.rank.tolist(), exhausted) == reference_far_search(r, target, seed, budget)

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
        real = rationalize_module._graph_diameter
        monkeypatch.setattr(rationalize_module, "_graph_diameter",
                            lambda space, stack: seen.append(stack) or real(space, stack))
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
        # candidates, measured by the K-row cover test; values recorded while two rows had their own test
        line9 = from_points(np.array([0.0, 0.1, 0.3, 0.35, 0.7, 0.8, 1.0, 1.4, 1.5]).reshape(-1, 1))
        pairs = [pair for pair in itertools.combinations(range(9), 2) if pair != free]
        e = ExperimentSequence(line9, dense_subset(line9), tuple(pairs))
        c = ChoiceSequence(e, tuple((j,) for _, j in pairs), "strong")
        seen = []
        real = rationalize_module._graph_diameter
        monkeypatch.setattr(rationalize_module, "_graph_diameter",
                            lambda space, stack: seen.append(stack) or real(space, stack))
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

    @pytest.mark.parametrize("policy_class", ["all", "weak_monotone", "strict_monotone"])
    def test_negative_seed_rejected(self, line5, policy_class):
        # the exact branch draws nothing, but a seed is checked for every class
        e, c = dataset(line5, [(0, 1, (1,))], "strong")
        with pytest.raises(ConfigurationError):
            diameter_estimate(e, c, policy_class, seed=-1)

    def test_float_conversion(self, line5):
        e, c = dataset(line5, [(0, 1, (0,))], "strong")
        res = diameter_estimate(e, c)
        assert float(res) == res.value


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
