import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefid import (
    BinaryRelation,
    Preference,
    closed_convergence_distance,
    from_points,
    is_locally_strict,
    is_quasitransitive,
    is_strictly_monotone,
    is_weakly_monotone,
    li_ls_limit,
    make_grid_euclidean,
    make_lottery_simplex,
    total_indifference,
)
from prefid import preferences as preferences_module
from prefid.errors import DomainError
from prefid.preferences import _distance_to, _graph_diameter, from_utility
from prefid.spaces import _EPS

from conftest import brute_dilation, brute_graph_distance


def pref(space, ranks):
    return Preference(space, np.array(ranks))


def plane5():
    # uneven points in the plane, so distances are informative
    return from_points(np.array([[0.0, 0.0], [0.1, 0.5], [0.3, 0.2], [0.7, 0.9], [1.5, 0.4]]))


# the spaces of the rank-envelope checks: uneven and random points, a grid and a lottery simplex
ENVELOPE_SPACES = {
    "plane5": plane5(),
    "random12": from_points(np.random.default_rng(2).random((12, 2))),
    "grid4x4": make_grid_euclidean(2, 4, (0.0, 1.0)),
    "lottery3x4": make_lottery_simplex(3, 4),
}

# the spaces of the diameter fold's checks: at most 9 points, so the loop oracle can measure every pair of a stack
FOLD_SPACES = {
    "line7": from_points(np.array([0.0, 0.1, 0.3, 0.35, 0.7, 0.8, 1.0]).reshape(-1, 1)),
    "grid2x2": make_grid_euclidean(2, 2, (0.0, 1.0)),
    "grid3x3": make_grid_euclidean(2, 3, (0.0, 1.0)),
    "lottery3x2": make_lottery_simplex(3, 2),
}


class TestPreference:
    def test_ranks_are_densified(self, line5):
        p = pref(line5, (0, 5, 5, 9, 20))
        assert p.rank.tolist() == [0, 1, 1, 2, 3]
        assert p.num_classes() == 4

    def test_graph_and_strict_part(self, line5):
        p = pref(line5, (0, 1, 1, 2, 3))
        assert p.graph[1, 2] and p.graph[2, 1]
        assert p.strict[3, 1] and not p.strict[1, 3]
        assert not p.strict[1, 2]

    def test_wrong_length_rejected(self, line5):
        with pytest.raises(DomainError):
            pref(line5, (0, 1, 2))


def test_relation_leaves_the_callers_matrix_writeable(line5):
    m = np.zeros((5, 5), dtype=bool)
    rel = BinaryRelation(line5, m)
    view = m.view()
    view.flags.writeable = False
    rel_of_view = BinaryRelation(line5, view)
    m[0, 1] = True
    assert not rel.matrix[0, 1] and not rel.matrix.flags.writeable
    assert not rel_of_view.matrix[0, 1]


class TestFromUtility:
    def test_ranks_follow_values(self, line5):
        p = from_utility(line5, np.array([0.3, 0.3, -1.0, 2.0, 0.5]))
        assert p.rank.tolist() == [1, 1, 0, 3, 2]

    def test_monotone_utility_gives_monotone_preference(self, grid3):
        p = from_utility(grid3, grid3.points.sum(axis=1))
        assert is_weakly_monotone(p)
        assert is_strictly_monotone(p)

    def test_plateau_breaks_strict_monotonicity(self, grid3):
        # capped sum ties (1,1) with (0.5,0.5), a strictly dominating pair
        vals = np.minimum(grid3.points.sum(axis=1), 1.0)
        p = from_utility(grid3, vals)
        assert is_weakly_monotone(p)
        assert not is_strictly_monotone(p)


class TestClosedConvergenceDistance:
    # hand-frozen values from the loop oracle, uneven 5-point line
    FROZEN = [
        ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), 0.8),
        ((0, 1, 2, 3, 4), (0, 1, 2, 4, 3), 0.8),
        ((0, 0, 1, 1, 2), (0, 1, 2, 3, 4), 0.39999999999999997),
        ((2, 0, 1, 3, 4), (0, 1, 2, 3, 4), 0.19999999999999998),
    ]

    @pytest.mark.parametrize("ra,rb,expected", FROZEN)
    def test_frozen_cases(self, line5, ra, rb, expected):
        d = closed_convergence_distance(pref(line5, ra), pref(line5, rb))
        assert d == pytest.approx(expected, abs=1e-12)

    def test_matches_loop_oracle_on_random_pairs(self, line5):
        rng = np.random.default_rng(42)
        for _ in range(25):
            pa = pref(line5, rng.integers(0, 4, size=5))
            pb = pref(line5, rng.integers(0, 4, size=5))
            assert closed_convergence_distance(pa, pb) == pytest.approx(
                brute_graph_distance(line5, pa, pb), abs=1e-12)

    def test_works_on_relations_too(self, line5):
        rel = BinaryRelation(line5, np.ones((5, 5), dtype=bool))
        p = total_indifference(line5)
        assert closed_convergence_distance(rel, p) == 0.0

    def test_different_spaces_rejected(self, line5, grid3):
        with pytest.raises(DomainError):
            closed_convergence_distance(total_indifference(line5), total_indifference(grid3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=5, max_size=5),
       st.lists(st.integers(0, 3), min_size=5, max_size=5))
def test_distance_is_a_metric_on_graphs(ra, rb):
    space = from_points(np.array([0.0, 0.1, 0.3, 0.7, 1.5]).reshape(-1, 1))
    pa, pb = pref(space, ra), pref(space, rb)
    d_ab = closed_convergence_distance(pa, pb)
    assert d_ab == closed_convergence_distance(pb, pa)
    assert (d_ab == 0.0) == (pa == pb)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_triangle_inequality(ra, rb, rc):
    space = from_points(np.array([0.0, 0.1, 0.3, 0.7, 1.5]).reshape(-1, 1))
    pa, pb, pc = pref(space, ra), pref(space, rb), pref(space, rc)
    d = closed_convergence_distance
    assert d(pa, pc) <= d(pa, pb) + d(pb, pc) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ENVELOPE_SPACES)), st.data())
def test_envelope_distance_matches_dilation_and_loop_oracle(name, data):
    # ranks drawn from 0..3 on at least 5 points always hold ties
    space = ENVELOPE_SPACES[name]
    ranks = st.lists(st.integers(0, 3), min_size=space.num_points, max_size=space.num_points)
    pa, pb = pref(space, data.draw(ranks)), pref(space, data.draw(ranks))
    envelope = closed_convergence_distance(pa, pb)
    assert envelope == closed_convergence_distance(pa.relation(), pb.relation())
    assert envelope == pytest.approx(brute_graph_distance(space, pa, pb), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ENVELOPE_SPACES)), st.data())
def test_distance_to_a_fixed_preference_matches_loop_oracle(name, data):
    # besides random ranks, either side may be the all-tied preference, and both sides may be equal
    space = ENVELOPE_SPACES[name]
    n = space.num_points
    ranks = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    ra = data.draw(st.one_of(ranks, st.just([0] * n)))
    rb = data.draw(st.one_of(ranks, st.just([0] * n), st.just(ra)))
    pa, pb = pref(space, ra), pref(space, rb)
    want = brute_graph_distance(space, pa, pb)
    to_a, to_b = _distance_to(pa), _distance_to(pb)
    for p, q, to_q in ((pa, pb, to_b), (pb, pa, to_a)):
        assert to_q(p) == pytest.approx(want, abs=1e-12)
        assert closed_convergence_distance(p, q) == pytest.approx(want, abs=1e-12)
    # the target's envelopes, kept from the calls above, serve later preferences too
    for rc in data.draw(st.lists(ranks, max_size=3)):
        pc = pref(space, rc)
        assert to_b(pc) == pytest.approx(brute_graph_distance(space, pc, pb), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FOLD_SPACES)), st.data())
def test_graph_diameter_is_the_largest_pairwise_distance(name, data):
    # the fold over rank rows, and over chunks of 1, 2 and 3 graphs, against every pair measured by the loop oracle;
    # rows are a base row with a few points moved, so the items' own least radii spread over the distance values
    space = FOLD_SPACES[name]
    n = space.num_points
    base = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    moves = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3)), max_size=3)
    rows = [np.array(base) for _ in range(data.draw(st.integers(1, 12)))]
    for row in rows:
        for point, value in data.draw(moves):
            row[point] = value
    prefs = [pref(space, row) for row in rows]
    want = max((brute_graph_distance(space, a, b) for a, b in itertools.combinations(prefs, 2)), default=0.0)
    stack = np.stack([p.rank for p in prefs])
    value = _graph_diameter(space, stack)
    assert value == pytest.approx(want, abs=1e-12)
    for chunk in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preferences_module, "_GRAPH_CHUNK", chunk)
            assert _graph_diameter(space, stack, as_graphs=True) == value


def draw_radius_space(data):
    """A grid, a lottery simplex, a random point list, or points on a line a fraction of `_EPS` apart, whose
    distances hold chains of values closer than `_EPS` that may span more than it."""
    kind = data.draw(st.sampled_from(["grid", "simplex", "points", "eps_chain"]))
    if kind == "grid":
        dims = data.draw(st.integers(1, 2))
        return make_grid_euclidean(dims, data.draw(st.integers(2, 7 if dims == 1 else 4)), (0.0, 1.0))
    if kind == "simplex":
        return make_lottery_simplex(data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3)))
    if kind == "points":
        coords = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        return from_points(np.array(data.draw(st.lists(coords, min_size=2, max_size=8, unique=True))))
    cells = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=2, max_size=8, unique=True)
    return from_points(np.array([[whole + 0.45 * _EPS * part] for whole, part in data.draw(cells)]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_grouped_radii_give_every_search_the_same_value(data):
    # a copy of the space whose searches run over every distinct distance, float-rounding copies included:
    # every radius search returns the same value, bit for bit, and each dropped value has the balls of the kept
    # value below it
    space = draw_radius_space(data)
    whole = dataclasses.replace(space)
    vars(whole)["distance_values"] = np.unique(whole.distance_matrix)
    grouped, D = space.distance_values, space.distance_matrix
    kept = grouped[np.searchsorted(grouped, whole.distance_values, side="right") - 1]
    for value, first in zip(whole.distance_values, kept):
        assert np.array_equal(D <= value + _EPS, D <= first + _EPS)
    assert all((D <= a + _EPS).sum() < (D <= b + _EPS).sum() for a, b in zip(grouped, grouped[1:]))
    n = space.num_points
    rows = np.array([data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
                     for _ in range(data.draw(st.integers(2, 5)))])
    bits = st.lists(st.booleans(), min_size=n * n, max_size=n * n).filter(any)
    graphs = [np.reshape(data.draw(bits), (n, n)) for _ in range(2)]

    def searches(s):
        return (closed_convergence_distance(pref(s, rows[0]), pref(s, rows[1])),
                closed_convergence_distance(*(BinaryRelation(s, graph) for graph in graphs)),
                _graph_diameter(s, rows), _graph_diameter(s, rows, as_graphs=True))

    assert searches(space) == searches(whole)


def test_distance_of_preferences_builds_no_graph(grid3):
    pa = from_utility(grid3, grid3.points.sum(axis=1))
    pb = from_utility(grid3, grid3.points[:, 0])
    assert closed_convergence_distance(pa, pb) > 0
    assert "graph" not in vars(pa) and "graph" not in vars(pb)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.booleans(), min_size=25, max_size=25).filter(any),
       st.lists(st.booleans(), min_size=25, max_size=25).filter(any))
def test_distance_matches_loop_oracle_on_relations(bits_a, bits_b):
    space = plane5()
    ra = BinaryRelation(space, np.reshape(bits_a, (5, 5)))
    rb = BinaryRelation(space, np.reshape(bits_b, (5, 5)))
    assert closed_convergence_distance(ra, rb) == pytest.approx(brute_graph_distance(space, ra, rb), abs=1e-12)


class TestLiLsLimit:
    def test_matches_dilation_oracle(self):
        space = plane5()
        rng = np.random.default_rng(7)
        seq = [BinaryRelation(space, rng.random((5, 5)) < 0.3) for _ in range(5)]
        seq.append(pref(space, rng.integers(0, 3, size=5)).relation())
        schedule = sorted(rng.choice(space.distance_values, size=3, replace=False), reverse=True)
        starts = (0, 2, 4)
        li, ls = li_ls_limit(seq, schedule, tail_starts=starts)
        want_li = np.ones((5, 5), dtype=bool)
        want_ls = np.ones((5, 5), dtype=bool)
        for radius, start in zip(schedule, starts):
            met = [brute_dilation(space, rel.matrix, radius) for rel in seq[start:]]
            want_li &= np.logical_and.reduce(met)
            want_ls &= np.logical_or.reduce(met)
        assert np.array_equal(li.matrix, want_li)
        assert np.array_equal(ls.matrix, want_ls)

    def test_constant_sequence_converges_to_dilated_graph(self, line5):
        p = pref(line5, (0, 1, 2, 3, 4))
        li, ls = li_ls_limit([p] * 6, (0.5, 0.1), tail_starts=(0, 3))
        assert li == ls
        # the smallest radius thickens the graph by one 0.1 gap
        assert li.matrix[0, 1] and li.matrix[1, 0]
        assert not li.matrix[0, 3]

    def test_li_subset_of_ls(self, line5):
        rng = np.random.default_rng(3)
        prefs = [pref(line5, rng.integers(0, 5, size=5)) for _ in range(8)]
        li, ls = li_ls_limit(prefs, (1.0, 0.5, 0.2))
        assert not (li.matrix & ~ls.matrix).any()

    def test_radii_must_decrease(self, line5):
        p = total_indifference(line5)
        with pytest.raises(DomainError):
            li_ls_limit([p, p], (0.1, 0.5))

    @pytest.mark.parametrize("radius", [-0.1, float("nan"), float("inf"), "0.1", None])
    def test_radius_must_be_finite_and_at_least_0(self, line5, radius):
        # a NaN or negative radius would dilate nothing and leave both limits empty
        p = total_indifference(line5)
        with pytest.raises(DomainError, match="radius must be finite"):
            li_ls_limit([p, p], (1.0, radius))


class TestLocalStrictness:
    def test_matches_dilation_oracle(self):
        rng = np.random.default_rng(11)
        for space in ENVELOPE_SPACES.values():
            radii = space.distance_values
            # zero, one interior distance and the diameter, then random distances
            for radius in (radii[0], radii[len(radii) // 3], radii[-1], *rng.choice(radii, size=3)):
                p = pref(space, rng.integers(0, 3, size=space.num_points))
                ok, bad = is_locally_strict(p, float(radius))
                want = p.graph & ~brute_dilation(space, p.strict, radius)
                assert bad == [(int(i), int(j)) for i, j in np.argwhere(want)]
                assert ok == (not want.any())

    def test_strictly_ranked_neighbors_pass(self, chain6):
        p = from_utility(chain6, chain6.points[:, 0])
        ok, bad = is_locally_strict(p, radius=1.0)
        assert ok and bad == []

    def test_plateau_wider_than_radius_fails(self, chain6):
        p = pref(chain6, (0, 1, 1, 1, 2, 3))
        ok, bad = is_locally_strict(p, radius=1.0)
        assert not ok
        assert (2, 2) in bad

    def test_total_indifference_fails_everywhere(self, chain6):
        ok, bad = is_locally_strict(total_indifference(chain6), radius=5.0)
        assert not ok
        assert len(bad) == 36

    @pytest.mark.parametrize("radius", [-1.0, -1e-13, float("nan"), float("inf")])
    def test_negative_or_nonfinite_radius_rejected(self, chain6, radius):
        # an empty ball must not read as the whole space; radius 0 stays valid and fails on the diagonal
        p = from_utility(chain6, chain6.points[:, 0])
        with pytest.raises(DomainError):
            is_locally_strict(p, radius)
        ok, bad = is_locally_strict(p, 0.0)
        assert not ok and (0, 0) in bad


@pytest.mark.parametrize("call", [
    pytest.param(lambda s, g: BinaryRelation(s, np.ones((4, 4), dtype=bool)), id="relation_wrong_shape"),
    pytest.param(lambda s, g: from_utility(s, np.arange(4.0)), id="utility_wrong_length"),
    pytest.param(lambda s, g: from_utility(s, [0.0, 1.0, np.inf, 2.0, 3.0]), id="utility_not_finite"),
    pytest.param(lambda s, g: closed_convergence_distance(total_indifference(s).relation(),
                                                          total_indifference(g).relation()),
                 id="relation_distance_across_spaces"),
    pytest.param(lambda s, g: closed_convergence_distance(BinaryRelation(s, np.zeros((5, 5), dtype=bool)),
                                                          total_indifference(s)), id="distance_to_empty_relation"),
    pytest.param(lambda s, g: li_ls_limit([], (0.1,)), id="limit_of_no_terms"),
    pytest.param(lambda s, g: li_ls_limit([total_indifference(s), total_indifference(g)], (0.1,)),
                 id="limit_across_spaces"),
    pytest.param(lambda s, g: li_ls_limit([total_indifference(s)], ()), id="limit_empty_schedule"),
    pytest.param(lambda s, g: li_ls_limit([total_indifference(s)] * 2, (0.5, 0.1), (0,)), id="limit_starts_short"),
    pytest.param(lambda s, g: li_ls_limit([total_indifference(s)] * 2, (0.5, 0.1), (0, 2)), id="limit_start_past_end"),
    pytest.param(lambda s, g: li_ls_limit([total_indifference(s)] * 2, (0.5, 0.1), (-1, 0)), id="limit_start_negative"),
])
def test_refusals(line5, grid3, call):
    with pytest.raises(DomainError):
        call(line5, grid3)


class TestQuasitransitivity:
    def test_preference_is_quasitransitive(self, line5):
        assert is_quasitransitive(pref(line5, (0, 2, 1, 1, 0)))

    def test_intransitive_indifference_still_passes(self, line5):
        # a ~ b, b ~ c, a > c: strict part {(a, c)} is transitive
        m = np.ones((5, 5), dtype=bool)
        m[2, 0] = False
        assert is_quasitransitive(BinaryRelation(line5, m))

    def test_strict_cycle_fails(self, line5):
        m = np.ones((5, 5), dtype=bool)
        m[1, 0] = m[2, 1] = m[0, 2] = False  # 0 > 1 > 2 > 0
        assert not is_quasitransitive(BinaryRelation(line5, m))

    def test_incomplete_relation_rejected(self, line5):
        m = np.eye(5, dtype=bool)
        with pytest.raises(DomainError):
            is_quasitransitive(BinaryRelation(line5, m))


class TestMonotonicity:
    def test_matches_loop_oracle(self, grid3):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = pref(grid3, rng.integers(0, 5, size=9))
            weak_ok = all(
                p.rank[i] >= p.rank[j]
                for i in range(9) for j in range(9) if grid3.weak_order[i, j])
            strict_ok = weak_ok and all(
                p.rank[i] > p.rank[j]
                for i in range(9) for j in range(9) if grid3.strict_order[i, j])
            assert is_weakly_monotone(p) == weak_ok
            assert is_strictly_monotone(p) == strict_ok


class TestSerialization:
    def test_total_indifference_is_one_class(self, grid3):
        p = total_indifference(grid3)
        assert p.num_classes() == 1
        assert p.graph.all()
