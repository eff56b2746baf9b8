import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prefid
from conftest import fosd_compare
from prefid import (
    OrderedSpace,
    dense_subset,
    from_points,
    make_aa_acts,
    make_dated_rewards,
    make_grid_euclidean,
    make_lottery_simplex,
    order_bracketing_radius,
    space_from_descriptor,
)
from prefid.errors import CapacityError, ConfigurationError, DomainError
from prefid.spaces import _EPS, _compositions


def naive_dominance(points):
    """Coordinatewise >= by explicit loops, the order oracle for grids."""
    n = len(points)
    weak = np.zeros((n, n), dtype=bool)
    strict = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            weak[i, j] = all(a >= b for a, b in zip(points[i], points[j]))
            strict[i, j] = all(a > b for a, b in zip(points[i], points[j]))
    return weak, strict


def broadcast_compare(coords):
    """Distance, >= and > matrices of coordinate rows through the (n, n, d) difference array."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.abs(diff).max(axis=2), (diff >= 0).all(axis=2), (diff > 0).all(axis=2)


def broadcast_orders(space):
    """Weak and strict order of a space by broadcasting the coordinates its order compares."""
    if space.kind in ("euclidean_grid", "euclidean_points"):
        return broadcast_compare(space.points)[1:]
    if space.kind == "dated_rewards":  # more money, earlier date
        weak = broadcast_compare(space.points * [1, -1])[1]
    else:  # lotteries and acts: cumulative prize counts, best prize first, per state
        counts = np.rint(space.points * space.descriptor["resolution"]).astype(int)
        cumulative = counts.reshape(space.num_points, -1, space.descriptor["num_prizes"]).cumsum(axis=2)
        weak = broadcast_compare(cumulative.reshape(space.num_points, -1))[1]
    return weak, weak & ~weak.T


def _intervals(count):
    """`count` nondegenerate (lo, hi) intervals with random ends."""
    interval = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 5.0)).map(lambda lw: (lw[0], lw[0] + lw[1]))
    return st.lists(interval, min_size=count, max_size=count)


def _draw_space(data, kind):
    """A space of the kind on drawn arguments, at most 216 points, and its points built by loops."""
    if kind == "euclidean_grid":
        dims = data.draw(st.integers(1, 3))
        res = data.draw(st.integers(2, {1: 12, 2: 10, 3: 6}[dims]))
        bounds = data.draw(_intervals(dims))
        axes = [np.linspace(lo, hi, res) for lo, hi in bounds]
        naive = [[axes[i][level] for i, level in enumerate(levels)]
                 for levels in itertools.product(range(res), repeat=dims)]
        return make_grid_euclidean(dims, res, bounds), naive
    if kind == "lottery_simplex":
        prizes, res = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 6))
        # count vectors summing to res, best-heavy first
        counts = [c for c in itertools.product(range(res, -1, -1), repeat=prizes) if sum(c) == res]
        return make_lottery_simplex(prizes, res), np.array(counts) / res
    if kind == "dated_rewards":
        money_res, time_res = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8))
        bounds = data.draw(_intervals(2))
        money, times = np.linspace(*bounds[0], money_res), np.linspace(*bounds[1], time_res)
        return make_dated_rewards(money_res, time_res, bounds), list(itertools.product(money, times))
    if kind == "aa_acts":
        lottery = make_lottery_simplex(data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3)))
        states = data.draw(st.integers(1, 3))
        assume(lottery.num_points**states <= 216)
        naive = [np.concatenate([lottery.points[i] for i in combo])
                 for combo in itertools.product(range(lottery.num_points), repeat=states)]
        return make_aa_acts(states, lottery), naive
    dims = data.draw(st.integers(1, 3))
    coordinates = st.tuples(*[st.integers(-4, 4).map(lambda v: v / 2)] * dims)
    points = data.draw(st.lists(coordinates, min_size=2, max_size=30, unique=True))
    return from_points(points), points


@pytest.mark.parametrize("kind", ["euclidean_grid", "euclidean_points", "dated_rewards", "lottery_simplex", "aa_acts"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrices_match_broadcast_oracle(kind, data):
    space, naive_points = _draw_space(data, kind)
    assert np.array_equal(space.points, np.array(naive_points, dtype=float))
    distance = broadcast_compare(space.points)[0]
    weak, strict = broadcast_orders(space)
    assert np.array_equal(space.distance_matrix, distance)
    assert np.array_equal(space.weak_order, weak)
    assert np.array_equal(space.strict_order, strict)
    if space.kind == "euclidean_points":
        assert space.step == distance[distance > 0].min()
    else:  # the reference chain: strictly increasing, from a point below every point to one above
        chain = space.chain
        assert len(chain) >= 2
        assert all(strict[hi, lo] for lo, hi in zip(chain, chain[1:]))
        assert weak[chain[-1], :].all() and weak[:, chain[0]].all()


def naive_covers(strict):
    """The pairs of a strict order with no point between them, through the (n, n, n) conjunction."""
    return strict & ~(strict[:, :, None] & strict[None, :, :]).any(axis=1)


def closure(arcs):
    """Transitive closure of a boolean adjacency matrix, by Warshall's loop."""
    reach = arcs.copy()
    for k in range(len(reach)):
        reach |= reach[:, k, None] & reach[None, k, :]
    return reach


@pytest.mark.parametrize("kind", ["euclidean_grid", "euclidean_points", "dated_rewards", "lottery_simplex", "aa_acts"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_covers_are_the_transitive_reduction(kind, data):
    space, _ = _draw_space(data, kind)
    off_diagonal = ~np.eye(space.num_points, dtype=bool)
    assert np.array_equal(space.weak_covers, naive_covers(space.weak_order & off_diagonal))
    assert np.array_equal(space.strict_covers, naive_covers(space.strict_order))
    assert np.array_equal(closure(space.weak_covers), space.weak_order & off_diagonal)
    assert np.array_equal(closure(space.strict_covers), space.strict_order)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_covers_of_tied_keys_add_the_ties(data):
    # only a hand-built space has tied keys; its strict order is >> or the strict part of the weak order by kind
    n = data.draw(st.integers(2, 9))
    keys = np.array(data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=n, max_size=n)))
    kind = data.draw(st.sampled_from(["euclidean_points", "dated_rewards"]))
    space = OrderedSpace(kind, np.arange(n, dtype=float)[:, None], keys, (), 1.0, {"kind": kind})
    weak, off_diagonal = space.weak_order, ~np.eye(n, dtype=bool)
    ties = weak & weak.T & off_diagonal
    assert np.array_equal(space.weak_covers, naive_covers(weak & ~weak.T) | ties)
    assert np.array_equal(closure(space.weak_covers) & off_diagonal, weak & off_diagonal)
    assert np.array_equal(space.strict_covers, naive_covers(space.strict_order))
    assert np.array_equal(closure(space.strict_covers), space.strict_order)


def test_covers_in_row_blocks_match_one_block(monkeypatch):
    whole = make_lottery_simplex(3, 8)
    monkeypatch.setattr(prefid.spaces, "_COVER_CELLS", 100)  # 45 points: blocks of 2 rows
    blocked = make_lottery_simplex(3, 8)
    assert np.array_equal(blocked.weak_covers, whole.weak_covers)
    assert np.array_equal(blocked.strict_covers, whole.strict_covers)


def test_act_space_matrices_stay_under_64_mb():
    # 1,296 acts with 12 coordinates: an (n, n, d) float array alone is 161 MB
    tracemalloc.start()
    try:
        space = space_from_descriptor({"kind": "aa_acts", "num_prizes": 3, "resolution": 2, "num_states": 4})
        space.distance_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.points.shape == (1296, 12)
    assert peak < 64e6


@pytest.mark.parametrize("desc", [
    {"kind": "euclidean_grid", "dims": 2, "resolution": 4, "bounds": [0.0, 1.0]},
    {"kind": "lottery_simplex", "num_prizes": 3, "resolution": 4},
    {"kind": "dated_rewards", "money_resolution": 4, "time_resolution": 4, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
    {"kind": "aa_acts", "num_prizes": 2, "resolution": 3, "num_states": 2},
    {"kind": "euclidean_points", "points": list(range(16))},
], ids=lambda desc: desc["kind"])
def test_point_budget_caps_every_builder(monkeypatch, desc):
    # 15 or 16 points each: a budget of 16 builds them, one of 14 refuses them all
    monkeypatch.setattr(prefid.spaces, "_POINT_BUDGET", 16)
    assert space_from_descriptor(desc).num_points in (15, 16)
    monkeypatch.setattr(prefid.spaces, "_POINT_BUDGET", 14)
    with pytest.raises(CapacityError):
        space_from_descriptor(desc)


@pytest.mark.parametrize("desc", [
    pytest.param({"kind": "lottery_simplex", "num_prizes": 10000, "resolution": 10000}, id="lottery_10000_prizes"),
    pytest.param({"kind": "lottery_simplex", "num_prizes": 1000001, "resolution": 1000000},
                 id="lottery_1000001_prizes"),
    pytest.param({"kind": "euclidean_grid", "dims": 20000, "resolution": 2, "bounds": [0.0, 1.0]}, id="grid_20000_dims"),
    pytest.param({"kind": "euclidean_grid", "dims": 1000000, "resolution": 2, "bounds": [0.0, 1.0]},
                 id="grid_1000000_dims"),
    pytest.param({"kind": "aa_acts", "num_prizes": 2, "resolution": 1, "num_states": 20000}, id="acts_20000_states"),
])
def test_oversized_descriptor_fails_at_once(desc):
    # the point count of such a descriptor has thousands of digits: it is neither computed nor printed
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="exceeds the budget of 4096 points"):
        space_from_descriptor(desc)
    assert time.perf_counter() - start < 1.0


def test_point_space_keeps_its_distance_matrix():
    # the 400 x 400 float matrix is 1.3 MB; from_points builds it once, for its own checks
    space = from_points(np.random.default_rng(5).random((400, 2)))
    tracemalloc.start()
    try:
        distance = space.distance_matrix
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < 1e6
    assert np.array_equal(distance, broadcast_compare(space.points)[0])


@pytest.mark.parametrize("shape", [(3,), (3, 1)], ids=["one_coordinate", "point_rows"])
def test_point_space_leaves_the_callers_points_writeable(shape):
    points = np.array([0.0, 1.0, 2.0]).reshape(shape)
    space = from_points(points)
    points[0] = 5.0
    assert space.points[:, 0].tolist() == [0.0, 1.0, 2.0] and not space.points.flags.writeable


class TestGrid:
    def test_row_major_points(self):
        g = make_grid_euclidean(2, 3, (0.0, 1.0))
        expected = [
            [0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
            [0.5, 0.0], [0.5, 0.5], [0.5, 1.0],
            [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
        ]
        assert g.num_points == 9
        assert np.allclose(g.points, expected)

    def test_order_matches_naive_dominance(self):
        g = make_grid_euclidean(2, 3, (0.0, 1.0))
        weak, strict = naive_dominance(g.points.tolist())
        assert np.array_equal(g.weak_order, weak)
        assert np.array_equal(g.strict_order, strict)

    def test_chain_is_the_main_diagonal(self):
        g = make_grid_euclidean(2, 3, (0.0, 1.0))
        assert g.chain == (0, 4, 8)
        g1 = make_grid_euclidean(1, 5, (0.0, 2.0))
        assert g1.chain == (0, 1, 2, 3, 4)

    def test_step_is_per_axis_spacing(self):
        assert make_grid_euclidean(2, 3, (0.0, 1.0)).step == pytest.approx(0.5)
        assert make_grid_euclidean(1, 11, (0.0, 1.0)).step == pytest.approx(0.1)

    def test_distance_matrix_is_max_metric(self):
        g = make_grid_euclidean(2, 3, (0.0, 1.0))
        i = g.index_of([0.0, 1.0])
        j = g.index_of([0.5, 0.0])
        assert g.distance_matrix[i, j] == pytest.approx(1.0)
        assert np.allclose(g.distance_matrix, g.distance_matrix.T)
        assert np.allclose(np.diag(g.distance_matrix), 0.0)

    @pytest.mark.parametrize("side, count", [(4, 6), (12, 28), (24, 63)])
    def test_one_radius_per_distance(self, side, count):
        # a grid of side k has k distances, 0 to 1 in steps of 1 / (k - 1); float rounding makes `count` distinct
        # values of them, and the radii keep the least of each distance's copies
        g = make_grid_euclidean(2, side, (0.0, 1.0))
        values = np.unique(g.distance_matrix)
        assert len(values) == count
        copies = [values[np.abs(values - step / (side - 1)) < 1e-12] for step in range(side)]
        assert g.distance_values.tolist() == [float(group.min()) for group in copies]

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid_euclidean(0, 3, (0.0, 1.0))
        with pytest.raises(ConfigurationError):
            make_grid_euclidean(2, 1, (0.0, 1.0))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_grid_euclidean(1, 3, (0.0, np.inf)), id="grid_infinite_bound"),
    pytest.param(lambda: make_grid_euclidean(1, 3, (-1e308, 1e308)), id="grid_width_overflows"),
    pytest.param(lambda: make_dated_rewards(2, 3, ((0.0, np.inf), (0.0, 1.0))), id="dated_infinite_bound"),
])
def test_non_finite_bounds_rejected(build):
    # refused for their bounds, before a linspace over them warns and the chain check blames the chain
    with pytest.raises(ConfigurationError, match="bounds must be finite"):
        build()


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: from_points([0.0, 1.0, 2.0], chain=[2, 1]), "not strictly increasing",
                 id="chain_not_increasing"),
    pytest.param(lambda: from_points([0.0, 1.0, 2.0], chain=[0, 1]), "does not bound", id="chain_not_bounding"),
    pytest.param(lambda: from_points([-1e308, 1e308]), "every distance between them is finite",
                 id="points_distance_not_finite"),
    pytest.param(lambda: make_lottery_simplex(3, 0), "resolution >= 1", id="lottery_resolution_0"),
    pytest.param(lambda: make_dated_rewards(2, 3, (0.0, 1.0)), "bounds must be", id="dated_bounds_wrong_shape"),
    pytest.param(lambda: make_aa_acts(0, make_lottery_simplex(2, 2)), "num_states >= 1", id="acts_without_states"),
    pytest.param(lambda: make_aa_acts(2, make_grid_euclidean(1, 3, (0.0, 1.0))), "lottery_simplex",
                 id="acts_over_a_grid"),
])
def test_builder_refusals(build, message):
    with pytest.raises(ConfigurationError, match=message):
        build()


class TestLotterySimplex:
    def test_point_count_and_step(self):
        # compositions of `resolution` into 3 parts
        sp = make_lottery_simplex(3, 4)
        assert sp.num_points == 15
        assert sp.step == pytest.approx(0.25)

    def test_order_matches_fosd_oracle(self):
        sp = make_lottery_simplex(3, 3)
        for i in range(sp.num_points):
            for j in range(sp.num_points):
                verdict = fosd_compare(sp.points[i], sp.points[j])
                assert sp.weak_order[i, j] == (verdict in ("greater", "equal"))

    def test_chain_endpoints_are_degenerate_lotteries(self):
        sp = make_lottery_simplex(3, 4)
        worst = sp.points[sp.chain[0]]
        best = sp.points[sp.chain[-1]]
        assert np.allclose(worst, [0.0, 0.0, 1.0])
        assert np.allclose(best, [1.0, 0.0, 0.0])

    def test_compositions_match_recursive_generator(self):
        def recursive(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(total, -1, -1):
                for rest in recursive(total - head, parts - 1):
                    yield (head,) + rest

        for total in range(8):
            for parts in range(2, 6):
                assert _compositions(total, parts).tolist() == [list(row) for row in recursive(total, parts)]


class TestFosdCompare:
    def test_frozen_verdicts(self):
        assert fosd_compare([1.0, 0.0], [0.5, 0.5]) == "greater"
        assert fosd_compare([0.0, 1.0], [0.5, 0.5]) == "less"
        assert fosd_compare([0.5, 0.5], [0.5, 0.5]) == "equal"
        # middle prize mass moves both ways
        assert fosd_compare([0.4, 0.0, 0.6], [0.3, 0.4, 0.3]) == "incomparable"

    def test_rejects_non_probability(self):
        with pytest.raises(DomainError):
            fosd_compare([0.7, 0.7], [0.5, 0.5])
        with pytest.raises(DomainError):
            fosd_compare([-0.1, 1.1], [0.5, 0.5])


class TestDatedRewards:
    def test_more_money_sooner_dominates(self):
        sp = make_dated_rewards(3, 3, ((0.0, 1.0), (0.0, 1.0)))
        assert sp.num_points == 9
        hi = sp.index_of([1.0, 0.0])   # full reward now
        lo = sp.index_of([0.0, 1.0])   # nothing, later
        assert sp.weak_order[hi, lo]
        assert not sp.weak_order[lo, hi]

    def test_money_and_delay_trade_off_is_incomparable(self):
        sp = make_dated_rewards(3, 3, ((0.0, 1.0), (0.0, 1.0)))
        a = sp.index_of([1.0, 1.0])    # more money, later
        b = sp.index_of([0.5, 0.0])    # less money, sooner
        assert not sp.weak_order[a, b]
        assert not sp.weak_order[b, a]


class TestAaActs:
    def test_statewise_fosd_order(self):
        lot = make_lottery_simplex(2, 2)
        sp = make_aa_acts(2, lot)
        assert sp.num_points == lot.num_points ** 2
        # an act dominates iff it dominates in every state
        best = sp.index_of([1.0, 0.0, 1.0, 0.0])
        worst = sp.index_of([0.0, 1.0, 0.0, 1.0])
        mixed = sp.index_of([1.0, 0.0, 0.0, 1.0])
        swapped = sp.index_of([0.0, 1.0, 1.0, 0.0])
        assert sp.weak_order[best, worst]
        assert sp.weak_order[best, mixed]
        assert sp.weak_order[mixed, worst]
        # opposite states cannot be ranked
        assert not sp.weak_order[mixed, swapped]
        assert not sp.weak_order[swapped, mixed]


class TestFromPoints:
    def test_step_is_min_pairwise_gap(self, line5):
        assert line5.step == pytest.approx(0.1)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ConfigurationError):
            from_points(np.array([[0.0], [0.0], [1.0]]))


class TestDescriptors:
    @pytest.mark.parametrize("make", [
        lambda: make_grid_euclidean(2, 3, (0.0, 1.0)),
        lambda: make_lottery_simplex(3, 4),
        lambda: make_dated_rewards(3, 2, ((0.0, 1.0), (0.0, 1.0))),
        lambda: make_aa_acts(2, make_lottery_simplex(2, 3)),
        lambda: from_points(np.array([[0.0], [0.25], [1.0]])),
        lambda: from_points(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5], [1.0, 1.0]]), chain=(0, 3)),
    ])
    def test_round_trip(self, make):
        sp = make()
        back = space_from_descriptor(sp.descriptor)
        assert back.kind == sp.kind
        assert np.allclose(back.points, sp.points)
        assert np.array_equal(back.weak_order, sp.weak_order)
        assert back.chain == sp.chain

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            space_from_descriptor({"kind": "mystery"})

    def test_json_text_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            space_from_descriptor('{"kind": "lottery_simplex", "num_prizes": 3, "resolution": 4}')


class TestDenseSubset:
    def test_stride_and_members(self, chain6):
        B = dense_subset(chain6, stride=2)
        assert B.members == (0, 2, 4)
        B2 = dense_subset(chain6, members=[1, 3])
        assert B2.members == (1, 3)

    def test_covering_radius_is_exact(self, chain6):
        # farthest point from {0, 2, 4} is 5, at distance 1
        B = dense_subset(chain6, stride=2)
        assert B.covering_radius == pytest.approx(1.0)
        full = dense_subset(chain6, stride=1)
        assert full.covering_radius == pytest.approx(0.0)

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_rejected(self, chain6, stride):
        with pytest.raises(DomainError, match=f"stride must be at least 1, got {stride}"):
            dense_subset(chain6, stride=stride)

    def test_repeated_member_rejected(self, chain6):
        with pytest.raises(DomainError, match="member 3 is repeated"):
            dense_subset(chain6, members=[1, 3, 0, 3])

    @pytest.mark.parametrize("members, odd", [([1.5, 2], "1.5"), ([True, 3], "True"), (["2", 3], "'2'")],
                             ids=["fraction", "bool", "string"])
    def test_member_not_a_whole_number_rejected(self, line5, members, odd):
        # int() would read these as the points (1, 2), (1, 3) and (2, 3)
        with pytest.raises(DomainError, match=f"member {odd} is not a whole-number point index"):
            dense_subset(line5, members=members)

    def test_whole_float_and_numpy_members_kept(self, line5):
        assert dense_subset(line5, members=[2.0, np.int64(4), np.float64(0.0)]).members == (2, 4, 0)


def test_building_a_space_and_subset_builds_no_square_matrix():
    # the chain is checked on the chain's own points and the covering radius is read late, so no
    # (n, n) order or distance matrix exists until a reader asks for it
    lottery = make_lottery_simplex(3, 4)
    spaces = [
        make_grid_euclidean(2, 5, (0.0, 1.0)),
        lottery,
        make_dated_rewards(4, 3, ((0.0, 1.0), (0.0, 2.0))),
        make_aa_acts(2, lottery),
        from_points(np.arange(5.0), chain=[0, 2, 4]),
    ]
    for space in spaces:
        assert space.chain
        B = dense_subset(space)
        # from_points builds its distance matrix for its own distinctness check, and keeps it
        matrices = {"weak_order", "strict_order"} | ({"distance_matrix"} if space.kind != "euclidean_points" else set())
        assert not matrices & set(vars(space)), space.kind
        assert "covering_radius" not in vars(B)
        assert B.covering_radius == 0.0


class TestCountableOrderProperty:
    def test_full_subset_brackets_at_one_step(self, grid3):
        assert order_bracketing_radius(grid3, dense_subset(grid3, stride=1)) <= grid3.step

    def test_sparse_subset_fails_close_radius(self, chain6):
        # the nearest member above 1 is 5, and the nearest below 4 is 0: both 4 away
        B = dense_subset(chain6, members=[0, 5])
        assert order_bracketing_radius(chain6, B) == 4.0

    def test_full_subset_gives_zero(self, grid3):
        # every point brackets itself
        assert order_bracketing_radius(grid3, dense_subset(grid3, stride=1)) == 0.0

    def test_subset_of_another_space_rejected(self, grid3, chain6):
        # the grid's index 8 lies past the chain's end, and the chain's members index the wrong grid points
        with pytest.raises(DomainError):
            order_bracketing_radius(chain6, dense_subset(grid3, members=[0, 8]))
        with pytest.raises(DomainError):
            order_bracketing_radius(grid3, dense_subset(chain6, members=[0, 5]))


def naive_brackets(space, members, radius) -> bool:
    """Whether every x has members b' <= x <= b'' within `radius`, by loops."""
    D, weak = space.distance_matrix, space.weak_order
    for x in range(space.num_points):
        near = [b for b in members if D[x, b] <= radius + _EPS]
        if not any(weak[x, b] for b in near) or not any(weak[b, x] for b in near):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bracketing_radius_agrees_with_naive_verdict(data):
    space = data.draw(st.one_of(
        st.builds(make_grid_euclidean, st.integers(1, 2), st.integers(2, 5), st.just((0.0, 1.0))),
        st.builds(make_lottery_simplex, st.integers(2, 3), st.integers(1, 4)),
    ))
    members = data.draw(st.lists(st.integers(0, space.num_points - 1), min_size=1, unique=True))
    radius = order_bracketing_radius(space, dense_subset(space, members=members))
    for r in space.distance_values:
        assert (radius <= r + _EPS) == naive_brackets(space, members, r)


class TestIndexOf:
    def test_tolerant_hit_and_miss(self, grid3):
        assert grid3.index_of([0.5 + 1e-12, 0.5]) == 4
        with pytest.raises(DomainError):
            grid3.index_of([0.3, 0.3])

    @pytest.mark.parametrize("vector", [
        pytest.param([0.5], id="one_number"),
        pytest.param([0.5, 0.5, 0.5], id="three_numbers"),
        pytest.param("ab", id="text"),
        pytest.param(["a", "b"], id="list_of_text"),
    ])
    def test_vector_not_one_number_per_coordinate_rejected(self, grid3, vector):
        # [0.5] would broadcast to (0.5, 0.5), point 4
        with pytest.raises(DomainError, match="has 2 coordinates"):
            grid3.index_of(vector)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4))
def test_grid_order_antisymmetric_on_distinct_points(dims, res):
    g = make_grid_euclidean(dims, res, (0.0, 1.0))
    both = g.weak_order & g.weak_order.T
    assert np.array_equal(both, np.eye(g.num_points, dtype=bool))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5))
def test_strict_order_inside_weak(res):
    g = make_grid_euclidean(2, res, (0.0, 1.0))
    assert not (g.strict_order & ~g.weak_order).any()
    assert not np.diag(g.strict_order).any()
