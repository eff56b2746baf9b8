"""Discretized ordered metric spaces.

Every space is a finite list of coordinate vectors with order keys, from
which one rule derives its partial order and strict-dominance order, the
max-coordinate metric, and an optional totally ordered reference chain
used for certainty equivalents.
"""

from __future__ import annotations

import itertools
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError

__all__ = [
    "OrderedSpace",
    "DenseSubset",
    "make_grid_euclidean",
    "make_lottery_simplex",
    "make_dated_rewards",
    "make_aa_acts",
    "from_points",
    "dense_subset",
    "order_bracketing_radius",
    "same_space",
    "space_from_descriptor",
]

_POINT_BUDGET = 4096
_EPS = 1e-12  # closed balls: a point within radius + _EPS of the center is inside
_COVER_CELLS = 1 << 22  # (row, column) cells of one block of `_covers`' product: bounds its working memory


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _owned(a, dtype=None) -> np.ndarray:
    """A caller's input as a read-only array of its own: an array is copied unless it is read-only and owns its memory.

    Freezing a caller's writeable array would freeze theirs, and a read-only view would show their writes.
    """
    shared = isinstance(a, np.ndarray) and (a.flags.writeable or not a.flags.owndata)
    return _frozen(np.array(a, dtype=dtype) if shared else np.asarray(a, dtype=dtype))


@dataclass(frozen=True)
class OrderedSpace:
    """A finite set of alternatives with a partial order and a metric.

    Attributes:
        kind: one of euclidean_grid | lottery_simplex | dated_rewards |
            aa_acts | euclidean_points.
        points: (n, d) float array, one coordinate vector per alternative.
        order_keys: (n, m) array of the coordinates the order compares:
            point i >= point j iff order_keys[i] >= order_keys[j] in every
            coordinate. The points themselves on euclidean grids and point
            lists, (money, -time) on dated rewards, and integer cumulative
            prize counts, best prize first (per state on acts), on lotteries
            and acts.
        chain: ascending tuple of point indices forming the reference
            chain, empty when the space has none.
        step: scalar grid resolution, the tolerance unit for convergence
            statements about this space.
        descriptor: construction parameters, enough to rebuild the space.

    Construction checks the chain on its own points and builds no (n, n)
    matrix. Derived and cached on first read: `weak_order` and `strict_order`
    from the keys, their covering pairs `weak_covers` and `strict_covers`,
    and `distance_matrix` and `distance_values` from the points.
    """

    kind: str
    points: np.ndarray
    order_keys: np.ndarray
    chain: tuple[int, ...]
    step: float
    descriptor: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "order_keys", _frozen(np.asarray(self.order_keys)))
        chain = tuple(_int_field("a reference chain entry", i, minimum=0) for i in self.chain)
        object.__setattr__(self, "chain", chain)
        if not chain:
            return
        # at least two points in range, strictly increasing, bounding the whole space
        if len(chain) < 2 or max(chain) >= self.num_points:
            raise ConfigurationError(f"reference chain needs at least 2 point indices below {self.num_points}")
        if not self._order_block(list(chain[1:]), list(chain[:-1]), strict=True).all():
            raise ConfigurationError("reference chain is not strictly increasing")
        if not self._order_block(chain[-1], slice(None)).all() or not self._order_block(slice(None), chain[0]).all():
            raise ConfigurationError("reference chain does not bound the space")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.num_points

    def _order_block(self, rows, cols, strict: bool = False) -> np.ndarray:
        """bool, [...] true iff point rows[...] >= point cols[...] (strictly dominates it, with `strict`); the
        indices broadcast as numpy's do. Strict dominance is coordinatewise >> on the keys of euclidean grids and
        point lists, and elsewhere the strict part of the weak order: >= in every key and > in some."""
        above, below = self.order_keys[rows], self.order_keys[cols]
        if strict and self.kind in ("euclidean_grid", "euclidean_points"):
            return _coordinatewise(above, below, np.greater, np.logical_and)
        weak = _coordinatewise(above, below, np.greater_equal, np.logical_and)
        return weak & _coordinatewise(above, below, np.greater, np.logical_or) if strict else weak

    @cached_property
    def weak_order(self) -> np.ndarray:
        """(n, n) bool, entry [i, j] true iff point i >= point j: order_keys[i] >= order_keys[j] everywhere."""
        return _frozen(self._order_block(np.arange(self.num_points)[:, None], slice(None)))

    @cached_property
    def strict_order(self) -> np.ndarray:
        """(n, n) bool, entry [i, j] true iff point i strictly dominates point j (see `_order_block`)."""
        return _frozen(self._order_block(np.arange(self.num_points)[:, None], slice(None), strict=True))

    @cached_property
    def weak_covers(self) -> np.ndarray:
        """(n, n) bool, the covering pairs of `weak_order` off its diagonal: the transitive reduction.

        The covers of its strict part, i >= j but not j >= i with no point strictly between, and the ties
        i != j of equal keys, which only a hand-built space has. Their transitive closure is `weak_order`
        off its diagonal.
        """
        weak = self.weak_order
        ties = weak & weak.T
        np.fill_diagonal(ties, False)
        return _frozen(_covers(weak & ~weak.T) | ties)

    @cached_property
    def strict_covers(self) -> np.ndarray:
        """(n, n) bool, the covering pairs of `strict_order`: its transitive reduction."""
        return _frozen(_covers(self.strict_order))

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise max-coordinate distances, shape (n, n)."""
        return _frozen(_coordinatewise(self.points[:, None], self.points, _gap, np.maximum))

    @cached_property
    def distance_values(self) -> np.ndarray:
        """Sorted distinct radii of the distance matrix: one value per distinct set of closed balls.

        A ball of radius r holds the points within r + `_EPS`, so two values give the same balls exactly when the
        same values lie at or below each plus `_EPS`. Float-rounding copies of one distance do, and each such
        group keeps only its first value (28 values become 12 on a 12x12 grid). A least-radius search stops at a
        group's first value either way, so every radius it returns is unchanged.
        """
        values = np.unique(self.distance_matrix)
        admitted = np.searchsorted(values, values + _EPS, side="right")  # how many values each one's balls hold
        return _frozen(values[np.concatenate(([True], admitted[1:] != admitted[:-1]))])

    def index_of(self, vector: Sequence[float]) -> int:
        """Index of the first point within 1e-9 of `vector` in every coordinate; DomainError if there is none, or if
        `vector` is not one number per coordinate."""
        v = np.asarray(vector)
        if v.shape != self.points.shape[1:] or v.dtype.kind not in "iuf":
            raise DomainError(f"a point of this space has {self.points.shape[1]} coordinates, got {vector!r}")
        hits = np.nonzero(np.abs(self.points - v).max(axis=1) <= 1e-9)[0]
        if hits.size == 0:
            raise DomainError(f"no point within 1e-9 of {vector!r}")
        return int(hits[0])


@dataclass(frozen=True)
class DenseSubset:
    """Some of a space's points, `members`: DomainError unless they are distinct point indices, at least one, each a
    whole number (an integer or an integral float, never a bool or a string). `covering_radius`, the exact largest
    distance from a point to its nearest member, is derived on first read."""

    space: OrderedSpace
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(self.members)
        odd = [i for i in members if not _whole(i)]
        if odd:
            raise DomainError(f"member {odd[0]!r} is not a whole-number point index")
        members = tuple(int(i) for i in members)
        object.__setattr__(self, "members", members)
        if not members or min(members) < 0 or max(members) >= self.space.num_points:
            raise DomainError(f"a subset needs at least one member, each a point index below {self.space.num_points}")
        if len(set(members)) < len(members):
            raise DomainError(f"member {Counter(members).most_common(1)[0][0]} is repeated")

    @cached_property
    def covering_radius(self) -> float:
        points = self.space.points
        return float(_coordinatewise(points[:, None], points[list(self.members)], _gap, np.maximum).min(axis=1).max())


def _check_budget(kind: str, factors) -> None:
    """CapacityError unless the space fits the point budget; every builder calls this before it allocates.

    The point count is the product of the factors, each at least 1. The product stops at the first partial
    product past the budget, so a descriptor's numbers, however large, are never multiplied out.
    """
    count = 1
    for factor in factors:
        count *= factor
        if count > _POINT_BUDGET:
            raise CapacityError(f"a {kind} space exceeds the budget of {_POINT_BUDGET} points")


def _coordinatewise(a: np.ndarray, b: np.ndarray, compare, combine) -> np.ndarray:
    """combine.reduce(compare(a, b), axis=-1) for coordinates that broadcast, such as (n, 1, d) against (m, d), built
    one coordinate at a time: it holds two arrays of the broadcast shape, never the comparison with its last axis."""
    out = compare(a[..., 0], b[..., 0])
    for k in range(1, a.shape[-1]):
        combine(out, compare(a[..., k], b[..., k]), out=out)
    return out


def _covers(strict: np.ndarray) -> np.ndarray:
    """The covering pairs of a strict order S: the pairs of S with no point k between, S[i, k] and S[k, j].

    S @ S counts the points between each pair. As a float32 product the counts are exact, being at most
    n <= 4,096, far below 2**24. The rows go in blocks of about `_COVER_CELLS` cells.
    """
    n = len(strict)
    factor = strict.astype(np.float32)
    out = strict.copy()
    step = max(1, _COVER_CELLS // max(1, n))
    for start in range(0, n, step):
        out[start:start + step] &= factor[start:start + step] @ factor < 0.5
    return out


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    gap = a - b
    return np.abs(gap, out=gap)


def _product(*axes: np.ndarray) -> np.ndarray:
    """Rows of the Cartesian product of the axes, last axis fastest (itertools.product order)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _widths(bounds: np.ndarray, shape: tuple[int, int], message: str) -> np.ndarray:
    """hi - lo of each (lo, hi) row of `bounds`; ConfigurationError(message) unless bounds has `shape` and every width
    is finite and positive. An infinite bound, or finite ones too far apart, make a width that is not finite."""
    if bounds.shape != shape:
        raise ConfigurationError(message)
    with np.errstate(over="ignore", invalid="ignore"):
        width = bounds[:, 1] - bounds[:, 0]
    if not (np.isfinite(width) & (width > 0)).all():
        raise ConfigurationError(message)
    return width


def make_grid_euclidean(dims: int, resolution: int, bounds) -> OrderedSpace:
    """Regular lattice on a box, ordered coordinatewise.

    `bounds` is either one (lo, hi) pair applied to every dimension or a
    sequence of per-dimension pairs. The strict order is coordinatewise >>
    (strictly greater in every coordinate).
    """
    if dims < 1 or resolution < 2:
        raise ConfigurationError("need dims >= 1 and resolution >= 2")
    _check_budget("euclidean_grid", itertools.repeat(resolution, dims))
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim == 1:
        bounds = np.tile(bounds, (dims, 1))
    width = _widths(bounds, (dims, 2), "bounds must be finite nondegenerate intervals, one per dim")
    points = _product(*(np.linspace(lo, hi, resolution) for lo, hi in bounds))
    # equal-coordinates diagonal: level (l, ..., l) for each l
    ratio = (resolution**dims - 1) // (resolution - 1)
    chain = tuple(l * ratio for l in range(resolution))
    step = float(width.max() / (resolution - 1))
    desc = {"kind": "euclidean_grid", "dims": dims, "resolution": resolution, "bounds": bounds.tolist()}
    return OrderedSpace("euclidean_grid", points, points, chain, step, desc)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every vector of parts >= 2 nonnegative integers summing to total, one per row, largest first entry first.

    Stars and bars: a row is the gaps between parts - 1 bars placed among total + parts - 1 slots. The
    bar positions come in ascending lexicographic order, so reversed they give the rows in descending order.
    """
    slots = total + parts - 1
    bars = itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1))
    bars = np.fromiter(bars, dtype=np.int64).reshape(-1, parts - 1)[::-1]
    return np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots)), axis=1) - 1


def make_lottery_simplex(num_prizes: int, resolution: int) -> OrderedSpace:
    """Probability grid over a ranked prize set, ordered by stochastic dominance.

    Prize 0 is the best prize. Cumulative comparisons are done on integer
    counts, so the dominance relation is exact.
    """
    if num_prizes < 2:
        raise ConfigurationError("need num_prizes >= 2")
    if resolution < 1:
        raise ConfigurationError("need resolution >= 1")
    # comb(resolution + num_prizes - 1, num_prizes - 1) points, a product of factors above 1
    _check_budget("lottery_simplex", (Fraction(resolution + i, i) for i in range(1, num_prizes)))
    counts = _compositions(resolution, num_prizes)
    # chain: two-point mixtures of worst and best, worst-heavy first (compositions list the best-heavy first)
    chain = np.flatnonzero(counts[:, 0] + counts[:, -1] == resolution)[::-1]
    desc = {"kind": "lottery_simplex", "num_prizes": num_prizes, "resolution": resolution}
    return OrderedSpace("lottery_simplex", counts / resolution, counts.cumsum(axis=1), chain, 1.0 / resolution, desc)


def make_dated_rewards(money_resolution: int, time_resolution: int, bounds) -> OrderedSpace:
    """Grid of (money, time) pairs: more money weakly better, earlier weakly better.

    `bounds` = ((money_lo, money_hi), (time_lo, time_hi)). The chain walks
    money up at the latest date, then time down at the highest money.
    """
    if money_resolution < 2 or time_resolution < 2:
        raise ConfigurationError("need both resolutions >= 2")
    _check_budget("dated_rewards", (money_resolution, time_resolution))
    bounds = np.asarray(bounds, dtype=float)
    width = _widths(bounds, (2, 2), "bounds must be finite nondegenerate ((money_lo, money_hi), (time_lo, time_hi))")
    points = _product(np.linspace(*bounds[0], money_resolution), np.linspace(*bounds[1], time_resolution))
    chain = [mi * time_resolution + (time_resolution - 1) for mi in range(money_resolution)]
    chain += [(money_resolution - 1) * time_resolution + ti for ti in range(time_resolution - 2, -1, -1)]
    step = float(max(width[0] / (money_resolution - 1), width[1] / (time_resolution - 1)))
    desc = {
        "kind": "dated_rewards",
        "money_resolution": money_resolution,
        "time_resolution": time_resolution,
        "bounds": bounds.tolist(),
    }
    return OrderedSpace("dated_rewards", points, points * [1, -1], chain, step, desc)


def make_aa_acts(num_states: int, lottery: OrderedSpace) -> OrderedSpace:
    """State-contingent lotteries ordered by statewise stochastic dominance.

    Points are concatenations of one lottery per state.
    """
    if num_states < 1:
        raise ConfigurationError("need num_states >= 1")
    if lottery.kind != "lottery_simplex":
        raise ConfigurationError("underlying space must be a lottery_simplex")
    m = lottery.num_points
    _check_budget("aa_acts", itertools.repeat(m, num_states))
    combos = _product(*[np.arange(m)] * num_states)  # one lottery index per state
    points = lottery.points[combos].reshape(len(combos), -1)
    keys = lottery.order_keys[combos].reshape(len(combos), -1)
    chain = np.ravel_multi_index((np.array(lottery.chain),) * num_states, (m,) * num_states)
    desc = {
        "kind": "aa_acts",
        "num_states": num_states,
        "num_prizes": lottery.descriptor["num_prizes"],
        "resolution": lottery.descriptor["resolution"],
    }
    return OrderedSpace("aa_acts", points, keys, chain, lottery.step, desc)


def from_points(points, chain: Sequence[int] = ()) -> OrderedSpace:
    """Euclidean space over an explicit point list, ordered coordinatewise.

    For irregular alternatives sets (disconnected intervals, scattered
    points). `points` is a 1-D array (one coordinate per point) or a 2-D
    array of finite numbers, each two a finite distance apart; anything else
    raises ConfigurationError. `step` is the smallest positive pairwise distance.
    A points array is copied unless it is read-only and owns its memory, so the caller's own stays writeable.
    """
    points = _owned(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] == 0 or not np.isfinite(points).all():
        raise ConfigurationError("points must be finite numbers, or equal-length nonempty lists of them")
    if points.shape[0] < 2:
        raise ConfigurationError("need at least 2 points")
    _check_budget("euclidean_points", (points.shape[0],))
    with np.errstate(over="ignore"):
        distance = _coordinatewise(points[:, None], points, _gap, np.maximum)
    if not np.isfinite(distance).all():
        raise ConfigurationError("points must be near enough that every distance between them is finite")
    off_diagonal = distance[~np.eye(points.shape[0], dtype=bool)]
    if (off_diagonal == 0).any():
        raise ConfigurationError("points must be distinct")
    desc = {"kind": "euclidean_points", "points": points.tolist()}
    space = OrderedSpace("euclidean_points", points, points, chain, float(off_diagonal.min()), desc)
    if space.chain:
        desc["chain"] = list(space.chain)
    vars(space)["distance_matrix"] = _frozen(distance)  # the cached matrix, so no read builds it a second time
    return space


def dense_subset(space: OrderedSpace, members: Sequence[int] | None = None, stride: int = 1) -> DenseSubset:
    """Designate observed alternatives: the members given, else every stride-th point index.

    With no arguments the subset is the full point set (radius 0); a stride below 1 raises DomainError.
    """
    if stride < 1:
        raise DomainError(f"stride must be at least 1, got {stride}")
    return DenseSubset(space, range(0, space.num_points, stride) if members is None else members)


def same_space(a: OrderedSpace, b: OrderedSpace) -> bool:
    """Whether two spaces are one: the same object, or the same kind over the same points."""
    return a is b or (a.kind == b.kind and a.points.shape == b.points.shape and np.array_equal(a.points, b.points))


def order_bracketing_radius(space: OrderedSpace, B: DenseSubset) -> float:
    """Least radius at which B order-brackets every point of the space.

    B order-brackets x at radius r iff it has members b' <= x <= b'' within
    r of x. The radius is the maximum over x of the larger of the distances
    from x to its nearest member weakly below and to its nearest member
    weakly above; it is 0 for B = X and infinite when some x has no member
    of B on one side. B order-brackets every point at r iff the radius is
    at most r. Raises DomainError when B is a subset of another space.
    """
    if not same_space(space, B.space):
        raise DomainError("the subset belongs to another space")
    members, everything = np.array(B.members), np.arange(space.num_points)[:, None]
    distance = _coordinatewise(space.points[:, None], space.points[members], _gap, np.maximum)
    below = np.where(space._order_block(everything, members), distance, np.inf).min(axis=1)  # [x, b] : x >= b
    above = np.where(space._order_block(members, everything), distance, np.inf).min(axis=1)  # [x, b] : b >= x
    return float(np.maximum(below, above).max())


def _whole(value) -> bool:
    """Whether value is a whole number: an integer or an integral float, not a bool."""
    return not isinstance(value, bool) and (isinstance(value, numbers.Integral)
                                            or isinstance(value, float) and value.is_integer())


def _int_field(where: str, value, minimum: int | None = None) -> int:
    """A whole-number field of a descriptor or config, else ConfigurationError."""
    if not _whole(value):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{where} must be at least {minimum}, got {value!r}")
    return int(value)


def space_from_descriptor(desc: dict) -> OrderedSpace:
    """Rebuild a space from its descriptor, a dict such as `OrderedSpace.descriptor`.

    Anything but a dict, such as JSON text, raises ConfigurationError: a caller holding a file parses it.
    """
    if not isinstance(desc, dict):
        raise ConfigurationError("a space descriptor must be a JSON object")
    try:
        return _space_of_kind(desc)
    except KeyError as err:
        raise ConfigurationError(f"space descriptor of kind {desc.get('kind')!r} lacks field {err}") from None


# the fields each kind of descriptor takes besides "kind"; "chain" is optional
_DESCRIPTOR_FIELDS = {
    "euclidean_grid": ("dims", "resolution", "bounds"),
    "lottery_simplex": ("num_prizes", "resolution"),
    "dated_rewards": ("money_resolution", "time_resolution", "bounds"),
    "aa_acts": ("num_states", "num_prizes", "resolution"),
    "euclidean_points": ("points", "chain"),
}


def _space_of_kind(desc: dict) -> OrderedSpace:
    kind = desc.get("kind")
    fields = _DESCRIPTOR_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigurationError(f"unknown space kind: {kind!r}")
    unknown = sorted(set(desc) - {"kind", *fields})
    if unknown:
        raise ConfigurationError(f"space descriptor of kind {kind!r} takes no field {unknown[0]!r}")

    def whole(key: str) -> int:
        return _int_field(f"space field {key!r}", desc[key])

    def numeric(key: str) -> np.ndarray:
        try:
            return np.asarray(desc[key], dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError(f"space field {key!r} must be numbers, got {desc[key]!r}") from None

    if kind == "euclidean_grid":
        return make_grid_euclidean(whole("dims"), whole("resolution"), numeric("bounds"))
    if kind == "lottery_simplex":
        return make_lottery_simplex(whole("num_prizes"), whole("resolution"))
    if kind == "dated_rewards":
        return make_dated_rewards(whole("money_resolution"), whole("time_resolution"), numeric("bounds"))
    if kind == "aa_acts":
        lottery = make_lottery_simplex(whole("num_prizes"), whole("resolution"))
        return make_aa_acts(whole("num_states"), lottery)
    chain = desc.get("chain", [])
    if not isinstance(chain, list):
        raise ConfigurationError(f"space field 'chain' must be a list of point indices, got {chain!r}")
    return from_points(numeric("points"), chain)
