"""Discretized ordered metric spaces.

Every space is a finite list of coordinate vectors with a partial order,
a configured strict-dominance order, the max-coordinate metric, and an
optional totally ordered reference chain used for certainty equivalents.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
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
    "check_countable_order_property",
    "space_from_descriptor",
]

_POINT_BUDGET = 4096
_EPS = 1e-12  # closed balls: a point within radius + _EPS of the center is inside


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OrderedSpace:
    """A finite set of alternatives with a partial order and a metric.

    Attributes:
        kind: one of euclidean_grid | lottery_simplex | dated_rewards |
            aa_acts | euclidean_points.
        points: (n, d) float array, one coordinate vector per alternative.
        weak_order: (n, n) bool, entry [i, j] true iff point i >= point j
            in the space's partial order.
        strict_order: (n, n) bool, the configured strict-dominance order
            (coordinatewise >> on euclidean grids, the strict part of the
            partial order elsewhere).
        chain: ascending tuple of point indices forming the reference
            chain, empty when the space has none.
        step: scalar grid resolution, the tolerance unit for convergence
            statements about this space.
        descriptor: construction parameters, enough to rebuild the space.
    """

    kind: str
    points: np.ndarray
    weak_order: np.ndarray
    strict_order: np.ndarray
    chain: tuple[int, ...]
    step: float
    descriptor: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "weak_order", _frozen(np.asarray(self.weak_order, dtype=bool)))
        object.__setattr__(self, "strict_order", _frozen(np.asarray(self.strict_order, dtype=bool)))

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.num_points

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise max-coordinate distances, shape (n, n)."""
        return _frozen(_coordinatewise(self.points, _gap, np.maximum))

    @cached_property
    def distance_values(self) -> np.ndarray:
        """Sorted distinct values of the distance matrix."""
        return _frozen(np.unique(self.distance_matrix))

    def index_of(self, vector: Sequence[float], tol: float = 1e-9) -> int:
        """Index of the point matching `vector` within `tol`, else DomainError."""
        v = np.asarray(vector, dtype=float)
        hits = np.nonzero(np.abs(self.points - v).max(axis=1) <= tol)[0]
        if hits.size == 0:
            raise DomainError(f"no point within {tol} of {vector!r}")
        return int(hits[0])


@dataclass(frozen=True)
class DenseSubset:
    """A subset of a space's points together with its exact covering radius."""

    space: OrderedSpace
    members: tuple[int, ...]
    covering_radius: float


def _validate_chain(points: np.ndarray, weak: np.ndarray, strict: np.ndarray, chain: Sequence[int]) -> None:
    # ascending, strictly ordered, and bounding the whole space
    chain = list(chain)
    if len(chain) < 2:
        raise ConfigurationError("reference chain needs at least 2 elements")
    for lo, hi in zip(chain, chain[1:]):
        if not strict[hi, lo]:
            raise ConfigurationError("reference chain is not strictly increasing")
    top, bottom = chain[-1], chain[0]
    if not weak[top, :].all() or not weak[:, bottom].all():
        raise ConfigurationError("reference chain does not bound the space")


def _check_budget(kind: str, num_points: int) -> None:
    """CapacityError unless the space fits the point budget; every builder
    calls this before its first (n, n) allocation."""
    if num_points > _POINT_BUDGET:
        raise CapacityError(f"a {kind} space of {num_points} points exceeds the budget of {_POINT_BUDGET}")


def _coordinatewise(coords: np.ndarray, compare, combine) -> np.ndarray:
    """combine.reduce(compare(coords[:, None, :], coords[None, :, :]), axis=2), built one
    coordinate at a time: it holds two (n, n) arrays, never the (n, n, d) comparison."""
    out = compare(coords[:, 0, None], coords[None, :, 0])
    for column in coords.T[1:]:
        combine(out, compare(column[:, None], column[None, :]), out=out)
    return out


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    gap = a - b
    return np.abs(gap, out=gap)


def make_grid_euclidean(dims: int, resolution: int, bounds) -> OrderedSpace:
    """Regular lattice on a box, ordered coordinatewise.

    `bounds` is either one (lo, hi) pair applied to every dimension or a
    sequence of per-dimension pairs. The strict order is coordinatewise >>
    (strictly greater in every coordinate).
    """
    if dims < 1 or resolution < 2:
        raise ConfigurationError("need dims >= 1 and resolution >= 2")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim == 1:
        bounds = np.tile(bounds, (dims, 1))
    if bounds.shape != (dims, 2) or not (bounds[:, 1] > bounds[:, 0]).all():
        raise ConfigurationError("bounds must be nondegenerate intervals, one per dim")
    _check_budget("euclidean_grid", resolution**dims)
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], resolution) for i in range(dims)]
    levels = list(itertools.product(range(resolution), repeat=dims))
    points = np.array([[axes[i][lv[i]] for i in range(dims)] for lv in levels])
    weak = _coordinatewise(points, np.greater_equal, np.logical_and)
    strict = _coordinatewise(points, np.greater, np.logical_and)
    # equal-coordinates diagonal: level (l, ..., l) for each l
    ratio = (resolution**dims - 1) // (resolution - 1)
    chain = tuple(l * ratio for l in range(resolution))
    step = float((bounds[:, 1] - bounds[:, 0]).max() / (resolution - 1))
    desc = {"kind": "euclidean_grid", "dims": dims, "resolution": resolution, "bounds": bounds.tolist()}
    _validate_chain(points, weak, strict, chain)
    return OrderedSpace("euclidean_grid", points, weak, strict, chain, step, desc)


def _compositions(total: int, parts: int):
    # all nonnegative integer vectors of given length summing to total
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def make_lottery_simplex(num_prizes: int, resolution: int) -> OrderedSpace:
    """Probability grid over a ranked prize set, ordered by stochastic dominance.

    Prize 0 is the best prize. Cumulative comparisons are done on integer
    counts, so the dominance relation is exact.
    """
    if num_prizes < 2:
        raise ConfigurationError("need num_prizes >= 2")
    if resolution < 1:
        raise ConfigurationError("need resolution >= 1")
    _check_budget("lottery_simplex", math.comb(resolution + num_prizes - 1, num_prizes - 1))
    counts = np.array(list(_compositions(resolution, num_prizes)), dtype=int)
    points = counts / resolution
    weak = _coordinatewise(np.cumsum(counts, axis=1), np.greater_equal, np.logical_and)  # cumulative from the best
    strict = weak & ~_coordinatewise(counts, np.equal, np.logical_and)
    # chain: two-point mixtures of worst and best, worst-heavy first
    chain = []
    for m in range(resolution + 1):
        target = np.zeros(num_prizes, dtype=int)
        target[0] = m
        target[-1] = resolution - m
        chain.append(int(np.nonzero((counts == target).all(axis=1))[0][0]))
    desc = {"kind": "lottery_simplex", "num_prizes": num_prizes, "resolution": resolution}
    space = OrderedSpace("lottery_simplex", points, weak, strict, tuple(chain), 1.0 / resolution, desc)
    _validate_chain(points, weak, strict, chain)
    return space


def make_dated_rewards(money_resolution: int, time_resolution: int, bounds) -> OrderedSpace:
    """Grid of (money, time) pairs: more money weakly better, earlier weakly better.

    `bounds` = ((money_lo, money_hi), (time_lo, time_hi)). The chain walks
    money up at the latest date, then time down at the highest money.
    """
    if money_resolution < 2 or time_resolution < 2:
        raise ConfigurationError("need both resolutions >= 2")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (2, 2) or not (bounds[:, 1] > bounds[:, 0]).all():
        raise ConfigurationError("bounds must be ((money_lo, money_hi), (time_lo, time_hi))")
    _check_budget("dated_rewards", money_resolution * time_resolution)
    money = np.linspace(bounds[0, 0], bounds[0, 1], money_resolution)
    times = np.linspace(bounds[1, 0], bounds[1, 1], time_resolution)
    points = np.array([(m, t) for m in money for t in times])
    weak = _coordinatewise(np.column_stack([points[:, 0], -points[:, 1]]), np.greater_equal, np.logical_and)
    strict = weak & ~weak.T
    chain = [mi * time_resolution + (time_resolution - 1) for mi in range(money_resolution)]
    chain += [(money_resolution - 1) * time_resolution + ti for ti in range(time_resolution - 2, -1, -1)]
    step = float(max((bounds[0, 1] - bounds[0, 0]) / (money_resolution - 1),
                     (bounds[1, 1] - bounds[1, 0]) / (time_resolution - 1)))
    desc = {
        "kind": "dated_rewards",
        "money_resolution": money_resolution,
        "time_resolution": time_resolution,
        "bounds": bounds.tolist(),
    }
    _validate_chain(points, weak, strict, chain)
    return OrderedSpace("dated_rewards", points, weak, strict, tuple(chain), step, desc)


def make_aa_acts(num_states: int, lottery: OrderedSpace) -> OrderedSpace:
    """State-contingent lotteries ordered by statewise stochastic dominance.

    Points are concatenations of one lottery per state.
    """
    if num_states < 1:
        raise ConfigurationError("need num_states >= 1")
    if lottery.kind != "lottery_simplex":
        raise ConfigurationError("underlying space must be a lottery_simplex")
    m = lottery.num_points
    _check_budget("aa_acts", m**num_states)
    combos = list(itertools.product(range(m), repeat=num_states))
    points = np.array([np.concatenate([lottery.points[i] for i in combo]) for combo in combos])
    lw = lottery.weak_order
    weak = np.ones((len(combos), len(combos)), dtype=bool)
    for s in range(num_states):
        idx = np.array([c[s] for c in combos])
        weak &= lw[np.ix_(idx, idx)]
    strict = weak & ~weak.T
    index_of = {c: i for i, c in enumerate(combos)}
    chain = tuple(index_of[(ci,) * num_states] for ci in lottery.chain)
    desc = {
        "kind": "aa_acts",
        "num_states": num_states,
        "num_prizes": lottery.descriptor["num_prizes"],
        "resolution": lottery.descriptor["resolution"],
    }
    _validate_chain(points, weak, strict, chain)
    return OrderedSpace("aa_acts", points, weak, strict, chain, lottery.step, desc)


def from_points(points, chain: Sequence[int] = ()) -> OrderedSpace:
    """Euclidean space over an explicit point list, ordered coordinatewise.

    For irregular alternatives sets (disconnected intervals, scattered
    points). `points` is a 1-D array (one coordinate per point) or a 2-D
    array of finite numbers; anything else raises ConfigurationError.
    `step` is the smallest positive pairwise distance.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] == 0 or not np.isfinite(points).all():
        raise ConfigurationError("points must be finite numbers, or equal-length nonempty lists of them")
    if points.shape[0] < 2:
        raise ConfigurationError("need at least 2 points")
    _check_budget("euclidean_points", points.shape[0])
    weak = _coordinatewise(points, np.greater_equal, np.logical_and)
    strict = _coordinatewise(points, np.greater, np.logical_and)
    distance = _coordinatewise(points, _gap, np.maximum)
    off_diagonal = distance[~np.eye(points.shape[0], dtype=bool)]
    if (off_diagonal == 0).any():
        raise ConfigurationError("points must be distinct")
    desc = {"kind": "euclidean_points", "points": points.tolist()}
    if chain:
        _validate_chain(points, weak, strict, chain)
    space = OrderedSpace("euclidean_points", points, weak, strict, tuple(chain), float(off_diagonal.min()), desc)
    vars(space)["distance_matrix"] = _frozen(distance)  # the cached matrix, so no read builds it a second time
    return space


def dense_subset(space: OrderedSpace, members: Sequence[int] | None = None, stride: int = 1) -> DenseSubset:
    """Designate observed alternatives; covering radius is computed exactly.

    With no arguments the subset is the full point set (radius 0). A stride
    keeps every stride-th point index.
    """
    if members is None:
        members = range(0, space.num_points, stride)
    members = tuple(int(i) for i in members)
    if not members:
        raise DomainError("empty subset")
    if any(i < 0 or i >= space.num_points for i in members):
        raise DomainError("member index out of range")
    radius = float(space.distance_matrix[:, members].min(axis=1).max())
    return DenseSubset(space, members, radius)


def check_countable_order_property(space: OrderedSpace, B: DenseSubset, radius: float):
    """Test whether B order-brackets every point at the given radius.

    True iff every x has members b', b'' of B within `radius` with
    b' <= x <= b''. Returns (ok, violating point indices).
    """
    if radius <= 0:
        raise DomainError("radius must be positive")
    members = list(B.members)
    near = space.distance_matrix[:, members] <= radius + _EPS
    below = space.weak_order[:, members]      # [x, b] : x >= b
    above = space.weak_order[members, :].T    # [x, b] : b >= x
    ok = (near & below).any(axis=1) & (near & above).any(axis=1)
    witnesses = [int(i) for i in np.nonzero(~ok)[0]]
    return len(witnesses) == 0, witnesses


def _int_field(where: str, value, minimum: int | None = None) -> int:
    """A whole-number field of a descriptor or config, else ConfigurationError."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{where} must be at least {minimum}, got {value!r}")
    return int(value)


def space_from_descriptor(desc: dict | str) -> OrderedSpace:
    """Rebuild a space from its descriptor (dict or JSON text)."""
    if isinstance(desc, str):
        desc = json.loads(desc)
    if not isinstance(desc, dict):
        raise ConfigurationError("a space descriptor must be a JSON object")
    try:
        return _space_of_kind(desc)
    except KeyError as err:
        raise ConfigurationError(f"space descriptor of kind {desc.get('kind')!r} lacks field {err}") from None


def _space_of_kind(desc: dict) -> OrderedSpace:
    kind = desc.get("kind")

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
    if kind == "euclidean_points":
        return from_points(numeric("points"))
    raise ConfigurationError(f"unknown space kind: {kind!r}")
