"""From finite choice data to preferences.

Builds revealed relations, decides rationalizability, extends consistent
data to full preferences under selectable policies, fits parametric
utility classes by linear programming, and estimates the diameter of the
set of rationalizations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CapacityError, ConfigurationError, DomainError, PreconditionError, ResolutionError
from .experiments import STRONG, WEAK, ChoiceSequence, ExperimentSequence
from .preferences import Preference, _distance_to, _graph_diameter, from_utility
from .spaces import OrderedSpace, _frozen, same_space

__all__ = [
    "RevealedEdge",
    "RevealedRelation",
    "RationalizationPolicy",
    "ConsistencyResult",
    "revealed_relation",
    "check_consistency",
    "extend_preference",
    "adversarial_far_extension",
    "sample_extension",
    "indifference_construction",
    "eu_rationalize",
    "eu_preference",
    "lipschitz_rationalize",
    "diameter_estimate",
    "DiameterResult",
    "EuResult",
    "LipschitzResult",
    "rationalizes",
    "all_total_preorders",
    "brute_force_rationalizations",
    "result_to_json",
]

DATA = "data"
MONOTONICITY = "monotonicity"

_MARGIN_FLOOR = 1e-9
_ZERO_TOL = 1e-12
# one arc read by a sparse witness search level takes as long as this many multiply-adds of a dense float32
# level (2,000 to 4,500 on a 2-CPU x86 host); with at most 4,096 points, a sparse level reads no more arcs
# than its table has cells
_DENSE_SPEEDUP = 4096


@dataclass(frozen=True)
class RevealedEdge:
    """One directed revealed comparison: x weakly (or strictly) above y."""

    x: int
    y: int
    strict: bool
    source: str  # data | monotonicity
    pair_index: int | None = None  # 1-based position of the generating pair


@dataclass(frozen=True, eq=False)
class RevealedRelation:
    """Weak and strict revealed edges over a space, with per-edge provenance.

    Edge i lives in parallel arrays: point x[i] is revealed weakly above
    point y[i], strictly when strict[i], and pair_index[i] is the 1-based
    position of the pair that first revealed it, or 0 for a monotonicity
    edge. The data edges are unique by (x, y, strict), in the order the
    pairs reveal them; the monotonicity edges follow. `edges` is a view
    derived from the arrays.

    `monotone` names the order the monotonicity edges stand for (none |
    weak | strict). They are its covering pairs only, which have the whole
    order's transitive closure: the components, the verdict and the ranks
    read the edges alone. `whole_cells` adds back every pair of the order
    for the readers that see more than the closure.
    """

    space: OrderedSpace
    x: np.ndarray
    y: np.ndarray
    strict: np.ndarray
    pair_index: np.ndarray
    monotone: str = "none"

    def __post_init__(self):
        for name in ("x", "y", "strict", "pair_index"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @cached_property
    def edges(self) -> tuple[RevealedEdge, ...]:
        columns = (a.tolist() for a in (self.x, self.y, self.strict, self.pair_index))
        return tuple(RevealedEdge(x, y, strict, DATA if k else MONOTONICITY, k or None)
                     for x, y, strict, k in zip(*columns))

    @cached_property
    def arc_matrix(self) -> np.ndarray:
        """All edges and the whole monotone order as one adjacency matrix: [i, j] iff i revealed at-least j.

        SciPy numbers the strong components in its search order over this matrix, and those numbers order the
        seeded sampler's ready list, so it holds every pair of the order, not only the covers.
        """
        return _frozen(self.whole_cells(strict=False))

    def whole_cells(self, strict: bool) -> np.ndarray:
        """(n, n) bool mask of the edges, only the strict ones if strict, with the pairs of the order they stand for.

        The monotone covers stand for every pair of the space order, and the strict ones for every pair of its
        strict order. Read where more than the closure counts: SciPy's component numbering (`arc_matrix`), the
        witness's candidate starts (`check_consistency`) and the linear-index fit's rows (`_unique_edges`).
        """
        n = self.space.num_points
        cells = np.zeros((n, n), dtype=bool)
        pick = self.strict if strict else slice(None)
        cells[self.x[pick], self.y[pick]] = True
        if self.monotone == "strict":
            cells |= self.space.strict_order
        if self.monotone != "none" and not strict:
            cells |= self.space.weak_order
            np.fill_diagonal(cells, False)  # only the order's own pairs: no edge is a loop
        return cells

    @cached_property
    def condensation(self) -> "_Condensation":
        return _condense(self)

    def prefix(self, k: int) -> "RevealedRelation":
        """The edges the first k pairs reveal, pair_index <= k, and every monotonicity edge; self if all stay."""
        keep = self.pair_index <= k
        columns = (self.x, self.y, self.strict, self.pair_index)
        return self if keep.all() else RevealedRelation(self.space, *(column[keep] for column in columns),
                                                        self.monotone)

    def data_edges(self) -> np.ndarray:
        """Mask of the edges revealed by the data, the ones with a pair."""
        return self.pair_index > 0


@dataclass(frozen=True)
class RationalizationPolicy:
    """How to pick one preference from the rationalization set.

    tag: canonical | adversarial_indifference | adversarial_far | eu_class.
    The revealed relation, not the policy, carries the monotone class:
    see `revealed_relation`'s `monotone`.
    """

    tag: str = "canonical"
    seed: int = 0
    target: Preference | None = None
    budget: int = 400

    def __post_init__(self):
        if self.tag not in ("canonical", "adversarial_indifference", "adversarial_far", "eu_class"):
            raise ConfigurationError(f"unknown policy tag {self.tag!r}")
        if self.tag == "adversarial_far" and self.target is None:
            raise ConfigurationError("adversarial_far needs a target preference")


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    witness: tuple[int, ...] | None = None


def revealed_relation(e: ExperimentSequence, c: ChoiceSequence, mode: str, monotone: str = "none") -> RevealedRelation:
    """Revealed comparisons from the data plus optional monotonicity edges.

    Weak mode: each chosen element is revealed weakly above its opponent.
    Strong mode: a singleton choice is revealed strictly above, a
    two-element choice is revealed indifferent (weak edges both ways).
    Monotone "weak" injects weak edges along the covering pairs of the space
    order; "strict" additionally injects strict edges along the covering
    pairs of the configured dominance. The covers imply every other pair of
    the order, a strict pair through a chain of strict covers, and on a
    24x24 grid they are 1,104 of the 89,424 weak pairs.
    """
    if mode not in (STRONG, WEAK):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if monotone not in _POLICY_CLASSES.values():
        raise ConfigurationError(f"unknown monotone class {monotone!r}")
    pairs, chose = c.arrays_over(e)
    n = e.space.num_points
    # slot 2i reveals x over y when pair i's x is chosen, slot 2i + 1 y over x
    revealed = np.flatnonzero(chose)
    pair = revealed // 2
    tail, head = pairs.ravel()[revealed], pairs[:, ::-1].ravel()[revealed]
    strict = (mode == STRONG) & (chose.sum(axis=1) == 1)[pair]
    # a comparison revealed again keeps the pair that revealed it first
    _, first = np.unique((tail * n + head) * 2 + strict, return_index=True)
    first.sort()
    columns = [(tail[first], head[first], strict[first], pair[first] + 1)]
    # the strictness of each set of covers the class injects; a class builds no covers it does not inject
    for is_strict in {"none": (), "weak": (False,), "strict": (False, True)}[monotone]:
        ii, jj = np.nonzero(e.space.strict_covers if is_strict else e.space.weak_covers)
        columns.append((ii, jj, np.full(len(ii), is_strict), np.zeros(len(ii), dtype=np.int64)))
    return RevealedRelation(e.space, *(np.concatenate(column) for column in zip(*columns)), monotone)


@dataclass(frozen=True)
class _Condensation:
    labels: np.ndarray            # point index -> component id
    num_comps: int
    arc_u: np.ndarray             # arcs between distinct components, unique and sorted by (arc_v, arc_u):
    arc_v: np.ndarray             # component arc_u[i] at-least component arc_v[i],
    arc_strict: np.ndarray        # strictly when some strict edge gives the arc
    consistent: bool              # no strict edge joins two points of one component

    @cached_property
    def covering(self) -> np.ndarray:
        """Mask of the covering arcs, the ones no longer path implies: the transitive reduction.

        Walks the components by ascending id, keeping each one's strict down-set as a boolean row; an arc
        (u, v) covers unless v lies below another component that u is at least. SciPy closes the strong
        components in reverse topological order (Tarjan 1972, in Pearce's variant), so every arc runs from a
        higher id to a lower one and a component's heads are walked before it.
        """
        num = self.num_comps
        by_tail = np.argsort(self.arc_u, kind="stable")
        heads = self.arc_v[by_tail]
        bounds = np.searchsorted(self.arc_u[by_tail], np.arange(num + 1)).tolist()
        down = np.zeros((num, num), dtype=bool)
        keep = np.empty(len(heads), dtype=bool)
        for comp in range(num):
            lo, hi = bounds[comp], bounds[comp + 1]
            below = down[heads[lo:hi]].any(axis=0)
            keep[lo:hi] = ~below[heads[lo:hi]]
            below[heads[lo:hi]] = True
            down[comp] = below
        return keep[np.argsort(by_tail)]

    @cached_property
    def above(self) -> list[list[int]]:
        # above[cv] = the components cu of the covering arcs into cv, ascending; they place after cv
        bounds = np.searchsorted(self.arc_v[self.covering], np.arange(self.num_comps + 1)).tolist()
        tails = self.arc_u[self.covering].tolist()
        return [tails[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def num_lower_covers(self) -> list[int]:
        # how many components each component covers: the ones it waits for in `_sample_ranks`
        return np.bincount(self.arc_u[self.covering], minlength=self.num_comps).tolist()

    @cached_property
    def strict_near(self) -> list[set[int]]:
        # components joined to each component by a strict arc, either way
        near = [set() for _ in range(self.num_comps)]
        for cu, cv in zip(self.arc_u[self.arc_strict].tolist(), self.arc_v[self.arc_strict].tolist()):
            near[cu].add(cv)
            near[cv].add(cu)
        return near


def _condense(r: RevealedRelation) -> _Condensation:
    n = r.space.num_points
    rows, cols = np.nonzero(r.arc_matrix)
    # int32 indices are SciPy's own, so neither the constructor nor the search converts them
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    adj = csr_matrix((np.ones(len(cols)), cols.astype(np.int32), indptr), shape=(n, n))
    num, labels = connected_components(adj, directed=True, connection="strong")
    cu, cv = labels[r.x], labels[r.y]
    inside = cu == cv
    # one arc per ordered pair of components, strict when any of its edges is
    arc, strict = np.zeros((2, num, num), dtype=bool)
    arc[cv[~inside], cu[~inside]] = True
    strict[cv[~inside & r.strict], cu[~inside & r.strict]] = True
    arc_v, arc_u = np.nonzero(arc)
    return _Condensation(labels, num, arc_u, arc_v, strict[arc_v, arc_u], not (inside & r.strict).any())


def check_consistency(r: RevealedRelation) -> ConsistencyResult:
    """Decide whether any complete transitive relation respects all edges.

    The data is consistent iff no directed cycle of revealed edges crosses
    a strict edge; otherwise a minimal witness cycle (shortest, then
    lexicographically least, starting at its strict edge) is returned. The
    witness reads the whole monotone order, not only its covers: its cycle
    may start at any strict pair of the order and take any of its pairs.

    The search is one breadth-first hop table over the components that hold
    a strict pair, since a shortest path between two points of a component
    stays inside it. It has a row for each upper end u of a strict pair,
    and level k writes k into the cells of the points k arcs away from u.
    A level reads the arcs into the points of the cells the last level
    reached, so it costs the arcs it reads, and the search no more than
    one breadth-first search per row. A level whose reads would
    take longer than a dense float32 product of the level with the reversed
    arcs takes that product (exact, as in `_dilate`).
    The levels stop at the first one that reaches the lower end v of a
    strict pair (u, v) in its row: all shortest cycles are equally long, so
    the least such (u, v) starts the witness, and its path takes at each
    point the least next point one hop closer to u.
    """
    cond = r.condensation
    if cond.consistent:
        return ConsistencyResult(True, None)
    starts = r.whole_cells(strict=True) & (cond.labels[:, None] == cond.labels[None, :])
    tops = np.flatnonzero(starts.any(axis=1))
    keep = np.flatnonzero(np.bincount(cond.labels[tops], minlength=cond.num_comps)[cond.labels])
    # flat tables: cell i * keep.size + p is point p in the row of tops[i], so the least cell is the least (u, p)
    starts, arcs = starts[tops[:, None], keep].ravel(), r.arc_matrix[keep[:, None], keep]
    into, tails = arcs.sum(axis=0), np.nonzero(arcs.T)[1]
    first = into.cumsum() - into  # the arcs into point p come from tails[first[p] : first[p] + into[p]]
    hops = np.full(starts.size, -1, dtype=np.int16)
    cells = np.arange(tops.size) * keep.size + np.searchsorted(keep, tops)
    hops[cells] = level = 0
    # every v reaches its u, so some level reaches a start
    while not starts[cells].any():
        level += 1
        rows, cols = np.divmod(cells, keep.size)
        reads = into[cols]
        if reads.sum() * _DENSE_SPEEDUP < hops.size * keep.size:
            # each frontier cell (u, p) reads the arcs into p
            ends = reads.cumsum()
            arcs_in = np.repeat(first[cols] - ends + reads, reads) + np.arange(ends[-1])
            cells = np.sort(np.repeat(rows, reads) * keep.size + tails[arcs_in])
            cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
        else:
            frontier = np.zeros(hops.size, dtype=np.float32)
            frontier[cells] = 1.0
            cells = np.flatnonzero(frontier.reshape(tops.size, -1) @ arcs.T.astype(np.float32) > 0.5)
        cells = cells[hops[cells] < 0]
        hops[cells] = level
    row, cur = divmod(int(cells[starts[cells]].min()), keep.size)
    table, path = hops[row * keep.size:(row + 1) * keep.size], [cur]
    while table[cur]:
        cur = np.flatnonzero(arcs[cur] & (table == table[cur] - 1))[0]
        path.append(cur)
    return ConsistencyResult(False, (int(tops[row]), *keep[path].tolist()))


def _min_height(cond: _Condensation) -> np.ndarray:
    """Lowest rank row over the points: each component sits just above what it must beat.

    The arcs are sorted by head and each runs from a higher id to a lower one, so the arcs out of a component all
    come before the arcs into it: its height is final before one of them reads it.
    """
    height = [0] * cond.num_comps
    # memoryviews read the arcs in place, where lists would copy them; an if, not max(), halves the loop time
    for u, v, strict in zip(*(memoryview(a) for a in (cond.arc_u, cond.arc_v, cond.arc_strict))):
        above = height[v] + strict
        if above > height[u]:
            height[u] = above
    return np.array(height, dtype=np.int64)[cond.labels]


def _max_height(cond: _Condensation) -> np.ndarray:
    """Highest rank row over the points: each component sits just below what beats it.

    `_min_height`'s pass backwards, on each component's depth below the top: the arcs into a component all come
    before the arcs out of it, so its depth is final before one of them reads it.
    """
    depth = [0] * cond.num_comps
    for u, v, strict in zip(*(memoryview(a[::-1]) for a in (cond.arc_u, cond.arc_v, cond.arc_strict))):
        below = depth[u] + strict
        if below > depth[v]:
            depth[v] = below
    return (max(depth) - np.array(depth, dtype=np.int64))[cond.labels]


def _require_consistent(r: RevealedRelation) -> None:
    res = check_consistency(r)
    if not res.consistent:
        raise PreconditionError(f"data is not rationalizable; witness cycle {res.witness}")


def sample_extension(r: RevealedRelation, rng, merge_prob: float = 0.5) -> Preference:
    """One random rationalizing preference.

    Draws a uniform-candidate topological order of the component graph
    (worst component first) and merges adjacent components into shared
    ranks with the given probability when no strict edge separates them.
    Every rationalizing total preorder is reachable by some draw. The walk
    follows covering arcs only. What is taken is always a down-set, so each
    component becomes ready when its last lower cover is taken, the step it
    would on all arcs: every seeded draw is unchanged.
    """
    rng = np.random.default_rng(rng)  # a Generator passes through unaltered
    cond = r.condensation
    if not cond.consistent:
        raise PreconditionError("data is not rationalizable")
    return Preference(r.space, _sample_ranks(cond, rng, merge_prob))


def _sample_ranks(cond: _Condensation, rng: np.random.Generator, merge_prob: float) -> np.ndarray:
    """`sample_extension`'s dense rank row over the points, drawn from the consistent data's condensation.

    `ready` starts with the components that beat nothing, ascending; a taken
    component releases the components above it in ascending order. A lone
    ready component is taken without a draw: `rng.integers(1)` would
    consume no randomness either. Every level holds a component and every
    component a point, so the row is dense as drawn.
    """
    integers, random = rng.integers, rng.random
    strict_near, above = cond.strict_near, cond.above
    remaining = list(cond.num_lower_covers)
    ready = [comp for comp, count in enumerate(remaining) if count == 0]
    levels = [0] * cond.num_comps
    block, level = [], -1
    while ready:
        comp = ready.pop(integers(len(ready)) if len(ready) > 1 else 0)
        if block and random() < merge_prob and strict_near[comp].isdisjoint(block):
            block.append(comp)
        else:
            block, level = [comp], level + 1
        levels[comp] = level
        for waiter in above[comp]:
            remaining[waiter] -= 1
            if remaining[waiter] == 0:
                ready.append(waiter)
    return np.array(levels, dtype=np.int64)[cond.labels]


def adversarial_far_extension(
    r: RevealedRelation,
    target: Preference,
    seed: int = 0,
    budget: int = RationalizationPolicy.budget,
) -> tuple[Preference, bool]:
    """Search the rationalization set for a preference far from `target`.

    Seeded random draws of sample_extension, each with a merge probability
    drawn uniformly from (0, 0.15, 0.4, 0.7, 0.9), keeping the draw farthest
    from the target. The search stops once the best distance reaches the
    diameter of the space, or after max(50, budget // 4) draws in a row
    without improvement. Returns (best preference found, budget_exhausted);
    the flag is True when the budget ran out before either stop. The target
    side of every distance (its rank envelopes at each radius) is computed
    once per search, not once per draw.
    """
    _require_consistent(r)
    distance = _distance_to(target)
    rng = np.random.default_rng(seed)
    best, best_d, stale = None, -1.0, 0
    for _ in range(max(1, budget)):
        merge_prob = float(rng.choice([0.0, 0.15, 0.4, 0.7, 0.9]))
        cand = sample_extension(r, rng, merge_prob=merge_prob)
        d = distance(cand)
        if d > best_d:
            best, best_d, stale = cand, d, 0
        else:
            stale += 1
        if best_d >= float(r.space.distance_values[-1]) - _ZERO_TOL:
            return best, False  # the diameter of the space: no draw can be farther
        if stale >= max(50, budget // 4):
            return best, False  # no improvement for long enough
    return best, True


def extend_preference(r: RevealedRelation, policy: RationalizationPolicy) -> Preference:
    """Extend consistent revealed data to a full preference under a policy."""
    _require_consistent(r)
    if policy.tag == "canonical":
        return Preference(r.space, _min_height(r.condensation))
    if policy.tag == "adversarial_indifference":
        if r.monotone != "none":
            raise ConfigurationError("the indifference construction cannot respect monotonicity edges")
        return _indifference_from_relation(r)
    if policy.tag == "adversarial_far":
        pref, _ = adversarial_far_extension(r, policy.target, policy.seed, policy.budget)
        return pref
    # eu_class, the last tag a policy may have
    result = _eu_from_edges(r)
    if result.status == "infeasible":
        raise PreconditionError("data admits no linear-index rationalization")
    return eu_preference(r.space, result.index)


# ---------------------------------------------------------------------------
# adversarial indifference construction


def _partition_axis(num_levels: int, data_levels: np.ndarray, max_len: int) -> np.ndarray:
    """Run id of each axis level: each data level gets its own 3-level run, the others runs of at most max_len."""
    first = np.zeros(num_levels, dtype=bool)  # the first level of each run
    gaps, cursor = [], 0
    ds = np.unique(data_levels).tolist()
    for d, nxt in zip(ds, ds[1:] + [num_levels]):
        start = min(max(cursor, d - 1), nxt - 3)
        if start < cursor:
            raise ResolutionError(
                "observed alternatives are too close on the grid to isolate; refine the grid"
            )
        gaps.append(np.arange(cursor, start))
        first[start] = True
        cursor = start + 3
    gaps.append(np.arange(cursor, num_levels))
    for gap in gaps:
        if gap.size:
            first[[run[0] for run in np.array_split(gap, math.ceil(gap.size / max_len))]] = True
    return first.cumsum() - 1


def _grid_axes(space: OrderedSpace):
    """A grid's dims, resolution, (dims, 2) bounds, per-axis steps and (n, dims) level indices."""
    desc = space.descriptor
    dims, res = desc["dims"], desc["resolution"]
    bounds = np.asarray(desc["bounds"], dtype=float)
    steps = (bounds[:, 1] - bounds[:, 0]) / (res - 1)
    levels = np.array(np.unravel_index(np.arange(space.num_points), (res,) * dims)).T
    return dims, res, bounds, steps, levels


def _indifference_from_relation(r: RevealedRelation) -> Preference:
    space = r.space
    if space.kind != "euclidean_grid":
        raise ConfigurationError("the indifference construction needs a euclidean grid space")
    data = r.data_edges()
    stage = int(r.pair_index.max(initial=1))
    dims, res, bounds, steps, levels = _grid_axes(space)
    cell_diameter = max(1.0 / (2.0 * stage), 2.0 * float(steps.max()))

    data_nodes = np.unique(np.concatenate([r.x[data], r.y[data]]))
    heights = _min_height(r.condensation)[data_nodes]
    top = heights.max(initial=0)

    # each point's cell (its runs on every axis, in mixed radix) and the cell's center; every observed level owns
    # a 3-level run on its axis, so an observed point is alone in its cell of 3**dims points
    cell = np.zeros(space.num_points, dtype=np.int64)
    center = np.empty((space.num_points, dims))
    for d in range(dims):
        max_len = max(3, int(cell_diameter / steps[d] + 1e-9) + 1)
        run = _partition_axis(res, levels[data_nodes, d], max_len)
        lo, hi = np.searchsorted(run, run), np.searchsorted(run, run, side="right") - 1
        axis = np.linspace(bounds[d, 0], bounds[d, 1], res)
        center[:, d] = ((axis[lo] + axis[hi]) / 2.0)[levels[:, d]]
        cell = cell * (run[-1] + 1) + run[levels[:, d]]

    # the free points of each cell from nearest its center outward take 2, -2, then 0; a lone free point takes 0
    free = np.setdiff1d(np.arange(space.num_points), data_nodes)
    free = free[np.lexsort((free, np.abs(space.points[free] - center[free]).max(axis=1), cell[free]))]
    in_cell = cell[free]
    position = np.arange(free.size) - np.searchsorted(in_cell, in_cell)
    lone = np.bincount(in_cell)[in_cell] < 2
    values = np.zeros(space.num_points)
    values[free] = np.where(lone, 0.0, np.array([2.0, -2.0, 0.0])[np.minimum(position, 2)])
    values[data_nodes] = (2.0 * heights - top) / max(top, 1)
    return from_utility(space, values)


def indifference_construction(e: ExperimentSequence, c: ChoiceSequence) -> Preference:
    """A rationalization built to sit near total indifference.

    Partitions the grid into cells shrinking with the data length, keeps
    each observed alternative alone in its cell at a mid-band value, and
    plants a high and a low band point inside every cell, so the output
    strongly rationalizes the data while its graph is dense in X times X.
    Each observed axis level owns a 3-level run of its axis, so two observed
    alternatives differ in some run and never share a cell, and the cell of
    one holds 3**dims points. Raises ResolutionError when observed levels
    are too close to get their own runs.
    """
    r = revealed_relation(e, c, c.mode, monotone="none")
    _require_consistent(r)
    return _indifference_from_relation(r)


# ---------------------------------------------------------------------------
# linear utility classes


@dataclass(frozen=True)
class EuResult:
    """Outcome of the linear-index fit: a unit vector over prizes, or failure."""

    status: str  # feasible | degenerate | infeasible
    index: np.ndarray | None
    margin: float


@dataclass(frozen=True)
class LipschitzResult:
    status: str  # feasible | degenerate | infeasible
    values: np.ndarray | None
    margin: float


def _unique_edges(r: RevealedRelation) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(x, y) index arrays of the weak edges that no strict edge repeats, and of the strict edges, by (x, y).

    Both read every pair of the monotone order, not only its covers: the fit's rows and its tie-break
    functional, their sum, are over all of them.
    """
    strict = r.whole_cells(strict=True)
    return np.nonzero(r.arc_matrix & ~strict), np.nonzero(strict)


def _incidence(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One row per edge over n values: +1 at x, -1 at y, so row @ u = u[x] - u[y]."""
    rows = np.zeros((len(x), n))
    rows[np.arange(len(x)), x] += 1.0
    rows[np.arange(len(x)), y] -= 1.0
    return rows


def _linprog_ge(cost: np.ndarray, rows: np.ndarray, rhs: np.ndarray, eq: tuple[np.ndarray, float],
                bounds: list, what: str) -> np.ndarray | None:
    """Minimise cost @ x subject to rows @ x >= rhs and eq[0] @ x == eq[1].

    Returns the optimal x, or None when the program is infeasible; any other
    solver failure raises DomainError naming the program.
    """
    res = linprog(cost, A_ub=-rows, b_ub=-rhs, A_eq=eq[0][None, :], b_eq=[eq[1]], bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise DomainError(f"{what} failed with solver status {res.status}")
    return res.x


def _slack_rows(num_weak: int, num_strict: int) -> np.ndarray:
    # mask over the stacked weak and strict rows: the strict rows, or the weak rows when there are none
    return np.arange(num_weak + num_strict) >= (num_weak if num_strict else 0)


def _max_margin(weak: np.ndarray, strict: np.ndarray, hard: np.ndarray, hard_rhs: np.ndarray,
                eq: tuple[np.ndarray, float], box: float) -> tuple[str, np.ndarray | None, float]:
    """Phase 1: the vector u in [-box, box] that maximises the least slack t.

    The slack rides on the strict rows (strict @ u >= t) when there are any,
    else on the weak rows; weak rows without slack ask weak @ u >= 0. The
    hard rows (hard @ u >= hard_rhs) and the equality eq[0] @ u == eq[1]
    hold exactly. Returns (status, u, t): "infeasible" when the program is,
    or when strict rows leave no positive slack; "degenerate" when t is
    below the margin floor; else "feasible". With no weak or strict row
    nothing carries slack, the program is not solved and u is None.
    """
    rows = np.concatenate([weak, strict])
    slack = _slack_rows(len(weak), len(strict))
    if not slack.any():
        return "feasible", None, 0.0
    num_vars = rows.shape[1]
    # t is one more variable: a slack row reads row @ u - t >= 0
    t_column = np.append(np.where(slack, -1.0, 0.0), np.zeros(len(hard)))
    a = np.column_stack([np.concatenate([rows, hard]), t_column])
    x = _linprog_ge(np.append(np.zeros(num_vars), -1.0), a, np.append(np.zeros(len(rows)), hard_rhs),
                    (np.append(eq[0], 0.0), eq[1]), [(-box, box)] * num_vars + [(None, None)], "margin program")
    if x is None:
        return "infeasible", None, float("-inf")
    t = float(x[-1])
    if len(strict) and t < _ZERO_TOL:
        return "infeasible", None, t
    return ("degenerate" if t < _MARGIN_FLOOR else "feasible"), x[:-1], t


def _eu_from_edges(r: RevealedRelation) -> EuResult:
    space = r.space
    if space.kind != "lottery_simplex":
        raise ConfigurationError("linear-index fitting needs a lottery_simplex space")
    (wx, wy), (sx, sy) = _unique_edges(r)
    points = space.points
    num_prizes = points.shape[1]
    dw, ds = points[wx] - points[wy], points[sx] - points[sy]
    rows = np.concatenate([dw, ds])
    tie_break = rows.sum(axis=0)
    if not tie_break.any():
        tie_break = np.linspace(1.0, -1.0, num_prizes)  # fixed fallback functional
    zero_sum = (np.ones(num_prizes), 0.0)
    status, _, t_star = _max_margin(dw, ds, np.zeros((0, num_prizes)), np.zeros(0), zero_sum, 1.0)
    if status == "infeasible":
        return EuResult("infeasible", None, 0.0)
    # phase 2: hold the slack rows at just under the optimal slack, settle the vector deterministically
    t_fix = t_star - max(1e-12, abs(t_star) * 1e-9)
    rhs = np.where(_slack_rows(len(dw), len(ds)), t_fix, 0.0)
    u = _linprog_ge(-tie_break, rows, rhs, zero_sum, [(-1.0, 1.0)] * num_prizes, "tie-break program")
    if u is None:
        return EuResult("infeasible", None, 0.0)
    norm = float(np.linalg.norm(u))
    if norm < _MARGIN_FLOOR:
        return EuResult("degenerate", np.zeros(num_prizes), 0.0)
    index = u / norm
    margin = float((ds @ index).min()) if len(ds) else 0.0
    return EuResult(status, index, max(margin, 0.0))


def eu_rationalize(e: ExperimentSequence, c: ChoiceSequence) -> EuResult:
    """Fit a linear prize index to lottery choice data.

    Returns a unit-norm, zero-sum index whose expected values respect
    every revealed comparison; strict comparisons hold with maximized
    minimum margin. Infeasibility is reported as a value, not an error.
    """
    r = revealed_relation(e, c, c.mode, monotone="none")
    return _eu_from_edges(r)


def eu_preference(space: OrderedSpace, index: np.ndarray) -> Preference:
    """The preference a prize index induces on a lottery space."""
    return from_utility(space, space.points @ np.asarray(index, dtype=float))


def lipschitz_rationalize(e: ExperimentSequence, c: ChoiceSequence, a: float, b: float) -> LipschitzResult:
    """Fit grid utility values with coordinatewise slope bounds.

    Neighboring grid points one level apart in coordinate d must differ by
    between a*step_d and b*step_d; revealed comparisons enter as in the
    linear-index fit. The lowest corner is pinned to zero. The values are
    the max-margin vertex of phase 1 as the solver returns it: unlike the
    linear-index fit, no tie-break phase settles them. With no data they
    are the lowest band staircase (least sum of values).
    """
    if not (0 < a < b < math.inf):
        raise ConfigurationError("need 0 < a < b")
    space = e.space
    if space.kind != "euclidean_grid":
        raise ConfigurationError("slope-band fitting needs a euclidean_grid space")
    r = revealed_relation(e, c, c.mode, monotone="none")
    (wx, wy), (sx, sy) = _unique_edges(r)
    n = space.num_points
    dims, res, bounds, steps, levels = _grid_axes(space)
    # per grid point p and axis d with a next level q: a*step_d <= u_q - u_p <= b*step_d
    p, d = np.nonzero(levels + 1 < res)
    up = _incidence(n, p + res ** (dims - 1 - d), p)
    band = np.stack([up, -up], axis=1).reshape(-1, n)
    band_rhs = np.stack([a * steps[d], -b * steps[d]], axis=1).ravel()
    pin = (np.eye(1, n).ravel(), 0.0)
    span = float((np.abs(bounds).max() + 1.0) * b * dims * res)
    ds = _incidence(n, sx, sy)
    status, values, _ = _max_margin(_incidence(n, wx, wy), ds, band, band_rhs, pin, span)
    if status == "feasible" and values is None:  # nothing carries slack: the lowest band staircase
        values = _linprog_ge(np.ones(n), band, band_rhs, pin, [(-span, span)] * n, "band program")
    if values is None:
        return LipschitzResult("infeasible", None, 0.0)
    margin = float((ds @ values).min()) if len(ds) else 0.0
    return LipschitzResult(status, values, max(margin, 0.0))


# ---------------------------------------------------------------------------
# rationalization replay and diameter


def rationalizes(p: Preference, e: ExperimentSequence, c: ChoiceSequence) -> bool:
    """Replay the data against a preference's optimal sets.

    Weak mode asks that every observed choice be optimal; strong mode asks
    that the observed set equal the optimal set: p must hold every edge of
    the data's revealed relation, strictly where the edge is strict.
    Raises DomainError when p lives on another space than the data.
    """
    if not same_space(p.space, e.space):
        raise DomainError("the preference and the data live on different spaces")
    return bool(_replay_mask(p.rank[None, :], revealed_relation(e, c, c.mode))[0])


@cache
def _preorder_table(n: int) -> np.ndarray:
    """Every total preorder on n points as read-only dense rank rows, in lexicographic order.

    Grows the rows one place at a time: rank v may follow a row when the ranks
    still missing below the new top fit in the places left, so every row kept
    completes and no other is built. Each row is extended by ascending ranks,
    which keeps the order. Built once per n and process, then held.
    """
    rows = np.zeros((1, 0), dtype=np.int8)
    used = np.zeros((1, n), dtype=bool)  # the ranks each row holds
    ranks = np.arange(n, dtype=np.int8)
    for left in range(n - 1, -1, -1):
        top = np.maximum(rows.max(axis=1, initial=-1)[:, None], ranks)
        missing = top + 1 - used.sum(axis=1, dtype=np.int8)[:, None] - ~used
        row, rank = np.nonzero(missing <= left)
        rows = np.column_stack([rows[row], ranks[rank]])
        used = used[row]
        used[np.arange(len(rank)), rank] = True
    return _frozen(rows)


def all_total_preorders(n: int) -> np.ndarray:
    """Every total preorder on n points, as dense rank rows (higher = better), in a fresh array.

    n = 0 gives the one empty preorder. Raises DomainError for a negative or
    non-integer n, and CapacityError above 7 points.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"the number of points must be a non-negative integer, got {n!r}")
    if n > 7:
        raise CapacityError("full enumeration is limited to 7 points")
    return _preorder_table(n).copy()


_REPLAY_CELLS = 1 << 20  # (row, edge) cells `_replay_mask` compares at once: bounds its working memory


def _replay_mask(ranks: np.ndarray, r: RevealedRelation) -> np.ndarray:
    """Boolean row filter: which signed rank rows hold every data edge of r.

    A row holds edge (x, y) when rank[x] - rank[y] >= 1 if the edge is
    strict, else >= 0. Monotonicity edges are not data and are not replayed.
    The rows are replayed in blocks of about `_REPLAY_CELLS` (row, edge)
    cells, whatever the number of rows.
    """
    data = r.data_edges()
    x, y, strict = r.x[data], r.y[data], r.strict[data]
    step = max(1, _REPLAY_CELLS // max(1, len(x)))
    mask = np.empty(len(ranks), dtype=bool)
    for start in range(0, len(ranks), step):
        block = ranks[start:start + step]
        mask[start:start + step] = (block[:, x] - block[:, y] >= strict).all(axis=1)
    return mask


def brute_force_rationalizations(e: ExperimentSequence, c: ChoiceSequence) -> np.ndarray:
    """Rank rows of every rationalizing total preorder (spaces up to 7 points)."""
    ranks = all_total_preorders(e.space.num_points)
    return ranks[_replay_mask(ranks, revealed_relation(e, c, c.mode))]


@dataclass(frozen=True)
class DiameterResult:
    """Diameter of the rationalization set, with the mode that produced it."""

    value: float
    method: str  # exact: every rationalizing total preorder; sampled: a lower bound over seeded draws
    num_candidates: int

    def __float__(self) -> float:
        return self.value


_POLICY_CLASSES = {"all": "none", "weak_monotone": "weak", "strict_monotone": "strict"}


def diameter_estimate(
    e: ExperimentSequence,
    c: ChoiceSequence,
    policy_class: str = "all",
    num_samples: int = 200,
    seed: int = 0,
) -> DiameterResult:
    """How far apart two rationalizations of the data can still be.

    The value is the largest closed-convergence distance between two
    candidate rationalizations, and `num_candidates` counts the distinct
    candidates. It is exact on spaces of at most 8 points when policy_class
    is "all": the data's replay filters the table of every total preorder on
    n points, which each process builds once per n on first use and holds
    (at most about 4.8 MB, nearly all of it the 545,835 rows of n = 8).
    Otherwise it is a sampled lower bound over the two extremal height
    assignments and seeded random extensions, num_samples draws in all; a
    num_samples below 2 still draws the two extremal extensions.
    Raises ConfigurationError for a negative num_samples or seed or an
    unknown policy class, and PreconditionError for inconsistent data.
    """
    r = revealed_relation(e, c, c.mode, monotone=_diameter_monotone(policy_class, num_samples, seed))
    return _relation_diameter(r, num_samples, seed)


def _diameter_monotone(policy_class: str, num_samples: int, seed: int) -> str:
    """The monotone edges a diameter policy class injects; ConfigurationError for a bad class, sample count or seed."""
    if not isinstance(policy_class, str) or policy_class not in _POLICY_CLASSES:
        raise ConfigurationError(f"unknown policy class {policy_class!r}")
    if num_samples < 0:
        raise ConfigurationError(f"num_samples must be at least 0, got {num_samples}")
    if seed < 0:
        raise ConfigurationError(f"seed must be at least 0, got {seed}")
    return _POLICY_CLASSES[policy_class]


def _relation_diameter(r: RevealedRelation, num_samples: int, seed: int) -> DiameterResult:
    """`diameter_estimate` of the data whose revealed relation, under a policy class's monotone edges, is r.

    r's monotone class names the policy class, "none" the class "all". The exact branch keeps the table's rows,
    already distinct and sorted, and checks consistency only when none replays: consistent data always keeps its
    canonical extension.
    """
    space = r.space
    n = space.num_points
    if r.monotone == "none" and n <= 8:
        table = _preorder_table(n)
        ranks = table[_replay_mask(table, r)]
        if not len(ranks):
            _require_consistent(r)
        return DiameterResult(_graph_diameter(space, ranks, as_graphs=True), "exact", len(ranks))
    _require_consistent(r)
    cond = r.condensation
    draws = [_min_height(cond), _max_height(cond)]
    rng = np.random.default_rng(seed)
    probs = [0.0, 0.25, 0.5, 0.85]
    for i in range(max(0, num_samples - len(draws))):
        draws.append(_sample_ranks(cond, rng, probs[i % len(probs)]))
    uniq = np.unique(np.stack(draws), axis=0)
    return DiameterResult(_graph_diameter(space, uniq), "sampled", int(uniq.shape[0]))


def result_to_json(
    policy: str,
    consistent: bool,
    preference: Preference | None = None,
    witness: tuple[int, ...] | None = None,
    diameter: DiameterResult | None = None,
) -> str:
    """JSON document for one rationalization outcome; `policy` is the policy tag or class name it was found under."""
    doc: dict = {"policy": policy, "consistent": bool(consistent)}
    if preference is not None:
        doc["ranks"] = [int(v) for v in preference.rank]
    if witness is not None:
        doc["witness_cycle"] = [int(v) for v in witness]
    if diameter is not None:
        doc["diameter"] = {"value": diameter.value, "method": diameter.method,
                           "num_candidates": diameter.num_candidates}
    return json.dumps(doc, indent=2)
