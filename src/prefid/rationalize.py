"""From finite choice data to preferences.

Builds revealed relations, decides rationalizability, extends consistent
data to full preferences under selectable policies, fits parametric
utility classes by linear programming, and estimates the diameter of the
set of rationalizations.
"""

from __future__ import annotations

import array
import json
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CapacityError, ConfigurationError, DomainError, PreconditionError, ResolutionError
from .experiments import STRONG, WEAK, ChoiceSequence, ExperimentSequence
from .preferences import Preference, _dilate, _envelopes, _graph_diameter, _least_radius, _within, from_utility
from .spaces import _EPS, OrderedSpace, _frozen, _int_field, _owned, same_space

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

    The arrays are held read-only; an array passed in is copied unless it
    is read-only and owns its memory, so the caller's own stays writeable.
    """

    space: OrderedSpace
    x: np.ndarray
    y: np.ndarray
    strict: np.ndarray
    pair_index: np.ndarray
    monotone: str = "none"

    def __post_init__(self):
        for name in ("x", "y", "strict", "pair_index"):
            object.__setattr__(self, name, _owned(getattr(self, name)))

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
        if keep.all():
            return self
        return RevealedRelation(self.space, *(_frozen(column[keep]) for column in columns), self.monotone)

    def data_edges(self) -> np.ndarray:
        """Mask of the edges revealed by the data, the ones with a pair."""
        return self.pair_index > 0


@dataclass(frozen=True)
class RationalizationPolicy:
    """How to pick one preference from the rationalization set.

    tag: canonical | adversarial_indifference | adversarial_far | eu_class.
    The revealed relation, not the policy, carries the monotone class:
    see `revealed_relation`'s `monotone`. adversarial_far takes the
    rationalization farthest from `target`, which must be a Preference
    (ConfigurationError otherwise). Its distance is exact: one extension,
    built around one pair, attains the bound that every rationalization
    obeys (see `adversarial_far_extension`). seed and budget are whole
    numbers of at least 0 (ConfigurationError otherwise); configs that
    name them hash them, and nothing reads them.
    """

    tag: str = "canonical"
    seed: int = 0
    target: Preference | None = None
    budget: int = 400

    def __post_init__(self):
        if self.tag not in ("canonical", "adversarial_indifference", "adversarial_far", "eu_class"):
            raise ConfigurationError(f"unknown policy tag {self.tag!r}")
        if self.tag == "adversarial_far" and not isinstance(self.target, Preference):
            raise ConfigurationError(f"adversarial_far needs a target Preference, got {type(self.target).__name__}")
        object.__setattr__(self, "seed", _int_field("seed", self.seed, minimum=0))
        object.__setattr__(self, "budget", _int_field("budget", self.budget, minimum=0))


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
    return RevealedRelation(e.space, *(_frozen(np.concatenate(column)) for column in zip(*columns)), monotone)


@dataclass(frozen=True)
class _Condensation:
    """The strong components of a revealed relation and the arcs between them.

    The closures of the relation are read from it: `closure` is L, the pairs joined by a path of edges (every
    point reaches itself), and `strict_closure` is S, the pairs joined by a path that crosses a strict edge. On
    consistent data a total preorder G rationalizes the relation iff L <= G <= U, with U the complement of S's
    transpose: G must hold every pair of L and must not hold (b, a) for a pair (a, b) of S. These are the finite
    forms of Richter's closure (M. Richter, "Revealed Preference Theory", Econometrica 1966) and of Varian's
    revealed-preferred sets (H. Varian, "The Nonparametric Approach to Demand Analysis", Econometrica 1982).
    So no rationalization is farther from a target q than max(h(U -> q), h(q -> L)), and
    `adversarial_far_extension` returns one that is exactly that far: one pair attains the larger term, and the
    extension built around it stays between L and U. For the same reason no two rationalizations lie farther
    apart than h(U -> L), U being `upper`; the sampled diameter stops its search at that ceiling (see
    `_relation_diameter`).

    Everything past the arcs comes from one pass over them in their stored order (`_walk`), made on first read.
    SciPy closes the strong components in reverse topological order (Tarjan 1972, in Pearce's variant), so every
    arc runs from a higher id to a lower one; sorted by head, the arcs out of a component all come before the arcs
    into it, and its sets are final before an arc into it reads them. The pass keeps four bitsets a component,
    plain ints with bit d for component d: its reach (itself included), its strict reach, the reach below its
    heads, and its strict neighbours. L and S unpack the first two; an arc covers unless its head lies in the
    third, and the sampler reads the covers (`above`, `num_lower_covers`) and the neighbours (`strict_neighbours`).
    """

    labels: np.ndarray            # point index -> component id
    num_comps: int
    arc_u: np.ndarray             # arcs between distinct components, unique and sorted by (arc_v, arc_u):
    arc_v: np.ndarray             # component arc_u[i] at-least component arc_v[i],
    arc_strict: np.ndarray        # strictly when some strict edge gives the arc
    consistent: bool              # no strict edge joins two points of one component

    @cached_property
    def _walk(self) -> tuple[list[int], list[int], list[int], list[int]]:
        # (reach, strict reach, reach below the heads, strict neighbours) of each component, from one pass
        one = [1 << comp for comp in range(self.num_comps)]
        reach, strict, below, near = one.copy(), [0] * self.num_comps, [0] * self.num_comps, [0] * self.num_comps
        for u, v, is_strict in zip(*(memoryview(a) for a in (self.arc_u, self.arc_v, self.arc_strict))):
            reach[u] |= reach[v]
            below[u] |= reach[v] ^ one[v]
            if is_strict:
                strict[u] |= reach[v]
                near[u] |= one[v]
                near[v] |= one[u]
            else:
                strict[u] |= strict[v]
        return reach, strict, below, near

    def _over_points(self, bitsets: list[int]) -> np.ndarray:
        # (n, n) bool: [x, y] iff the bitset of x's component holds y's component
        width = (self.num_comps + 7) // 8
        packed = np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in bitsets), dtype=np.uint8)
        comps = np.unpackbits(packed.reshape(self.num_comps, width), axis=1, count=self.num_comps, bitorder="little")
        return comps.view(bool)[np.ix_(self.labels, self.labels)]

    @cached_property
    def closure(self) -> np.ndarray:
        """L over the points, (n, n) bool: [x, y] iff a path of edges runs from x to y; x reaches itself."""
        return self._over_points(self._walk[0])

    @cached_property
    def strict_closure(self) -> np.ndarray:
        """S over the points, (n, n) bool: [x, y] iff a path of edges from x to y crosses a strict arc."""
        return self._over_points(self._walk[1])

    @property
    def upper(self) -> np.ndarray:
        """U over the points, (n, n) bool: the complement of S's transpose, every pair a rationalization may hold.

        Built on each read from the cached S, since each reader reads it once.
        """
        return ~self.strict_closure.T

    @cached_property
    def above(self) -> list[list[int]]:
        # above[cv] = the components cu of the covering arcs into cv, ascending; they place after cv. An arc covers
        # unless its head lies below another head of its tail
        below, above = self._walk[2], [[] for _ in range(self.num_comps)]
        for u, v in zip(memoryview(self.arc_u), memoryview(self.arc_v)):
            if not below[u] >> v & 1:
                above[v].append(u)
        return above

    @cached_property
    def num_lower_covers(self) -> list[int]:
        # how many components each component covers: the ones it waits for in `_sample_ranks`
        return np.bincount([u for tails in self.above for u in tails], minlength=self.num_comps).tolist()

    @cached_property
    def strict_neighbours(self) -> list[int]:
        # bitset of the components joined to each component by a strict arc, either way
        return self._walk[3]


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

    The draws are the ones `rng.integers` and `rng.random` would make, and
    rng is left where they would leave it (see `_RawWords`). Raises
    ConfigurationError for a merge_prob outside [0, 1] or a Generator on
    MT19937, PreconditionError for inconsistent data.
    """
    if not (isinstance(merge_prob, numbers.Real) and 0.0 <= merge_prob <= 1.0):
        raise ConfigurationError(f"merge_prob must lie in [0, 1], got {merge_prob!r}")
    words = _RawWords(np.random.default_rng(rng))  # a Generator passes through unaltered
    cond = r.condensation
    if not cond.consistent:
        raise PreconditionError("data is not rationalizable")
    ranks = _sample_ranks(cond, words, merge_prob)
    words.sync()
    return Preference(r.space, ranks)


# words drawn from the bit generator at a time: past 64, a sampled diameter on a 12x12 grid runs no faster
_BLOCK = 64


class _RawWords:
    """A Generator's `integers(m)` and `random()` draws, read from its bit generator's 64-bit words in blocks.

    NumPy serves `integers(m)`, for 1 < m < 2**32, from 32-bit halves: the low half of a fresh word first, then
    the high half, which it keeps in the bit generator's state (`has_uint32`, `uinteger`; the value stays there
    after it is used). A half x maps to x * m >> 32, rejected while the product's low 32 bits fall below
    (2**32 - m) % m (D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS 2019). `random()` is
    a fresh word's top 53 bits, which leaves the kept half alone. Reading the same words here gives the same
    values, bit for bit, for a small part of a NumPy call's cost each.

    The bit generator runs ahead of the draws by up to a block; `sync()` sets it where NumPy's own draws would
    have left it, kept half included. A bit generator without a kept half (MT19937) is refused with
    ConfigurationError.
    """

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        self._start = self._bits.state
        if "has_uint32" not in self._start:
            raise ConfigurationError(f"the sampler reads 32-bit halves of 64-bit words, which a "
                                     f"{self._start['bit_generator']} generator does not keep")
        self._has_half, self._half = bool(self._start["has_uint32"]), self._start["uinteger"]
        # the unread words of the last block, next one last, in 8 bytes each (a Python int takes 36)
        self._words, self._drawn = array.array("Q"), 0

    def _refill(self) -> array.array:
        self._words = array.array("Q", self._bits.random_raw(_BLOCK)[::-1].tobytes())
        self._drawn += _BLOCK
        return self._words

    def integers(self, m: int) -> int:
        """`Generator.integers(m)` for 1 < m < 2**32."""
        while True:
            if self._has_half:
                self._has_half, half = False, self._half
            else:
                word = (self._words or self._refill()).pop()
                self._has_half, self._half, half = True, word >> 32, word & 0xFFFFFFFF
            product = half * m
            low = product & 0xFFFFFFFF
            if low >= m or low >= (0x100000000 - m) % m:  # the threshold is below m, so a low part of m or more stands
                return product >> 32

    def random(self) -> float:
        """`Generator.random()`."""
        return ((self._words or self._refill()).pop() >> 11) * 2.0**-53

    def sync(self) -> None:
        """Leave the bit generator as NumPy's draws would have, the kept half included; the reader's last call."""
        self._bits.state = self._start
        self._bits.random_raw(self._drawn - len(self._words))
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._bits.state = state


def _sample_ranks(cond: _Condensation, words: _RawWords, merge_prob: float) -> np.ndarray:
    """`sample_extension`'s dense rank row over the points, drawn from the consistent data's condensation.

    `ready` starts with the components that beat nothing, ascending; a taken
    component releases the components above it in ascending order. A lone
    ready component is taken without a draw: NumPy's `integers(1)` would
    consume no randomness either. Every level holds a component and every
    component a point, so the row is dense as drawn.
    """
    integers, random = words.integers, words.random
    near, above = cond.strict_neighbours, cond.above
    remaining = list(cond.num_lower_covers)
    ready = [comp for comp, count in enumerate(remaining) if count == 0]
    levels = [0] * cond.num_comps
    block, level = 0, -1  # the bitset of the components in the current level
    while ready:
        comp = ready.pop(integers(len(ready)) if len(ready) > 1 else 0)
        if block and random() < merge_prob and not near[comp] & block:
            block |= 1 << comp
        else:
            block, level = 1 << comp, level + 1
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
    """The rationalization of r farthest from `target`, at the exact largest distance; with the flag False.

    With L, S and U of r's `_Condensation`, every rationalization G has L <= G <= U, so its distance to the
    target q is at most max(h(U -> q), h(q -> L)), h the directed Hausdorff distance. One extension, built around
    one pair, attains it:
    - when h(U -> q) is the larger, take the least pair (a, b) of U farthest from q; (b, a) is not in S, so the
      weak edge a >= b closes no cycle through a strict edge, and the extension holding it is within h(U -> q)
      of q both ways and no closer;
    - otherwise take the least pair (a, b) of q farthest from L, at h(q -> L) = t, and add d > c for every c
      nearer than t to a and every d nearer than t to b. L holds no pair (c, d) of these, so the new strict
      edges close no cycle, and the extension leaves every pair near (a, b) out, so (a, b) sits t from it.
    Each radius is a `_least_radius` search, h(U -> q) on q's `_envelopes` and h(q -> L) on `_dilate`; the
    result is `_min_height` of r with the added edges, or of r alone when q is its one rationalization. Nothing
    is drawn, and the least pair makes the result deterministic.

    seed and budget are accepted, checked and hashed in configs, but nothing reads them, and budget_exhausted
    is always False. Raises ConfigurationError unless seed and budget are whole numbers of at least 0,
    DomainError for a target that is not a Preference on r's space, and PreconditionError for inconsistent data.
    """
    _int_field("seed", seed, minimum=0)
    _int_field("budget", budget, minimum=0)
    if not isinstance(target, Preference):
        raise DomainError(f"the far target must be a Preference, got {type(target).__name__}")
    space = r.space
    if not same_space(target.space, space):
        raise DomainError("the target and the data live on different spaces")
    _require_consistent(r)
    cond, radii = r.condensation, space.distance_values
    upper = cond.upper

    def off_target(radius):  # the pairs of U outside q's radius-dilation
        hi, lo = _envelopes(space, radius, target.rank)
        return upper & (hi[:, None] < lo[None, :])

    def off_closure(radius):  # the pairs of q outside L's radius-dilation
        return target.graph & ~_dilate(space, radius, cond.closure)

    to_target = _least_radius(space, lambda radius: not off_target(radius).any())
    to_closure = _least_radius(space, lambda radius: not off_closure(radius).any())
    if to_target == to_closure == 0:
        return Preference(space, _min_height(cond)), False
    if to_target >= to_closure:
        a, b = np.argwhere(off_target(radii[to_target - 1]))[0]
        x, y, strict = np.array([a]), np.array([b]), False
    else:
        a, b = np.argwhere(off_closure(radii[to_closure - 1]))[0]
        near = space.distance_matrix <= radii[to_closure - 1] + _EPS  # `_dilate`'s balls
        x, y = np.nonzero(near[b][:, None] & near[a][None, :])
        strict = True
    grown = RevealedRelation(space, np.concatenate([r.x, x]), np.concatenate([r.y, y]),
                             np.concatenate([r.strict, np.full(len(x), strict)]),
                             np.concatenate([r.pair_index, np.zeros(len(x), dtype=r.pair_index.dtype)]), r.monotone)
    return Preference(space, _min_height(grown.condensation)), False


def extend_preference(r: RevealedRelation, policy: RationalizationPolicy) -> Preference:
    """Extend consistent revealed data to a full preference under a policy.

    canonical is the lowest extension (`_min_height`); adversarial_far is the rationalization farthest from the
    policy's target, at the exact largest distance, built around one pair (see
    `adversarial_far_extension`).
    """
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
    # exact: every rationalizing total preorder. sampled: a lower bound over seeded draws, and at most h(U -> L)
    # of the data's closures (see `_Condensation`); it reads that ceiling whenever two draws lie that far apart
    method: str
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
    num_samples below 2 still draws the two extremal extensions. No two
    rationalizations lie farther apart than h(U -> L), the directed
    Hausdorff distance from the pairs the data leave open to the closure of
    the revealed relation (see `_Condensation`). The sampled value is at
    most that ceiling, and it is reported at the ceiling, without measuring
    every candidate, as soon as two draws are found that far apart. Data
    that leave one rationalization give 0.0 and one candidate, with nothing
    drawn.
    Raises ConfigurationError for an unknown policy class or unless
    num_samples and seed are whole numbers of at least 0, and
    PreconditionError for inconsistent data.
    """
    monotone = _diameter_monotone(policy_class)
    num_samples, seed = _int_field("num_samples", num_samples, minimum=0), _int_field("seed", seed, minimum=0)
    return _relation_diameter(revealed_relation(e, c, c.mode, monotone=monotone), num_samples, seed)


def _diameter_monotone(policy_class: str) -> str:
    """The monotone edges a diameter policy class injects; ConfigurationError for an unknown class."""
    if not isinstance(policy_class, str) or policy_class not in _POLICY_CLASSES:
        raise ConfigurationError(f"unknown policy class {policy_class!r}")
    return _POLICY_CLASSES[policy_class]


def _relation_diameter(r: RevealedRelation, num_samples: int, seed: int) -> DiameterResult:
    """`diameter_estimate` of the data whose revealed relation, under a policy class's monotone edges, is r.

    r's monotone class names the policy class, "none" the class "all". The exact branch keeps the table's rows,
    already distinct and sorted, and checks consistency only when none replays: consistent data always keeps its
    canonical extension.

    The sampled value is the fold of `_graph_diameter` over the candidates: a least index into
    `space.distance_values`. Every candidate holds L and lies in U, so that index is at most the ceiling c, the
    index of h(U -> L) (`_diameter_ceiling`). When some row lies outside the radius-dilation of the least or the
    greatest row at the value below c (`_ends_apart`), the fold would return the value at c, which is returned
    without it; otherwise the fold runs. Either way the value is the fold's, bit for bit. The closures are built
    after the draws, which read neither. When L = U the data leave one rationalization, which every draw would
    return: the value is 0.0 with one candidate, and nothing is drawn. The seed's generator is never read again,
    so no caller sees the skipped draws.
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
    cond, radii = r.condensation, space.distance_values
    low = _min_height(cond)
    # L = U iff the components form one chain of strict steps, which is when the lowest extension's top rank is
    # one below the number of components; unlike comparing the closures, this leaves the reach unbuilt
    if low.max() + 1 == cond.num_comps:
        return DiameterResult(float(radii[0]), "sampled", 1)
    rows = _sampled_candidates(cond, low, num_samples, seed)
    ceiling = _diameter_ceiling(cond, space)
    if ceiling == 0 or _ends_apart(space, radii[ceiling - 1], rows):
        return DiameterResult(float(radii[ceiling]), "sampled", len(rows))
    return DiameterResult(_graph_diameter(space, rows), "sampled", len(rows))


def _diameter_ceiling(cond: _Condensation, space: OrderedSpace) -> int:
    """h(U -> L) of the condensation's closures, as the least index into `space.distance_values` at which U lies
    in L's `_dilate`: no two rationalizations lie farther apart."""
    upper, closure = cond.upper, cond.closure
    return _least_radius(space, lambda radius: not (upper & ~_dilate(space, radius, closure)).any())


def _ends_apart(space: OrderedSpace, radius: float, rows: np.ndarray) -> bool:
    """Whether some rank row lies outside the radius-dilation of the first or the last row, so that two rows lie
    farther than radius apart: each end's `_envelopes`, then one O(n) `_within` test a row."""
    for end in (rows[0], rows[-1]):
        hi, lo = _envelopes(space, radius, end)
        if not all(_within(hi, lo, row) for row in rows):
            return True
    return False


def _sampled_candidates(cond: _Condensation, low: np.ndarray, num_samples: int, seed: int) -> np.ndarray:
    """The sampled diameter's distinct candidate rank rows, sorted: the two extremal extensions, `low` (the
    condensation's `_min_height`) and `_max_height`, then seeded walks of `_sample_ranks` at four merge
    probabilities in turn, num_samples draws in all (never fewer than the two)."""
    draws = [low, _max_height(cond)]
    words = _RawWords(np.random.default_rng(seed))  # the seed's own generator, never read again: never synced
    probs = [0.0, 0.25, 0.5, 0.85]
    for i in range(max(0, num_samples - len(draws))):
        draws.append(_sample_ranks(cond, words, probs[i % len(probs)]))
    stack = np.stack(draws)
    del draws  # freed before np.unique sorts its copies of the stack, where the query's memory peaks
    return np.unique(stack, axis=0)


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
