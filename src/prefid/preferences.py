"""Total preorders, structural property tests, and the convergence metric.

Preferences are stored as dense integer ranks (higher = weakly better),
which makes completeness and transitivity hold by construction. Possibly
intransitive limit relations are plain boolean matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce

import numpy as np

from .errors import DomainError
from .spaces import _EPS, OrderedSpace, _frozen, _owned, same_space

__all__ = [
    "Preference",
    "BinaryRelation",
    "from_utility",
    "total_indifference",
    "is_weakly_monotone",
    "is_strictly_monotone",
    "is_locally_strict",
    "is_quasitransitive",
    "closed_convergence_distance",
    "li_ls_limit",
]


@dataclass(frozen=True, eq=False)
class Preference:
    """A complete transitive relation, represented by ranks.

    Attributes:
        space: the OrderedSpace the preference lives on.
        rank: (n,) int array, dense from 0; rank[i] >= rank[j] means i is
            weakly preferred to j.
    """

    space: OrderedSpace
    rank: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rank)
        if r.shape != (self.space.num_points,):
            raise DomainError("rank must assign one integer per point")
        # densify so equality of preorders is array equality
        _, dense = np.unique(r, return_inverse=True)
        object.__setattr__(self, "rank", _frozen(dense.astype(np.int64)))

    @cached_property
    def graph(self) -> np.ndarray:
        """Boolean matrix of the relation: [i, j] true iff i weakly preferred to j."""
        return _frozen(self.rank[:, None] >= self.rank[None, :])

    @cached_property
    def strict(self) -> np.ndarray:
        return _frozen(self.rank[:, None] > self.rank[None, :])

    def relation(self) -> "BinaryRelation":
        return BinaryRelation(self.space, self.graph)

    def num_classes(self) -> int:
        return int(self.rank.max()) + 1

    def __eq__(self, other):
        if not isinstance(other, Preference):
            return NotImplemented
        return same_space(self.space, other.space) and np.array_equal(self.rank, other.rank)

    def __hash__(self):
        return hash((self.space.kind, self.space.num_points, self.rank.tobytes()))


@dataclass(frozen=True, eq=False)
class BinaryRelation:
    """An arbitrary relation on a space's points, as a read-only boolean matrix that no caller shares (`_owned`)."""

    space: OrderedSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _owned(self.matrix, dtype=bool)
        n = self.space.num_points
        if m.shape != (n, n):
            raise DomainError("relation matrix shape must be (n, n)")
        object.__setattr__(self, "matrix", m)

    def is_complete(self) -> bool:
        return bool((self.matrix | self.matrix.T).all())

    def __eq__(self, other):
        if not isinstance(other, BinaryRelation):
            return NotImplemented
        return same_space(self.space, other.space) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.space.kind, self.space.num_points, self.matrix.tobytes()))


def _as_relation(obj) -> BinaryRelation:
    if isinstance(obj, Preference):
        return obj.relation()
    if isinstance(obj, BinaryRelation):
        return obj
    raise DomainError(f"expected Preference or BinaryRelation, got {type(obj).__name__}")


def from_utility(space: OrderedSpace, values) -> Preference:
    """Preference represented by a utility array over point indices; exactly equal values tie."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (space.num_points,):
        raise DomainError("need one value per point")
    if not np.isfinite(vals).all():
        raise DomainError("utility values must be finite")
    _, ranks = np.unique(vals, return_inverse=True)
    return Preference(space, ranks)


def total_indifference(space: OrderedSpace) -> Preference:
    """The degenerate preference whose graph is all of X times X."""
    return Preference(space, np.zeros(space.num_points, dtype=int))


def is_weakly_monotone(p: Preference) -> bool:
    """True iff every space-order pair is weakly preferred."""
    return bool(not (p.space.weak_order & ~p.graph).any())


def is_strictly_monotone(p: Preference) -> bool:
    """True iff every configured strict-dominance pair is strictly preferred."""
    return bool(not (p.space.strict_order & ~p.strict).any())


def _radius(radius) -> float:
    """A radius as a float; DomainError unless it is a finite real number at least 0 (a bool is not one)."""
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real) or not 0 <= radius < math.inf:
        raise DomainError(f"radius must be finite and at least 0, got {radius!r}")
    return float(radius)


def is_locally_strict(p: Preference, radius: float):
    """Test that every weak pair has a strict pair within `radius` of it.

    Returns (ok, violating (i, j) pairs). Neighborhoods are closed
    max-metric balls around each side of the pair. The radius-dilation of
    p's strict part is exactly {(i, j) : hi[i] > lo[j]} (`_envelopes`).
    Raises DomainError for a radius that is not a finite number at least 0.
    """
    radius = _radius(radius)
    hi, lo = _envelopes(p.space, radius, p.rank)
    bad = p.graph & (hi[:, None] <= lo[None, :])
    ii, jj = np.nonzero(bad)
    violations = [(int(i), int(j)) for i, j in zip(ii, jj)]
    return len(violations) == 0, violations


def is_quasitransitive(r) -> bool:
    """True iff the strict part of a complete relation is transitive."""
    rel = _as_relation(r)
    m = rel.matrix
    if not rel.is_complete():
        raise DomainError("quasitransitivity is defined for complete relations")
    strict = m & ~m.T
    two_step = (strict.astype(np.float64) @ strict.astype(np.float64)) > 0.5
    return bool(not (two_step & ~strict).any())


def _dilate(space: OrderedSpace, radius: float, graphs: np.ndarray) -> np.ndarray:
    """Pairs within `radius` of each graph of a (K, n, n) boolean stack, under the product max metric.

    Entry (k, i, j) is true when graph k has a pair (a, b) with a and b in the
    closed balls around i and j. A float32 matrix product counts such pairs
    exactly at any size: every term is 0 or 1, so no count rounds across 0.5.
    """
    near = (space.distance_matrix <= radius + _EPS).astype(np.float32)
    return (near @ graphs.astype(np.float32) @ near) > 0.5


def _envelopes(space: OrderedSpace, radius: float, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and min (hi, lo) of an (n,) rank row over every point's closed `radius`-ball.

    A preference's radius-dilation is exactly {(i, j) : hi[i] >= lo[j]}, and
    that of its strict part {(i, j) : hi[i] > lo[j]}. Balls are `_dilate`'s.
    """
    near = space.distance_matrix <= radius + _EPS
    order = np.argsort(rank, kind="stable")
    ball = near[:, order]  # each ball's members, by ascending rank
    return rank[order[-1 - ball[:, ::-1].argmax(axis=1)]], rank[order[ball.argmax(axis=1)]]


def _within(hi: np.ndarray, lo: np.ndarray, rank: np.ndarray) -> bool:
    """True iff rank[i] >= rank[j] implies hi[i] >= lo[j]: one prefix maximum of lo over rank classes."""
    top = np.zeros(int(rank.max()) + 1, dtype=lo.dtype)  # lo >= 0
    np.maximum.at(top, rank, lo)
    return bool((hi >= np.maximum.accumulate(top)[rank]).all())


def _least_radius(space: OrderedSpace, covered, start: int = 0) -> int:
    """The least index i >= start into `space.distance_values` at which `covered(distance_values[i])` holds.

    `covered` must be monotone in the radius, as coverage by a dilation is. A
    bisection finds the index, since the last value, the diameter of X, always
    covers. A caller that knows every radius below index `start` fails passes
    it, and the search tests only the values from there on.
    """
    radii = space.distance_values
    lo, hi = start, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if covered(radii[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


_GRAPH_CHUNK = 2048  # graphs per `_dilate` product in `_graph_diameter`: bounds its working memory


def _graph_diameter(space: OrderedSpace, rows: np.ndarray, as_graphs: bool = False) -> float:
    """Largest Hausdorff distance between the graphs of (K, n) rank rows.

    Two graphs are within r of each other when each lies in the other's
    r-dilation, so the largest pairwise distance is the least value of
    `space.distance_values` at which every graph's dilation covers the union
    of all of them. Coverage only grows with the radius, so one fold over
    the items finds it: the first item bisects (`_least_radius`), and each
    later one is tested once, at the running best, and bisects above it only
    if it fails there. A row tests its envelopes in O(n^2). `as_graphs`
    tests chunks of `_GRAPH_CHUNK` graphs by `_dilate`'s O(n^3) product,
    each built when tested, so the working memory does not grow with K: the
    exact diameter measures so its up to hundreds of thousands of candidates
    on at most 8 points.
    """
    if as_graphs:
        items = [rows[start:start + _GRAPH_CHUNK] for start in range(0, len(rows), _GRAPH_CHUNK)]
        union = reduce(np.logical_or, ((chunk[:, :, None] >= chunk[:, None, :]).any(axis=0) for chunk in items))

        def covers(chunk, radius):
            return not (union & ~_dilate(space, radius, chunk[:, :, None] >= chunk[:, None, :])).any()
    else:
        items = rows
        union = reduce(np.logical_or, (row[:, None] >= row[None, :] for row in rows))

        def covers(row, radius):
            hi, lo = _envelopes(space, radius, row)
            return not (union & (hi[:, None] < lo[None, :])).any()

    radii = space.distance_values
    best = _least_radius(space, partial(covers, items[0]))
    for item in items[1:]:
        if not covers(item, radii[best]):
            best = _least_radius(space, partial(covers, item), best + 1)
    return float(radii[best])


def _distance_to(q: Preference):
    """The map p -> closed_convergence_distance(p, q) over Preferences, computing q's envelopes once per radius.

    p lies in q's radius-dilation iff, for every i, hi[i] >= max{lo[j] :
    p.rank[j] <= p.rank[i]} with q's `_envelopes` (`_within`), and the other
    way round; the distance is the least radius at which both hold.
    """
    space = q.space
    target = cache(lambda radius: _envelopes(space, radius, q.rank))

    def distance(p: Preference) -> float:
        if not same_space(p.space, space):
            raise DomainError("relations live on different spaces")

        def covered(radius):
            return _within(*target(radius), p.rank) and _within(*_envelopes(space, radius, p.rank), q.rank)

        if np.array_equal(p.rank, q.rank):
            return 0.0
        return float(space.distance_values[_least_radius(space, covered)])

    return distance


def closed_convergence_distance(p, q) -> float:
    """Hausdorff distance between two relation graphs in X times X.

    The product space carries the max of the two coordinate distances, so
    the distance is one of the space's point distances: the diameter of the
    two-graph set, found by a threshold search. Two Preferences compare on
    rank envelopes (`_distance_to`), so neither graph is built. Other
    relations are within a radius of each other when each lies in the
    other's `_dilate`.
    Raises DomainError for relations on different spaces or an empty graph.
    """
    if isinstance(p, Preference) and isinstance(q, Preference):
        return _distance_to(q)(p)
    p, q = _as_relation(p), _as_relation(q)
    if not same_space(p.space, q.space):
        raise DomainError("relations live on different spaces")
    stack = np.stack([p.matrix, q.matrix])
    if not stack.any(axis=(1, 2)).all():
        raise DomainError("closed convergence distance needs nonempty relations")
    if np.array_equal(p.matrix, q.matrix):
        return 0.0
    # each graph against the other's dilation, in one product
    radius = _least_radius(p.space, lambda r: not (stack[::-1] & ~_dilate(p.space, r, stack)).any())
    return float(p.space.distance_values[radius])


def li_ls_limit(seq, radius_schedule, tail_starts=None):
    """Topological lower and upper limits of a relation sequence.

    The finite-sequence reading of "all but finitely many" stretches the
    decreasing radius schedule across the sequence: the j-th radius
    constrains every term from index floor(j*N/m) on (Li) or some term
    from that index on (Ls). Explicit `tail_starts` (one 0-based index per
    radius) override the default stretch. Each radius must be finite and
    at least 0 (DomainError).
    """
    rels = [_as_relation(r) for r in seq]
    if not rels:
        raise DomainError("empty sequence")
    space = rels[0].space
    for r in rels[1:]:
        if not same_space(space, r.space):
            raise DomainError("relations live on different spaces")
    schedule = [_radius(r) for r in radius_schedule]
    if not schedule:
        raise DomainError("empty radius schedule")
    if any(b > a + _EPS for a, b in zip(schedule, schedule[1:])):
        raise DomainError("radius schedule must be decreasing")
    n_terms, m = len(rels), len(schedule)
    if tail_starts is None:
        tail_starts = [min(n_terms - 1, (j * n_terms) // m) for j in range(m)]
    else:
        tail_starts = [int(t) for t in tail_starts]
        if len(tail_starts) != m or any(t < 0 or t >= n_terms for t in tail_starts):
            raise DomainError("need one valid 0-based tail start per radius")
    graphs = np.stack([rel.matrix for rel in rels])
    n = space.num_points
    li = np.ones((n, n), dtype=bool)
    ls = np.ones((n, n), dtype=bool)
    for r, start in zip(schedule, tail_starts):
        met = _dilate(space, r, graphs[start:])
        li &= met.all(axis=0)
        ls &= met.any(axis=0)
    return BinaryRelation(space, _frozen(li)), BinaryRelation(space, _frozen(ls))

