"""Total preorders, structural property tests, and the convergence metric.

Preferences are stored as dense integer ranks (higher = weakly better),
which makes completeness and transitivity hold by construction. Possibly
intransitive limit relations are plain boolean matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .errors import DomainError
from .spaces import _EPS, OrderedSpace, _frozen, same_space

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
    """An arbitrary relation on a space's points, as a boolean matrix."""

    space: OrderedSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=bool)
        n = self.space.num_points
        if m.shape != (n, n):
            raise DomainError("relation matrix shape must be (n, n)")
        object.__setattr__(self, "matrix", _frozen(m))

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
    (hi,), (lo,) = _envelopes(p.space, radius, p.rank[None, :])
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


def _envelopes(space: OrderedSpace, radius: float, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and min (hi, lo) of each (K, n) rank row over every point's closed `radius`-ball.

    A preference's radius-dilation is exactly {(i, j) : hi[i] >= lo[j]}, and
    that of its strict part {(i, j) : hi[i] > lo[j]}. Balls are `_dilate`'s.
    """
    near = space.distance_matrix <= radius + _EPS
    hi, lo = np.empty_like(ranks), np.empty_like(ranks)
    for k, row in enumerate(ranks):
        order = np.argsort(row, kind="stable")
        ball = near[:, order]  # each ball's members, by ascending rank
        lo[k] = row[order[ball.argmax(axis=1)]]
        hi[k] = row[order[-1 - ball[:, ::-1].argmax(axis=1)]]
    return hi, lo


def _within(hi: np.ndarray, lo: np.ndarray, rank: np.ndarray) -> bool:
    """True iff rank[i] >= rank[j] implies hi[i] >= lo[j]: one prefix maximum of lo over rank classes."""
    top = np.zeros(int(rank.max()) + 1, dtype=lo.dtype)  # lo >= 0
    np.maximum.at(top, rank, lo)
    return bool((hi >= np.maximum.accumulate(top)[rank]).all())


def _least_radius(space: OrderedSpace, covered) -> float:
    """The least value in `space.distance_values` where `covered(radius)` holds, by bisection; the last always does."""
    radii = space.distance_values
    lo, hi = 0, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if covered(radii[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(radii[lo])


_GRAPH_CHUNK = 2048  # graphs per `_dilate` product in `_graph_diameter`: bounds its working memory


def _graph_diameter(space: OrderedSpace, stack: np.ndarray, as_graphs: bool = False) -> float:
    """Largest Hausdorff distance between two graphs of a (K, n, n) boolean stack or (K, n) rank rows.

    Two graphs are within r of each other when each lies in the other's
    r-dilation, so the largest pairwise distance is the least radius at
    which every graph's dilation covers the union of the stack. Distances
    take only the values in `space.distance_values`, so a binary search over
    them finds it exactly: the diameter of X always covers. Rank rows test
    coverage on their envelopes in O(K n^2), one Python pass per row; rank
    rows `as_graphs` are tested as a boolean stack is, by `_dilate`'s O(n^3)
    product. The exact diameter passes its rows so: it measures up to
    hundreds of thousands of candidates, on at most 8 points. Graphs are
    built and dilated `_GRAPH_CHUNK` at a time, so the working memory does
    not grow with K.
    """
    if stack.ndim == 3 or as_graphs:
        build = (lambda rows: rows[:, :, None] >= rows[:, None, :]) if stack.ndim == 2 else (lambda chunk: chunk)
        chunks = [stack[start:start + _GRAPH_CHUNK] for start in range(0, len(stack), _GRAPH_CHUNK)]
        union = reduce(np.logical_or, (build(chunk).any(axis=0) for chunk in chunks))
        return _least_radius(space, lambda radius: not any(
            (union & ~_dilate(space, radius, build(chunk))).any() for chunk in chunks))
    union = reduce(np.logical_or, (row[:, None] >= row[None, :] for row in stack))
    return _least_radius(space, lambda radius: not any(
        (union & (hi[:, None] < lo[None, :])).any() for hi, lo in zip(*_envelopes(space, radius, stack))))


def _distance_to(q: Preference):
    """The map p -> closed_convergence_distance(p, q) over Preferences, computing q's envelopes once per radius.

    p lies in q's radius-dilation iff, for every i, hi[i] >= max{lo[j] :
    p.rank[j] <= p.rank[i]} with q's `_envelopes` (`_within`), and the other
    way round; the distance is the least radius at which both hold.
    """
    space = q.space
    target = cache(lambda radius: _envelopes(space, radius, q.rank[None, :]))

    def distance(p: Preference) -> float:
        if not same_space(p.space, space):
            raise DomainError("relations live on different spaces")

        def covered(radius):
            (hi,), (lo,) = target(radius)
            if not _within(hi, lo, p.rank):
                return False
            (hi,), (lo,) = _envelopes(space, radius, p.rank[None, :])
            return _within(hi, lo, q.rank)

        return 0.0 if np.array_equal(p.rank, q.rank) else _least_radius(space, covered)

    return distance


def closed_convergence_distance(p, q) -> float:
    """Hausdorff distance between two relation graphs in X times X.

    The product space carries the max of the two coordinate distances, so
    the distance is one of the space's point distances: the diameter of the
    two-graph set, found by a threshold search. Two Preferences compare on
    rank envelopes (`_distance_to`), so neither graph is built. Other
    relations take the matrix product of `_graph_diameter`.
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
    return _graph_diameter(p.space, stack)


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
    return BinaryRelation(space, li), BinaryRelation(space, ls)

