"""Shared fixtures and independent oracles.

The oracles here are deliberately naive (pure Python loops, quadratic or
worse) so they cannot share bugs with the vectorized library paths.
"""

import os
import sys

# One BLAS thread. OpenBLAS reads the variable once, when NumPy loads, and no plugin loads NumPy before this file.
# Every product in the library sums 0/1 terms, so no result can move; a 144-point product that takes 0.1-0.2 ms
# on one thread took 32-34 ms on two threads while another process kept the second CPU busy.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from prefid import (DomainError, Preference, closed_convergence_distance, dense_subset, from_points,
                    make_grid_euclidean, sample_extension)
from prefid.experiments import ChoiceSequence, ExperimentSequence


def brute_graph_distance(space, rel_a, rel_b) -> float:
    """Hausdorff distance between two relation graphs, by exhaustive loops."""
    D = space.distance_matrix
    n = space.num_points
    ga = rel_a.graph if isinstance(rel_a, Preference) else rel_a.matrix
    gb = rel_b.graph if isinstance(rel_b, Preference) else rel_b.matrix
    pairs_a = [(i, j) for i in range(n) for j in range(n) if ga[i, j]]
    pairs_b = [(i, j) for i in range(n) for j in range(n) if gb[i, j]]

    def pair_dist(p, q):
        return max(D[p[0], q[0]], D[p[1], q[1]])

    ahead = max(min(pair_dist(a, b) for b in pairs_b) for a in pairs_a)
    back = max(min(pair_dist(b, a) for a in pairs_a) for b in pairs_b)
    return float(max(ahead, back))


def brute_dilation(space, graph, radius, tol=1e-12) -> np.ndarray:
    """Pairs within `radius` of some pair of a boolean graph, by exhaustive loops.

    The product space carries the max metric, so (i, j) is within radius of
    (k, l) when both D[i, k] and D[j, l] are; balls are closed, up to `tol`.
    """
    D = space.distance_matrix
    n = space.num_points
    pairs = [(k, l) for k in range(n) for l in range(n) if graph[k, l]]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            out[i, j] = any(max(D[i, k], D[j, l]) <= radius + tol for k, l in pairs)
    return out


def dataset(space, rows, mode):
    """Build an experiment and choices from (x, y, chosen-tuple) rows."""
    members = sorted({i for x, y, _ in rows for i in (x, y)})
    B = dense_subset(space, members=members)
    e = ExperimentSequence(space, B, tuple((x, y) for x, y, _ in rows))
    c = ChoiceSequence(e, tuple(tuple(ch) for _, _, ch in rows), mode)
    return e, c


@pytest.fixture
def line5():
    # uneven gaps so distances are informative
    return from_points(np.array([0.0, 0.1, 0.3, 0.7, 1.5]).reshape(-1, 1))


@pytest.fixture
def grid3():
    return make_grid_euclidean(2, 3, (0.0, 1.0))


@pytest.fixture
def chain6():
    return from_points(np.arange(6.0).reshape(-1, 1))


def longest_path_ranks(num_points, edges):
    """Lowest and highest ranks a revealed relation allows, by naive relaxation.

    `edges` holds (x, y, strict): x revealed at least y, a strict edge
    weighing 1 and a weak edge 0. The lowest rank of a point is the heaviest
    path leaving it; its highest rank is the heaviest path anywhere minus
    the heaviest path entering it. Consistent data has no cycle through a
    strict edge, so num_points rounds reach every heaviest path.
    """
    out_of = [0] * num_points
    into = [0] * num_points
    for _ in range(num_points):
        for x, y, strict in edges:
            out_of[x] = max(out_of[x], out_of[y] + int(strict))
            into[y] = max(into[y], into[x] + int(strict))
    return out_of, [max(into) - depth for depth in into]


def naive_diagonal_pairs(m):
    """Positions (i, j), i < j, of an m-member subset, by anti-diagonal then row."""
    out = []
    for s in range(1, 2 * m - 2):
        for i in range(max(0, s - m + 1), (s - 1) // 2 + 1):
            out.append((i, s - i))
    return out


def naive_choices(p, pairs, mode, tie_policy="both", seed=None):
    """Choices pair by pair from the optimal sets: the whole set in strong
    mode, in weak mode its first element or one seeded draw per tie."""
    rng = np.random.default_rng(seed) if tie_policy == "random" else None
    out = []
    for x, y in pairs:
        best = max(p.rank[x], p.rank[y])
        optimal = [z for z in (x, y) if p.rank[z] == best]
        if mode == "strong":
            out.append(tuple(optimal))
        elif len(optimal) == 1 or tie_policy == "first":
            out.append((optimal[0],))
        else:
            out.append((optimal[int(rng.integers(len(optimal)))],))
    return tuple(out)


def fosd_compare(x, y, tol=1e-9):
    """Compare two probability vectors by first-order stochastic dominance.

    Index 0 is the best prize. Returns one of greater | less | equal |
    incomparable; DomainError unless both are probability vectors of one length.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("need two probability vectors of equal length")
    for v in (x, y):
        if (v < -tol).any() or abs(v.sum() - 1.0) > tol:
            raise DomainError("input is not a probability vector")
    cx, cy = np.cumsum(x), np.cumsum(y)
    eps = 1e-12
    ge = bool((cx >= cy - eps).all())
    le = bool((cy >= cx - eps).all())
    if ge and le:
        return "equal"
    if ge:
        return "greater"
    if le:
        return "less"
    return "incomparable"


def full_arc_walk(num, arcs, pick):
    """Components, one at a time, in the order of a ready-queue walk that counts every arc.

    `arcs` holds (u, v): component u at least component v, so u waits until
    v is taken. `ready` starts with the components that wait for nothing,
    ascending; `pick(ready)` gives the position taken next, and a taken
    component releases, in ascending order, the components it was the last
    wait of. The walk is lazy, so a caller may draw between two picks.
    """
    waits = [sum(1 for u, _ in arcs if u == comp) for comp in range(num)]
    above = [sorted(u for u, v in arcs if v == comp) for comp in range(num)]
    ready = [comp for comp in range(num) if waits[comp] == 0]
    while ready:
        comp = ready.pop(pick(ready))
        yield comp
        for waiter in above[comp]:
            waits[waiter] -= 1
            if waits[waiter] == 0:
                ready.append(waiter)


def naive_transitive_reduction(num, arcs):
    """The arcs (u, v) of an acyclic graph that no path of two or more arcs joins, by plain reachability."""
    succ = {comp: {v for u, v in arcs if u == comp} for comp in range(num)}

    def reaches(a, b):
        seen, stack = set(), [a]
        while stack:
            node = stack.pop()
            if node == b:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(succ[node])
        return False

    return {(u, v) for u, v in arcs if not any(reaches(w, v) for w in succ[u] if w != v)}


def per_start_witness(r):
    """The witness cycle of an inconsistent revealed relation, or None: one breadth-first search per strict start.

    Starts at every strict pair (u, v) of `whole_cells` inside one component, walks from v back to u by the
    least next point one hop closer, and keeps the least cycle by (length, cycle).
    """
    cond = r.condensation
    if cond.consistent:
        return None
    adj_lists = [np.flatnonzero(row).tolist() for row in r.arc_matrix]
    rev_lists = [np.flatnonzero(col).tolist() for col in r.arc_matrix.T]
    starts = np.nonzero(r.whole_cells(strict=True) & (cond.labels[:, None] == cond.labels[None, :]))
    cycles = []
    for u, v in zip(*(side.tolist() for side in starts)):
        # shortest forward distance to u, by breadth-first search on reversed arcs
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for node in frontier:
                for p in rev_lists[node]:
                    if p not in dist:
                        dist[p] = dist[node] + 1
                        nxt.append(p)
            frontier = nxt
        # v reaches u inside their component, so the search always finds it
        path = [v]
        cur = v
        while cur != u:
            cur = min(w for w in adj_lists[cur] if dist.get(w) == dist[cur] - 1)
            path.append(cur)
        cycles.append((u, *path))
    return min(cycles, key=lambda cycle: (len(cycle), cycle))


def reference_far_search(r, target, seed, budget):
    """The seeded far search as a plain loop, a lower bound for the far extension: (ranks of the farthest draw,
    budget_exhausted).

    One `sample_extension` draw per trial, its merge probability drawn first. A draw replaces the best only when it
    is strictly farther from the target, and resets the stale counter; any other draw adds one to it. The search
    stops, with the flag False, once the best distance reaches the largest distance of the space or the counter
    reaches max(50, budget // 4); when the budget runs out first, the flag is True.
    """
    rng = np.random.default_rng(seed)
    best, best_d = None, -1.0
    stale = 0
    exhausted = True
    for trial in range(max(1, budget)):
        merge_prob = float(rng.choice([0.0, 0.15, 0.4, 0.7, 0.9]))
        cand = sample_extension(r, rng, merge_prob=merge_prob)
        d = closed_convergence_distance(cand, target)
        if d > best_d:
            best, best_d = cand, d
            stale = 0
        else:
            stale += 1
        if best_d >= float(r.space.distance_values[-1]) - 1e-12:
            exhausted = False
            break
        if stale >= max(50, budget // 4):
            exhausted = False
            break
    return best.rank.tolist(), exhausted


def naive_closures(r):
    """(L, S) of a revealed relation, by one depth-first search per start over (point, crossed a strict edge).

    The edges are every cell of `whole_cells`, strict where the strict cells hold it. L[x, y] when a path runs from
    x to y, x reaching itself by the empty path; S[x, y] when such a path crosses a strict edge.
    """
    n = r.space.num_points
    weak, strict = r.whole_cells(strict=False), r.whole_cells(strict=True)
    succ = [[(y, bool(strict[x, y])) for y in range(n) if weak[x, y]] for x in range(n)]
    closure, strict_closure = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for start in range(n):
        seen, stack = {(start, False)}, [(start, False)]
        while stack:
            node, crossed = stack.pop()
            closure[start, node] = True
            strict_closure[start, node] |= crossed
            for nxt, is_strict in succ[node]:
                state = (nxt, crossed or is_strict)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return closure, strict_closure


def farthest_row_distance(space, rows, target) -> float:
    """The largest Hausdorff distance from the preorders of a (K, n) rank-row array to the target Preference.

    Each pair of points is one of n * n cells, and two cells lie max(D[i, k], D[j, l]) apart. Directed distances
    are a min over one graph's cells and a max over the other's, written out cell by cell in NumPy.
    """
    D = space.distance_matrix
    n = space.num_points
    apart = np.maximum(D[:, None, :, None], D[None, :, None, :]).reshape(n * n, n * n)  # [(i, j), (k, l)]
    graphs = (rows[:, :, None] >= rows[:, None, :]).reshape(len(rows), n * n)
    mine = target.graph.ravel()
    to_target = apart[:, mine].min(axis=1)  # each cell's distance to the target's graph
    ahead = np.where(graphs, to_target, 0.0).max(axis=1)
    back = np.zeros(len(rows))
    for cell in np.flatnonzero(mine):
        back = np.maximum(back, np.where(graphs, apart[cell], np.inf).min(axis=1))
    return float(np.maximum(ahead, back).max())
