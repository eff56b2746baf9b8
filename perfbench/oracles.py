"""Naive reference computations for the benchmark's output gate.

Everything here is written from the definitions with plain loops or direct
min/max formulas, and imports nothing from prefid, so a defect in the
library's fast paths cannot also appear in its reference.
"""

from __future__ import annotations

import itertools

import numpy as np

STRONG = "strong"


def total_preorders(n: int) -> np.ndarray:
    """Every total preorder on n points as dense rank rows (higher = better)."""
    rows = [row for row in itertools.product(range(n), repeat=n) if set(row) == set(range(max(row) + 1))]
    return np.array(rows, dtype=np.int64)


def revealed_edges(pairs, choices, mode: str) -> list[tuple[int, int, bool]]:
    """(x, y, strict) for every comparison the data reveals: x at least y."""
    edges = []
    for (x, y), chosen in zip(pairs, choices):
        chosen = set(chosen)
        if mode == STRONG and len(chosen) == 1:
            (z,) = chosen
            edges.append((z, x + y - z, True))
        elif mode == STRONG:
            edges += [(x, y, False), (y, x, False)]
        else:
            for z in chosen:
                edges.append((z, x + y - z, False))
    return edges


def replays(values, pairs, choices, mode: str) -> bool:
    """Does the utility (or rank) vector reproduce every observed choice?

    Strong mode asks for the chosen set to equal the optimal set of the
    pair, weak mode for every chosen element to be optimal.
    """
    for (x, y), chosen in zip(pairs, choices):
        best = max(values[x], values[y])
        optimal = {z for z in (x, y) if values[z] == best}
        if mode == STRONG and set(chosen) != optimal:
            return False
        if mode != STRONG and not set(chosen) <= optimal:
            return False
    return True


def replay_mask(ranks: np.ndarray, pairs, choices, mode: str) -> np.ndarray:
    """Which rank rows reproduce the data: `replays` applied to every row at once."""
    ok = np.ones(len(ranks), dtype=bool)
    for (x, y), chosen in zip(pairs, choices):
        best = np.maximum(ranks[:, x], ranks[:, y])
        for z in (x, y):
            optimal = ranks[:, z] == best
            if z in chosen:
                ok &= optimal
            elif mode == STRONG:
                ok &= ~optimal
    return ok


def weakly_monotone(rank, weak_order: np.ndarray) -> bool:
    """Every pair ordered by the space is weakly preferred in that direction."""
    ii, jj = np.nonzero(weak_order)
    rank = np.asarray(rank)
    return bool((rank[ii] >= rank[jj]).all())


def dense(values) -> list[int]:
    """Dense ranks from 0 with ties kept."""
    levels = sorted(set(values))
    return [levels.index(v) for v in values]


def canonical_ranks(n: int, edges) -> list[int]:
    """Lowest ranks respecting the edges: the longest strict-weighted path down.

    Only defined for consistent data, where no cycle crosses a strict edge.
    """
    height = [0] * n
    changed = True
    while changed:
        changed = False
        for x, y, strict in edges:
            if height[y] + strict > height[x]:
                height[x] = height[y] + strict
                changed = True
    return dense(height)


def is_witness(cycle, edges) -> bool:
    """A closed walk (first point repeated at the end) of revealed edges
    whose first step is strict."""
    arcs = {}
    for x, y, strict in edges:
        arcs[(x, y)] = arcs.get((x, y), False) or strict
    steps = list(zip(cycle, cycle[1:]))
    return (len(cycle) >= 3 and cycle[0] == cycle[-1] and arcs.get(steps[0]) is True
            and all(step in arcs for step in steps))


def set_diameter(distance: np.ndarray, ranks: np.ndarray) -> float:
    """Largest closed-convergence distance between two preferences of a set.

    The distance of pairs (i, j) and (k, l) is max(d(i, k), d(j, l)); the
    diameter is the largest distance from a pair of one graph to the
    nearest pair of another, over every ordered pair of graphs.
    """
    if len(ranks) <= 1:
        return 0.0
    n = distance.shape[0]
    pair_dist = np.maximum(distance[:, None, :, None], distance[None, :, None, :]).reshape(n * n, n * n)
    graphs = (ranks[:, :, None] >= ranks[:, None, :]).reshape(len(ranks), n * n)
    union = graphs.any(axis=0)
    best = 0.0
    for start in range(0, len(graphs), 256):
        block = graphs[start:start + 256]
        nearest = np.where(block[:, None, :], pair_dist[None, :, :], np.inf).min(axis=2)
        best = max(best, float(nearest[:, union].max()))
    return best
