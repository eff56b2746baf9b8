"""Exact outputs of the two parametric fits, pinned bit for bit.

`tests/golden/fits.json` holds, for each case below, the status, the
fitted vector and the margin as the fits returned them before their
linear programs were shared. The vectors are compared with
np.array_equal, so any change in the program handed to the solver (row
order, signs, bounds, phases) shows up here.

Regenerate the file only on purpose:
    PYTHONPATH=src python tests/test_fit_golden.py > tests/golden/fits.json
"""

import json
import pathlib

import numpy as np
import pytest

from prefid import dense_subset, enumerate_pairs, from_utility, generate_choices
from prefid import make_grid_euclidean, make_lottery_simplex
from prefid.experiments import ChoiceSequence, ExperimentSequence
from prefid.rationalize import eu_rationalize, lipschitz_rationalize

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fits.json"


def _rows(space, rows, mode):
    members = sorted({i for x, y, _ in rows for i in (x, y)}) or [0]
    e = ExperimentSequence(space, dense_subset(space, members=members), tuple((x, y) for x, y, _ in rows))
    return e, ChoiceSequence(e, tuple(tuple(ch) for _, _, ch in rows), mode)


def _generated(space, values, mode, members=None, tie_policy="both", seed=0):
    e = enumerate_pairs(dense_subset(space, members=members))
    return e, generate_choices(from_utility(space, values), e, mode=mode, tie_policy=tie_policy, seed=seed)


def _lottery(num_prizes, res, index, mode, **kw):
    s = make_lottery_simplex(num_prizes, res)
    return _generated(s, s.points @ np.asarray(index, dtype=float), mode, **kw)


def _corner(s, prize):
    return int(np.flatnonzero(np.isclose(s.points[:, prize], 1.0))[0])


def _eu_cycle():
    s = make_lottery_simplex(3, 4)
    a, b, c = (_corner(s, p) for p in range(3))
    return _rows(s, [(a, b, (a,)), (b, c, (b,)), (c, a, (c,))], "strong")


def _grid(dims, res, values_of, mode, **kw):
    g = make_grid_euclidean(dims, res, (0.0, 1.0))
    return _generated(g, values_of(g.points), mode, **kw)


EU_CASES = {
    "strict_3x4": lambda: _lottery(3, 4, [0.8, -0.2, -0.6], "strong"),
    "ties_and_strict_3x4": lambda: _lottery(3, 4, [1.0, 0.0, -1.0], "strong"),
    "weak_only_3x4": lambda: _lottery(3, 4, [0.8, -0.2, -0.6], "weak", tie_policy="random", seed=3),
    "weak_ties_3x5": lambda: _lottery(3, 5, [1.0, 0.0, -1.0], "weak", tie_policy="first"),
    "all_ties_3x4": lambda: _lottery(3, 4, [0.0, 0.0, 0.0], "strong"),
    "partial_4x3": lambda: _lottery(4, 3, [0.5, 0.3, -0.1, -0.7], "strong", members=[0, 4, 9, 13, 17]),
    "two_pairs_3x4": lambda: _rows(make_lottery_simplex(3, 4), [(0, 14, (0,)), (2, 9, (2,))], "strong"),
    "empty_3x4": lambda: _rows(make_lottery_simplex(3, 4), [], "strong"),
    "infeasible_cycle_3x4": _eu_cycle,
}

LIPSCHITZ_CASES = {
    "weak_1d": (lambda: _rows(make_grid_euclidean(1, 4, (0.0, 1.0)), [(0, 3, (3,))], "weak"), 1.0, 2.0),
    "strict_1d": (lambda: _rows(make_grid_euclidean(1, 4, (0.0, 1.0)),
                                [(0, 3, (3,)), (1, 2, (2,))], "strong"), 1.0, 2.0),
    "tie_1d": (lambda: _rows(make_grid_euclidean(1, 4, (0.0, 1.0)), [(0, 3, (0, 3))], "strong"), 1.0, 2.0),
    "empty_1d": (lambda: _rows(make_grid_euclidean(1, 5, (0.0, 1.0)), [], "strong"), 0.5, 3.0),
    "empty_2d": (lambda: _rows(make_grid_euclidean(2, 3, (0.0, 1.0)), [], "weak"), 1.0, 2.0),
    "infeasible_1d": (lambda: _rows(make_grid_euclidean(1, 4, (0.0, 1.0)), [(0, 3, (0,))], "strong"), 1.0, 2.0),
    "sum_strong_2d": (lambda: _grid(2, 3, lambda p: p.sum(axis=1), "strong"), 0.5, 2.0),
    "sum_weak_2d": (lambda: _grid(2, 3, lambda p: p.sum(axis=1), "weak", tie_policy="first"), 0.5, 2.0),
    "tilted_strong_2d": (lambda: _grid(2, 4, lambda p: p[:, 0] + 0.6 * p[:, 1], "strong", members=[0, 5, 6, 10, 15]),
                         0.5, 1.5),
    "band_infeasible_2d": (lambda: _grid(2, 3, lambda p: p[:, 0] - p[:, 1], "strong"), 1.0, 2.0),
}


def _encode(result, vector):
    return {
        "status": result.status,
        "vector": None if vector is None else [float(v).hex() for v in vector],
        "margin": float(result.margin).hex(),
    }


def _fit(kind, name):
    if kind == "eu":
        result = eu_rationalize(*EU_CASES[name]())
        return _encode(result, result.index)
    build, a, b = LIPSCHITZ_CASES[name]
    result = lipschitz_rationalize(*build(), a, b)
    return _encode(result, result.values)


CASES = [("eu", name) for name in EU_CASES] + [("lipschitz", name) for name in LIPSCHITZ_CASES]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind, name", CASES)
def test_fit_matches_golden(golden, kind, name):
    want = golden[f"{kind}/{name}"]
    got = _fit(kind, name)
    assert got["status"] == want["status"]
    assert float.fromhex(got["margin"]) == float.fromhex(want["margin"])
    if want["vector"] is None:
        assert got["vector"] is None
    else:
        expected = np.array([float.fromhex(v) for v in want["vector"]])
        assert np.array_equal(np.array([float.fromhex(v) for v in got["vector"]]), expected)


def test_golden_covers_every_status(golden):
    statuses = {(key.split("/")[0], doc["status"]) for key, doc in golden.items()}
    for kind in ("eu", "lipschitz"):
        assert {(kind, "feasible"), (kind, "degenerate"), (kind, "infeasible")} <= statuses


if __name__ == "__main__":
    print(json.dumps({f"{kind}/{name}": _fit(kind, name) for kind, name in CASES}, indent=1))
