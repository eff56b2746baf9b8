"""Exact diameters on small spaces, pinned case by case.

`tests/golden/exact_diameter.json` holds, for each seeded case below, the
(value, method, num_candidates) that `diameter_estimate` returned with
policy class "all", or the exact message of the PreconditionError it
raised, witness cycle included. It was recorded while every call still
enumerated the total preorders afresh, before they came from one table
per space size. The cases cover 1-D and 2-D spaces of 3 to 8 points,
strong and weak data generated by a preorder, strong data with random
choices (a third of it inconsistent), and the 8-point chain with one
pair, whose 249,271 candidates are the most any case here measures.

Regenerate the file only on purpose:
    PYTHONPATH=src python tests/test_exact_diameter_golden.py > tests/golden/exact_diameter.json
"""

import json
import pathlib

import numpy as np
import pytest

from prefid import PreconditionError, dense_subset, from_points
from prefid.experiments import ChoiceSequence, ExperimentSequence
from prefid.rationalize import diameter_estimate

GOLDEN = pathlib.Path(__file__).parent / "golden" / "exact_diameter.json"
NUM_CASES = 200
KINDS = ("strong", "weak", "random")
CHAIN8 = "chain8"


def _case(seed: int):
    """Seeded data on a space of 3 to 8 distinct points: a preorder's choices, or random strong ones."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % 6
    kind = KINDS[(seed // 6) % 3]
    if (seed // 18) % 2:
        cells = rng.choice(16, n, replace=False)  # distinct points of a 4x4 lattice, so distances tie
        points = np.column_stack([cells // 4, cells % 4]) / 4.0
    else:
        points = rng.choice(np.arange(12) / 8.0, n, replace=False)
    space = from_points(points)
    all_pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    # 8-point spaces keep at least 5 pairs, so few cases measure hundreds of thousands of candidates
    least = 5 if n == 8 else 1
    count = int(rng.integers(least, min(len(all_pairs), 2 * n) + 1))
    rank = rng.integers(0, n, size=n)
    rows = []
    for i in rng.choice(len(all_pairs), count, replace=False):
        x, y = all_pairs[i] if rng.random() < 0.5 else all_pairs[i][::-1]
        if kind == "random":
            chosen = ((x,), (y,), (x, y))[int(rng.integers(3))]
        else:
            best = [z for z in (x, y) if rank[z] == max(rank[x], rank[y])]
            chosen = tuple(best) if kind == "strong" else (best[int(rng.integers(len(best)))],)
        rows.append((x, y, chosen))
    return _data(space, rows, "weak" if kind == "weak" else "strong")


def _data(space, rows, mode):
    pairs = tuple((x, y) for x, y, _ in rows)
    e = ExperimentSequence(space, dense_subset(space, members=sorted({i for p in pairs for i in p})), pairs)
    return e, ChoiceSequence(e, tuple(chosen for _, _, chosen in rows), mode)


def _chain8():
    """The 8-point chain with the one pair (0, 7), 7 chosen."""
    return _data(from_points(np.arange(8.0).reshape(-1, 1)), [(0, 7, (7,))], "strong")


def _measure(key: str) -> dict:
    e, c = _chain8() if key == CHAIN8 else _case(int(key))
    try:
        res = diameter_estimate(e, c, "all")
    except PreconditionError as err:
        return {"error": str(err)}
    return {"value": res.value, "method": res.method, "num_candidates": res.num_candidates}


KEYS = [str(seed) for seed in range(NUM_CASES)] + [CHAIN8]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_exact_diameter_matches_golden(golden, key):
    assert _measure(key) == golden[key]


def test_golden_covers_sizes_and_outcomes(golden):
    assert sorted(golden) == sorted(KEYS)
    outcomes = [next(iter(doc)) for doc in golden.values()]
    assert outcomes.count("value") >= 100 and outcomes.count("error") >= 20
    assert {doc["method"] for doc in golden.values() if "method" in doc} == {"exact"}
    assert golden[CHAIN8] == {"value": 3.0, "method": "exact", "num_candidates": 249271}
    sizes = {_case(seed)[0].space.num_points for seed in range(NUM_CASES)}
    assert sizes == set(range(3, 9))


if __name__ == "__main__":
    print("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(_measure(key))}" for key in KEYS) + "\n}")
