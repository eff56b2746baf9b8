"""Exact outputs of the near-indifference construction, pinned case by case.

`tests/golden/indifference.json` holds, for each seeded case below, the
ranks `indifference_construction` returned, or the exact message of the
ResolutionError it raised, as recorded before the construction was
rewritten as array passes. The cases cover 1-D and 2-D grids, strong and
weak data, diagonal and shuffled schedules, and prefixes of 1 to 63 pairs.

Regenerate the file only on purpose:
    PYTHONPATH=src python tests/test_indifference_golden.py > tests/golden/indifference.json
"""

import json
import pathlib

import numpy as np
import pytest

from prefid import ResolutionError, dense_subset, enumerate_pairs, from_utility, generate_choices
from prefid import make_grid_euclidean
from prefid.experiments import restrict
from prefid.rationalize import indifference_construction

GOLDEN = pathlib.Path(__file__).parent / "golden" / "indifference.json"
NUM_CASES = 240


def _case(seed: int):
    """Seeded data: grid, generator with ties, observed points, mode, schedule and prefix length."""
    rng = np.random.default_rng(seed)
    dims = 1 + seed % 2
    res = int(rng.integers(6, 65)) if dims == 1 else int(rng.integers(4, 13))
    space = make_grid_euclidean(dims, res, (0.0, 1.0))
    values = rng.integers(0, 5, space.num_points) if seed % 3 else space.points.sum(axis=1)
    # observed points on a lattice of axis levels `gap` apart; a gap below 3 leaves some too close to isolate
    gap = int(rng.integers(2, min(6, res)))
    offset = seed % min(gap, res - gap)  # so each axis has at least two lattice levels
    on_lattice = (np.array(np.unravel_index(np.arange(space.num_points), (res,) * dims)) % gap == offset).all(axis=0)
    members = np.flatnonzero(on_lattice & (rng.random(space.num_points) < 0.7))
    if len(members) < 2:
        members = np.flatnonzero(on_lattice)[:2]
    mode = ("strong", "weak")[(seed // 2) % 2]
    schedule = ("diagonal", "shuffled")[(seed // 4) % 2]
    e = enumerate_pairs(dense_subset(space, members=members), schedule=schedule, seed=seed)
    c = generate_choices(from_utility(space, values), e, mode, tie_policy="both" if mode == "strong" else "random",
                         seed=seed)
    k = int(rng.integers(1, min(len(e), 63) + 1))
    return restrict(e, c, k)


def _construct(seed: int) -> dict:
    try:
        return {"ranks": indifference_construction(*_case(seed)).rank.tolist()}
    except ResolutionError as err:
        return {"error": str(err)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_construction_matches_golden(golden, seed):
    assert _construct(seed) == golden[str(seed)]


def test_golden_covers_ranks_and_errors(golden):
    outcomes = [next(iter(doc)) for doc in golden.values()]
    assert len(golden) == NUM_CASES
    assert outcomes.count("ranks") >= 50 and outcomes.count("error") >= 50


if __name__ == "__main__":
    print("{\n" + ",\n".join(f"{json.dumps(str(seed))}: {json.dumps(_construct(seed))}"
                            for seed in range(NUM_CASES)) + "\n}")
