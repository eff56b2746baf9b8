"""Experiment sequences and choice-data generation.

An experiment is an enumeration of all unordered pairs from a designated
subset of alternatives. Choice data is generated from a preference either
with exact optimal sets (strong observability) or one reported maximal
element per pair (weak observability).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .preferences import Preference
from .spaces import DenseSubset, OrderedSpace, dense_subset

__all__ = [
    "ExperimentSequence",
    "ChoiceSequence",
    "enumerate_pairs",
    "generate_choices",
    "restrict",
    "choices_to_csv",
    "choices_from_csv",
]

STRONG = "strong"
WEAK = "weak"


@dataclass(frozen=True)
class ExperimentSequence:
    """An ordered list of binary menus over a subset B of the space."""

    space: OrderedSpace
    B: DenseSubset
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ChoiceSequence:
    """Observed choices, one nonempty subset of each pair, plus the mode tag."""

    experiment: ExperimentSequence
    choices: tuple[tuple[int, ...], ...]
    mode: str

    def __len__(self) -> int:
        return len(self.choices)


def _diagonal_pairs(m: int) -> list[tuple[int, int]]:
    # positions (i, j), i < j, ordered by anti-diagonal then row
    out = []
    for s in range(1, 2 * m - 2):
        i_lo = max(0, s - m + 1)
        i_hi = (s - 1) // 2
        for i in range(i_lo, i_hi + 1):
            out.append((i, s - i))
    return out


def enumerate_pairs(B: DenseSubset, schedule: str = "diagonal", seed: int | None = None) -> ExperimentSequence:
    """All unordered B-pairs, in diagonal or seed-shuffled diagonal order.

    The diagonal order walks the index square by anti-diagonals, so early
    pairs stay among early members and every pair appears exactly once.
    """
    members = B.members
    if len(members) < 2:
        raise DomainError("need at least 2 members to form pairs")
    positions = _diagonal_pairs(len(members))
    if schedule == "shuffled":
        if seed is None:
            raise ConfigurationError("shuffled schedule needs a seed")
        rng = np.random.default_rng(seed)
        positions = [positions[i] for i in rng.permutation(len(positions))]
    elif schedule != "diagonal":
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    pairs = tuple((members[i], members[j]) for i, j in positions)
    return ExperimentSequence(B.space, B, pairs)


def generate_choices(
    p: Preference,
    e: ExperimentSequence,
    mode: str = STRONG,
    tie_policy: str = "both",
    seed: int | None = None,
) -> ChoiceSequence:
    """Choice data for every pair of the experiment.

    Strong mode records the full optimal set of each pair. Weak mode
    records one maximal element, picked by tie_policy: "first" keeps the
    pair's earlier element, "random" draws with the given seed.
    """
    if mode not in (STRONG, WEAK):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == WEAK and tie_policy == "both":
        raise ConfigurationError("weak mode reports a single element; tie_policy 'both' is invalid")
    if tie_policy not in ("both", "first", "random"):
        raise ConfigurationError(f"unknown tie_policy {tie_policy!r}")
    rng = np.random.default_rng(seed) if tie_policy == "random" else None
    choices = []
    for x, y in e.pairs:
        optimal = p.optimal_of((x, y))
        if mode == STRONG:
            choices.append(tuple(optimal))
        elif len(optimal) == 1 or tie_policy == "first":
            choices.append((optimal[0],))
        else:
            choices.append((optimal[int(rng.integers(len(optimal)))],))
    return ChoiceSequence(e, tuple(choices), mode)


def restrict(e: ExperimentSequence, c: ChoiceSequence, k: int) -> tuple[ExperimentSequence, ChoiceSequence]:
    """Prefix of the first k pairs and their choices."""
    if k < 1:
        raise DomainError("prefix order must be at least 1")
    if k > len(e.pairs) or k > len(c.choices):
        raise DomainError(f"prefix order {k} exceeds sequence length {len(e.pairs)}")
    e_k = ExperimentSequence(e.space, e.B, e.pairs[:k])
    c_k = ChoiceSequence(e_k, c.choices[:k], c.mode)
    return e_k, c_k


def choices_to_csv(c: ChoiceSequence) -> str:
    """Interchange CSV with columns (k, x_index, y_index, chose_x, chose_y)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "x_index", "y_index", "chose_x", "chose_y"])
    for k, ((x, y), chosen) in enumerate(zip(c.experiment.pairs, c.choices), start=1):
        writer.writerow([k, x, y, int(x in chosen), int(y in chosen)])
    return buf.getvalue()


_CSV_COLUMNS = ("k", "x_index", "y_index", "chose_x", "chose_y")


def _int_row(row: dict, line: int) -> tuple[int, ...]:
    try:
        return tuple(int(row[name]) for name in _CSV_COLUMNS)
    except (TypeError, ValueError):
        raise DomainError(f"choice CSV line {line} needs an integer in every column") from None


def choices_from_csv(text: str, space: OrderedSpace, mode: str) -> tuple[ExperimentSequence, ChoiceSequence]:
    """Rebuild an experiment and its choices from interchange CSV.

    The subset B is taken to be the set of point indices that appear. Rows
    must be complete: every pair needs at least one chosen element.
    """
    if mode not in (STRONG, WEAK):
        raise ConfigurationError(f"unknown mode {mode!r}")
    reader = csv.DictReader(io.StringIO(text))
    required = set(_CSV_COLUMNS)
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise DomainError(f"choice CSV needs columns {sorted(required)}")
    rows = sorted((_int_row(row, reader.line_num) for row in reader), key=lambda row: row[0])
    pairs, choices, seen = [], [], set()
    for k, x, y, chose_x, chose_y in rows:
        if not (0 <= x < space.num_points and 0 <= y < space.num_points) or x == y:
            raise DomainError(f"bad pair ({x}, {y}) at k={k}")
        chosen = tuple(p for p, flag in ((x, chose_x), (y, chose_y)) if flag)
        if not chosen:
            raise DomainError(f"empty choice at k={k}")
        pairs.append((x, y))
        choices.append(chosen)
        seen.update((x, y))
    if not pairs:
        raise DomainError("empty choice CSV")
    B = dense_subset(space, members=sorted(seen))
    e = ExperimentSequence(space, B, tuple(pairs))
    return e, ChoiceSequence(e, tuple(choices), mode)
