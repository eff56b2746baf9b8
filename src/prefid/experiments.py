"""Experiment sequences and choice-data generation.

An experiment is an enumeration of all unordered pairs from a designated
subset of alternatives. Choice data is generated from a preference either
with exact optimal sets (strong observability) or one reported maximal
element per pair (weak observability). A sequence checks its pairs or
choices when built and holds them as read-only (k, 2) arrays, the one form
every reader works on; only this module turns tuples into that form, and
tuple views are derived only when read.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .preferences import Preference
from .spaces import DenseSubset, OrderedSpace, _frozen, dense_subset

__all__ = [
    "STRONG",
    "WEAK",
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


@dataclass(frozen=True, eq=False)
class ExperimentSequence:
    """An ordered list of binary menus over a subset B of the space.

    `pair_array`, given as a (k, 2) array or a sequence of index pairs, is
    checked and held as a read-only (k, 2) int64 array (an int64 array is
    kept, not copied): DomainError unless every pair is two distinct whole
    numbers below the point count. `pairs`, as tuples, is derived on read.
    """

    space: OrderedSpace
    B: DenseSubset
    pair_array: np.ndarray | Sequence = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pair_array", _pair_array(self.pair_array, self.space.num_points))

    def __len__(self) -> int:
        return len(self.pair_array)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.pair_array.T.tolist()))


@dataclass(frozen=True, eq=False)
class ChoiceSequence:
    """Observed choices, one nonempty subset of each pair, plus the mode tag.

    `chose_mask`, a (k, 2) bool array ([i, 0]: pair i's x was chosen,
    [i, 1]: its y) or one tuple of chosen point indices per pair, is checked
    and held as a read-only bool array: ConfigurationError for an unknown
    mode, DomainError for a count unlike the pair count or a choice empty or
    outside its pair. `choices`, the chosen tuples, is derived on first read.
    """

    experiment: ExperimentSequence
    chose_mask: np.ndarray | Sequence = field(repr=False)
    mode: str

    def __post_init__(self):
        if self.mode not in (STRONG, WEAK):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        k, choices, pairs = len(self.experiment), self.chose_mask, self.experiment.pair_array
        if len(choices) != k:
            raise DomainError("experiment and choices have different lengths")
        if isinstance(choices, np.ndarray) and choices.dtype == bool:
            chose = choices
            if chose.shape != (k, 2):
                raise DomainError("a choice mask holds two flags per pair")
            bad = ~(chose[:, 0] | chose[:, 1])
        else:
            sizes = np.fromiter(map(len, choices), dtype=np.int64, count=k)
            chosen = np.fromiter(itertools.chain.from_iterable(choices), dtype=np.int64, count=sizes.sum())
            owner = np.repeat(np.arange(k), sizes)
            hit, side = np.nonzero(chosen[:, None] == pairs[owner])
            chose = np.zeros((k, 2), dtype=bool)
            chose[owner[hit], side] = True
            # a pair's two sides differ, so a choice inside its pair hits once per element
            bad = ~chose.any(axis=1) | (np.bincount(owner[hit], minlength=k) != sizes)
        if bad.any():
            raise DomainError(f"choice at k={bad.argmax() + 1} is empty or not a subset of its pair")
        object.__setattr__(self, "chose_mask", _frozen(chose))

    def __len__(self) -> int:
        return len(self.chose_mask)

    @cached_property
    def choices(self) -> tuple[tuple[int, ...], ...]:
        xs, ys = self.experiment.pair_array.T.tolist()
        chose_x, chose_y = self.chose_mask.T.tolist()
        return tuple([(x, y) if cx and cy else (x,) if cx else (y,)
                      for x, y, cx, cy in zip(xs, ys, chose_x, chose_y)])

    def arrays_over(self, e: ExperimentSequence) -> tuple[np.ndarray, np.ndarray]:
        """e's pair array and this chose_mask; DomainError unless these are choices over e's pairs."""
        if self.experiment is not e and not np.array_equal(self.experiment.pair_array, e.pair_array):
            raise DomainError("the choices were made over another experiment")
        return e.pair_array, self.chose_mask


def _pair_array(pairs, n: int) -> np.ndarray:
    """Pairs as a read-only (k, 2) int64 array; DomainError unless each is two distinct whole numbers below n."""
    try:
        arr = np.asarray(pairs).reshape(len(pairs), 2)
        whole = arr.dtype.kind in "iu" or (arr.dtype.kind == "f" and (arr == np.trunc(arr)).all())
        # numpy reads True beside ints as 1, so a bool in a tuple is looked for in the tuple
        entries = () if isinstance(pairs, np.ndarray) else itertools.chain.from_iterable(pairs)
        if not whole or any(isinstance(v, (bool, np.bool_)) for v in entries):
            raise TypeError
    except (TypeError, ValueError):
        raise DomainError("every pair must be two whole-number point indices") from None
    # whole-array checks first (initial= keeps an empty array valid); the first bad row only on failure
    if arr.min(initial=0) < 0 or arr.max(initial=n - 1) >= n or (arr[:, 0] == arr[:, 1]).any():
        bad = (arr.min(axis=1) < 0) | (arr.max(axis=1) >= n) | (arr[:, 0] == arr[:, 1])
        raise DomainError(f"pair {arr[bad][0].tolist()} at k={bad.argmax() + 1} is not two distinct indices below {n}")
    return _frozen(arr.astype(np.int64, copy=False))


def enumerate_pairs(B: DenseSubset, schedule: str = "diagonal", seed: int | None = None) -> ExperimentSequence:
    """All unordered B-pairs, in diagonal or seed-shuffled diagonal order.

    The diagonal order walks the index square by anti-diagonals, so early
    pairs stay among early members and every pair appears exactly once.
    """
    members = B.members
    if len(members) < 2:
        raise DomainError("need at least 2 members to form pairs")
    # positions (i, j), i < j, ordered by anti-diagonal i + j, then row i
    i, j = np.triu_indices(len(members), 1)
    positions = np.column_stack([i, j])[np.lexsort((i, i + j))]
    if schedule == "shuffled":
        if seed is None:
            raise ConfigurationError("shuffled schedule needs a seed")
        positions = positions[np.random.default_rng(seed).permutation(len(positions))]
    elif schedule != "diagonal":
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    return ExperimentSequence(B.space, B, np.asarray(members, dtype=np.int64)[positions])


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
    if mode == WEAK and tie_policy == "both":
        raise ConfigurationError("weak mode reports a single element; tie_policy 'both' is invalid")
    if tie_policy not in ("both", "first", "random"):
        raise ConfigurationError(f"unknown tie_policy {tie_policy!r}")
    rank = p.rank[e.pair_array]
    chose = rank >= rank[:, ::-1]  # [i, 0]: x is optimal in pair i, [i, 1]: y is
    if mode == WEAK:
        ties = np.flatnonzero(chose.all(axis=1))
        # one draw per tie, in pair order: 0 keeps x, 1 keeps y
        kept = np.random.default_rng(seed).integers(2, size=len(ties)) if tie_policy == "random" else 0
        chose[ties, 1 - kept] = False
    return ChoiceSequence(e, chose, mode)


def restrict(e: ExperimentSequence, c: ChoiceSequence, k: int) -> tuple[ExperimentSequence, ChoiceSequence]:
    """Prefix of the first k pairs and their choices, with views of the full arrays."""
    if not 1 <= k <= min(len(e), len(c)):
        raise DomainError(f"prefix order {k} is not between 1 and the sequence length {len(e)}")
    pairs, chose = c.arrays_over(e)
    e_k = ExperimentSequence(e.space, e.B, pairs[:k])
    return e_k, ChoiceSequence(e_k, chose[:k], c.mode)


_CSV_COLUMNS = ("k", "x_index", "y_index", "chose_x", "chose_y")


def choices_to_csv(c: ChoiceSequence) -> str:
    """Interchange CSV with columns (k, x_index, y_index, chose_x, chose_y)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(np.column_stack([np.arange(1, len(c) + 1), c.experiment.pair_array, c.chose_mask]).tolist())
    return buf.getvalue()


def _int_row(row: dict, line: int) -> tuple[int, ...]:
    try:
        values = tuple(int(row[name]) for name in _CSV_COLUMNS)
    except (TypeError, ValueError):
        raise DomainError(f"choice CSV line {line} needs an integer in every column") from None
    if not set(values[3:]) <= {0, 1}:
        raise DomainError(f"choice CSV line {line} needs chose_x and chose_y to be 0 or 1")
    return values


def choices_from_csv(text: str, space: OrderedSpace, mode: str) -> tuple[ExperimentSequence, ChoiceSequence]:
    """Rebuild an experiment and its choices from interchange CSV, rows in order of k.

    The subset B is taken to be the set of point indices that appear. Both
    sequences are checked as they are built; missing columns, a non-integer
    cell, a chose_x or chose_y flag other than 0 or 1, or no rows raise
    DomainError too.
    """
    reader = csv.DictReader(io.StringIO(text))
    required = set(_CSV_COLUMNS)
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise DomainError(f"choice CSV needs columns {sorted(required)}")
    rows = sorted((_int_row(row, reader.line_num) for row in reader), key=lambda row: row[0])
    if not rows:
        raise DomainError("empty choice CSV")
    index = _pair_array([row[1:3] for row in rows], space.num_points)  # checked before B is built from it
    e = ExperimentSequence(space, dense_subset(space, members=np.unique(index)), index)
    return e, ChoiceSequence(e, np.array([row[3:] for row in rows], dtype=bool), mode)
