"""Utility representations anchored to a space's reference chain.

The central construction maps each alternative to the least chain element
weakly preferred to it and reads the utility off a base function on the
chain. That selection is what makes utilities of nearby preferences stay
near each other; arbitrary representations do not (see the gallery).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError
from .preferences import Preference, from_utility, is_strictly_monotone, is_weakly_monotone
from .spaces import OrderedSpace, same_space

__all__ = [
    "UtilityFunction",
    "chain_base",
    "certainty_equivalent_utility",
    "chain_step_bound",
    "ordinal_equivalent",
    "max_norm_distance",
]


@dataclass(frozen=True, eq=False)
class UtilityFunction:
    """A total assignment of real values to a space's points."""

    space: OrderedSpace
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.space.num_points,):
            raise DomainError("values must cover every point exactly once")
        if not np.isfinite(vals).all():
            raise DomainError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, index: int) -> float:
        return float(self.values[index])

    def preference(self) -> Preference:
        return from_utility(self.space, self.values)

    def __eq__(self, other):
        if not isinstance(other, UtilityFunction):
            return NotImplemented
        return same_space(self.space, other.space) and np.array_equal(self.values, other.values)


def _resolve_base(space: OrderedSpace, base) -> np.ndarray:
    """Base values along the chain: an array with one value per chain element, or a UtilityFunction on the
    space read at the chain's points. DomainError for a wrong length or a utility on another space."""
    chain = space.chain
    if not chain:
        raise ConfigurationError("space has no reference chain")
    if isinstance(base, UtilityFunction):
        if not same_space(base.space, space):
            raise DomainError("the base utility lives on another space")
        arr = base.values[list(chain)]
    else:
        arr = np.asarray(base, dtype=float)
        if arr.shape != (len(chain),):
            raise DomainError("base array must have one value per chain element")
    if not (np.diff(arr) > 0).all():
        raise PreconditionError("base must be strictly increasing along the chain")
    return arr


def chain_base(space: OrderedSpace) -> np.ndarray:
    """Default base: arc position along the chain, 0 at the bottom to 1 at the top."""
    if not space.chain:
        raise ConfigurationError("space has no reference chain")
    m = len(space.chain)
    return np.linspace(0.0, 1.0, m)


def certainty_equivalent_utility(p: Preference, base) -> UtilityFunction:
    """Utility of x = base value of the least chain element weakly above x.

    `base` is an array of base values, one per chain element and strictly
    increasing, or a UtilityFunction on p's space read at the chain's points.
    Requires a weakly and strictly monotone preference so every point is
    bracketed by the chain and chain ranks increase strictly. The result
    represents a preference within one chain step of p, exactly on points
    whose indifference class meets the chain.
    """
    space = p.space
    base_vals = _resolve_base(space, base)
    if not is_weakly_monotone(p) or not is_strictly_monotone(p):
        raise PreconditionError("preference must be weakly and strictly monotone")
    chain = np.asarray(space.chain, dtype=int)
    chain_ranks = p.rank[chain]
    # strict monotonicity makes these strictly increasing; bracketing holds
    # because the chain top dominates the space and the bottom is dominated
    positions = np.searchsorted(chain_ranks, p.rank, side="left")
    values = base_vals[positions]
    return UtilityFunction(space, values)


def chain_step_bound(space: OrderedSpace, base) -> float:
    """Largest base gap between consecutive chain elements.

    `base` takes the same two forms as in `certainty_equivalent_utility`:
    an increasing array along the chain, or a UtilityFunction on the space.

    This is the per-instance error radius of the chain selection: matching
    preferences yield utilities within this bound of the base's extension.
    """
    base_vals = _resolve_base(space, base)
    return float(np.diff(base_vals).max())


def ordinal_equivalent(u: UtilityFunction, v: UtilityFunction) -> bool:
    """True iff some strictly increasing transform carries u onto v.

    On a finite space that is exactly agreement of the induced preferences.
    """
    if not same_space(u.space, v.space):
        raise DomainError("utilities live on different spaces")
    return u.preference() == v.preference()


def max_norm_distance(u: UtilityFunction, v: UtilityFunction) -> float:
    """Max of |u - v| over every point of the space the two utilities share."""
    if not same_space(u.space, v.space):
        raise DomainError("utilities live on different spaces")
    return float(np.abs(u.values - v.values).max())

