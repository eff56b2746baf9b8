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
from .spaces import OrderedSpace, _frozen, same_space

__all__ = [
    "UtilityFunction",
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
        object.__setattr__(self, "values", _frozen(vals.copy()))

    def __call__(self, index: int) -> float:
        return float(self.values[index])

    def preference(self) -> Preference:
        return from_utility(self.space, self.values)

    def __eq__(self, other):
        if not isinstance(other, UtilityFunction):
            return NotImplemented
        return same_space(self.space, other.space) and np.array_equal(self.values, other.values)


def _resolve_base(space: OrderedSpace, base: UtilityFunction) -> np.ndarray:
    """The base utility's values at the chain's points. DomainError for a base that is not a UtilityFunction, or is
    one on another space."""
    chain = space.chain
    if not chain:
        raise ConfigurationError("space has no reference chain")
    if not isinstance(base, UtilityFunction):
        raise DomainError(f"the base must be a UtilityFunction on the space, got {type(base).__name__}")
    if not same_space(base.space, space):
        raise DomainError("the base utility lives on another space")
    arr = base.values[list(chain)]
    if not (np.diff(arr) > 0).all():
        raise PreconditionError("base must be strictly increasing along the chain")
    return arr


def certainty_equivalent_utility(p: Preference, base: UtilityFunction) -> UtilityFunction:
    """Utility of x = base value of the least chain element weakly above x.

    `base` is a UtilityFunction on p's space, read at the chain's points,
    where it must increase strictly.
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


def chain_step_bound(space: OrderedSpace, base: UtilityFunction) -> float:
    """Largest base gap between consecutive chain elements.

    `base` is a UtilityFunction on the space, as in `certainty_equivalent_utility`.

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

