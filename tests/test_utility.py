"""Tests for chain-anchored utility representations."""


import numpy as np
import pytest

from prefid import (
    ConfigurationError,
    DomainError,
    PreconditionError,
    from_utility,
    make_grid_euclidean,
)
from prefid.utility import (
    UtilityFunction,
    certainty_equivalent_utility,
    chain_step_bound,
    max_norm_distance,
    ordinal_equivalent,
)


class TestUtilityFunction:
    def test_call_and_values(self, grid3):
        u = UtilityFunction(grid3, np.arange(9.0))
        assert u(4) == 4.0
        assert u.values.flags.writeable is False

    def test_preference_roundtrip(self, grid3):
        vals = grid3.points.sum(axis=1)
        u = UtilityFunction(grid3, vals)
        assert u.preference() == from_utility(grid3, vals)

    def test_wrong_shape_rejected(self, grid3):
        with pytest.raises(DomainError):
            UtilityFunction(grid3, np.arange(4.0))

    def test_non_finite_rejected(self, grid3):
        vals = np.arange(9.0)
        vals[3] = np.nan
        with pytest.raises(DomainError):
            UtilityFunction(grid3, vals)

    def test_equality(self, grid3):
        a = UtilityFunction(grid3, np.arange(9.0))
        b = UtilityFunction(grid3, np.arange(9.0))
        c = UtilityFunction(grid3, np.arange(9.0) * 2)
        assert a == b
        assert a != c


def chain_utility(space, chain_values):
    """A utility on the space with the given values at its chain's points and 0 elsewhere."""
    values = np.zeros(space.num_points)
    values[list(space.chain)] = chain_values
    return UtilityFunction(space, values)


class TestChainBase:
    def test_no_chain_rejected(self, line5):
        # point-cloud spaces carry no reference chain
        with pytest.raises(ConfigurationError):
            chain_step_bound(line5, UtilityFunction(line5, np.arange(5.0)))

    def test_step_bound_is_max_gap(self, grid3):
        assert chain_step_bound(grid3, chain_utility(grid3, [0.0, 0.5, 1.0])) == 0.5
        assert chain_step_bound(grid3, chain_utility(grid3, [0.0, 0.1, 1.0])) == 0.9

    def test_base_must_increase(self, grid3):
        with pytest.raises(PreconditionError):
            chain_step_bound(grid3, chain_utility(grid3, [0.0, 0.5, 0.5]))

    def test_base_that_is_not_a_utility_is_refused(self, grid3):
        p = from_utility(grid3, grid3.points.sum(axis=1))
        with pytest.raises(DomainError, match="got list"):
            chain_step_bound(grid3, [0.0, 0.5, 1.0])
        with pytest.raises(DomainError, match="got ndarray"):
            certainty_equivalent_utility(p, np.array([0.0, 0.5, 1.0]))

    def test_base_utility_is_read_at_the_chain_of_its_own_space(self, grid3):
        # the chain points (0,0), (.5,.5), (1,1) have sums 0, 1, 2
        assert chain_step_bound(grid3, UtilityFunction(grid3, grid3.points.sum(axis=1))) == 1.0
        grid4 = make_grid_euclidean(2, 4, (0.0, 1.0))
        u = UtilityFunction(grid4, grid4.points.sum(axis=1))
        p = from_utility(grid3, grid3.points.sum(axis=1))
        with pytest.raises(DomainError, match="another space"):
            certainty_equivalent_utility(p, u)
        with pytest.raises(DomainError, match="another space"):
            chain_step_bound(grid3, u)


class TestCertaintyEquivalent:
    def test_hand_computed_selection(self, grid3):
        # ranks of the sum utility along the chain are 0, 2, 4; every other
        # point selects the first chain rank at or above its own
        p = from_utility(grid3, grid3.points.sum(axis=1))
        u = certainty_equivalent_utility(p, chain_utility(grid3, [0.0, 0.5, 1.0]))
        np.testing.assert_allclose(
            u.values, [0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 0.5, 1.0, 1.0]
        )

    def test_exact_on_chain_points(self, grid3):
        p = from_utility(grid3, grid3.points.sum(axis=1))
        base = chain_utility(grid3, [0.0, 0.5, 1.0])
        u = certainty_equivalent_utility(p, base)
        for idx in grid3.chain:
            assert u(idx) == base(idx)

    def test_within_one_chain_step_of_generator(self, grid3):
        # the generator itself, then perturbations of it that reorder points
        vals = grid3.points.sum(axis=1)
        u_star = UtilityFunction(grid3, vals)
        for bump in (0.0, 0.01, 0.4, 2.0):
            p = from_utility(grid3, vals + bump * grid3.points[:, 0] ** 2)
            u = certainty_equivalent_utility(p, u_star)
            assert max_norm_distance(u, u_star) <= chain_step_bound(grid3, u_star) + 1e-12

    def test_full_chain_space_is_exact(self):
        # on a 1-dimensional grid every point lies on the chain
        g = make_grid_euclidean(1, 9, (0.0, 1.0))
        vals = np.sqrt(g.points[:, 0] + 0.1)
        u_star = UtilityFunction(g, vals)
        u = certainty_equivalent_utility(from_utility(g, vals), u_star)
        assert max_norm_distance(u, u_star) == 0.0

    def test_requires_strict_monotonicity(self, grid3):
        flat = from_utility(grid3, np.minimum(grid3.points.sum(axis=1), 1.0))
        with pytest.raises(PreconditionError):
            certainty_equivalent_utility(flat, chain_utility(grid3, [0.0, 0.5, 1.0]))

    def test_requires_weak_monotonicity(self, grid3):
        down = from_utility(grid3, -grid3.points.sum(axis=1))
        with pytest.raises(PreconditionError):
            certainty_equivalent_utility(down, chain_utility(grid3, [0.0, 0.5, 1.0]))

    def test_requires_chain(self, chain6):
        p = from_utility(chain6, chain6.points[:, 0])
        with pytest.raises(ConfigurationError):
            certainty_equivalent_utility(p, UtilityFunction(chain6, chain6.points[:, 0]))


class TestOrdinalEquivalence:
    def test_increasing_transform(self, grid3):
        vals = grid3.points.sum(axis=1)
        u = UtilityFunction(grid3, vals)
        v = UtilityFunction(grid3, 2.0 * vals + 3.0)
        assert ordinal_equivalent(u, v)

    def test_reversal_is_not_equivalent(self, grid3):
        vals = grid3.points.sum(axis=1)
        assert not ordinal_equivalent(
            UtilityFunction(grid3, vals), UtilityFunction(grid3, -vals)
        )

    def test_different_spaces_rejected(self, grid3, line5):
        u = UtilityFunction(grid3, np.arange(9.0))
        v = UtilityFunction(line5, np.arange(5.0))
        with pytest.raises(DomainError):
            ordinal_equivalent(u, v)


class TestMaxNorm:
    def test_full_space(self, grid3):
        u = UtilityFunction(grid3, np.arange(9.0))
        v = UtilityFunction(grid3, np.arange(9.0) + np.linspace(0.0, 0.8, 9))
        assert abs(max_norm_distance(u, v) - 0.8) < 1e-12

    def test_different_spaces_rejected(self, grid3, line5):
        with pytest.raises(DomainError):
            max_norm_distance(UtilityFunction(grid3, np.arange(9.0)), UtilityFunction(line5, np.arange(5.0)))

