"""Tests for experiment enumeration and choice-data generation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_choices, naive_diagonal_pairs
from prefid import (
    ChoiceSequence,
    ConfigurationError,
    DomainError,
    ExperimentSequence,
    choices_from_csv,
    choices_to_csv,
    dense_subset,
    enumerate_pairs,
    from_points,
    from_utility,
    generate_choices,
    generator_values,
    make_grid_euclidean,
    restrict,
)

# hand-walked anti-diagonal orders for 4 and 5 members
DIAG4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
DIAG5 = [
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (0, 4),
    (1, 3),
    (1, 4),
    (2, 3),
    (2, 4),
    (3, 4),
]


class TestEnumeratePairs:
    def test_diagonal_order_four_members(self, line5):
        B = dense_subset(line5, members=[0, 1, 2, 3])
        e = enumerate_pairs(B)
        assert list(e.pairs) == DIAG4

    def test_diagonal_order_five_members(self, line5):
        B = dense_subset(line5)
        e = enumerate_pairs(B)
        assert list(e.pairs) == DIAG5

    def test_pairs_are_exhaustive_and_unique(self, chain6):
        B = dense_subset(chain6)
        e = enumerate_pairs(B)
        seen = {frozenset(p) for p in e.pairs}
        assert len(e.pairs) == 15
        assert len(seen) == 15
        assert all(len(s) == 2 for s in seen)

    def test_early_pairs_stay_among_early_members(self, chain6):
        # the first pairs never touch indices that only join later diagonals
        e = enumerate_pairs(dense_subset(chain6))
        assert all(max(p) <= 2 for p in e.pairs[:2])
        assert all(max(p) <= 4 for p in e.pairs[:6])

    def test_members_are_mapped_through(self, line5):
        B = dense_subset(line5, members=[0, 2, 4])
        e = enumerate_pairs(B)
        assert list(e.pairs) == [(0, 2), (0, 4), (2, 4)]

    def test_stride_subset(self, line5):
        B = dense_subset(line5, stride=2)
        assert B.members == (0, 2, 4)

    def test_shuffled_is_a_permutation(self, chain6):
        B = dense_subset(chain6)
        plain = enumerate_pairs(B)
        shuffled = enumerate_pairs(B, schedule="shuffled", seed=3)
        assert sorted(shuffled.pairs) == sorted(plain.pairs)
        assert shuffled.pairs != plain.pairs

    def test_shuffled_is_deterministic_per_seed(self, chain6):
        B = dense_subset(chain6)
        a = enumerate_pairs(B, schedule="shuffled", seed=11)
        b = enumerate_pairs(B, schedule="shuffled", seed=11)
        c = enumerate_pairs(B, schedule="shuffled", seed=12)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_shuffled_without_seed_rejected(self, chain6):
        with pytest.raises(ConfigurationError):
            enumerate_pairs(dense_subset(chain6), schedule="shuffled")

    def test_unknown_schedule_rejected(self, chain6):
        with pytest.raises(ConfigurationError):
            enumerate_pairs(dense_subset(chain6), schedule="spiral")

    def test_singleton_subset_rejected(self, line5):
        with pytest.raises(DomainError):
            enumerate_pairs(dense_subset(line5, members=[2]))


@st.composite
def _experiments(draw):
    """A point line, a subset of at least two members, a schedule and utility values with ties."""
    n = draw(st.integers(2, 12))
    members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True).map(sorted))
    schedule = draw(st.sampled_from(["diagonal", "shuffled"]))
    seed = draw(st.integers(0, 2**16)) if schedule == "shuffled" else None
    values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return from_points(np.arange(float(n))), members, schedule, seed, np.array(values, dtype=float)


@settings(max_examples=150, deadline=None)
@given(case=_experiments(), choice_seed=st.integers(0, 2**16))
def test_pairs_and_choices_match_naive_loops(case, choice_seed):
    space, members, schedule, seed, values = case
    e = enumerate_pairs(dense_subset(space, members=members), schedule, seed)
    positions = naive_diagonal_pairs(len(members))
    if schedule == "shuffled":
        positions = [positions[i] for i in np.random.default_rng(seed).permutation(len(positions))]
    assert e.pairs == tuple((members[i], members[j]) for i, j in positions)
    assert e.pair_array.tolist() == [list(pair) for pair in e.pairs]
    p = from_utility(space, values)
    for mode, tie, s in (("strong", "both", None), ("weak", "first", None), ("weak", "random", choice_seed)):
        c = generate_choices(p, e, mode, tie_policy=tie, seed=s)
        assert c.choices == naive_choices(p, e.pairs, mode, tie, s)
        assert c.chose_mask.tolist() == [[x in ch, y in ch] for (x, y), ch in zip(e.pairs, c.choices)]


def test_library_sequences_hold_only_arrays():
    # README config on a 24 x 24 grid: 165,600 pairs. Their arrays take 3 MB;
    # tuples of the pairs and choices would hold about 20 MB more.
    space = make_grid_euclidean(2, 24, (0.0, 1.0))
    B = dense_subset(space)
    p = from_utility(space, generator_values(space, {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}}))
    tracemalloc.start()
    try:
        e = enumerate_pairs(B)
        c = generate_choices(p, e)
        e_k, c_k = restrict(e, c, len(e))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(e_k) == len(c_k) == 165_600
    assert retained < 6e6


@pytest.mark.parametrize("bad", [(2, 2), (0, 5), (-1, 1)], ids=["self_pair", "above_range", "negative"])
def test_first_bad_pair_is_named_by_its_k(line5, bad):
    pairs = np.array([(0, 1), (1, 2), bad, (3, 4), bad])
    with pytest.raises(DomainError, match=r"pair \[-?\d, \d\] at k=3 is not"):
        ExperimentSequence(line5, dense_subset(line5), pairs).pair_array


def test_first_empty_choice_is_named_by_its_k(line5):
    e = enumerate_pairs(dense_subset(line5))
    mask = np.ones((len(e), 2), dtype=bool)
    mask[[3, 6]] = False
    with pytest.raises(DomainError, match="choice at k=4 is empty"):
        ChoiceSequence(e, mask, "strong").chose_mask


def test_choice_mask_of_the_wrong_shape_rejected(line5):
    e = enumerate_pairs(dense_subset(line5))
    with pytest.raises(DomainError, match="two flags per pair"):
        ChoiceSequence(e, np.ones((len(e), 3), dtype=bool), "strong")


@pytest.mark.parametrize("pairs", [
    pytest.param([(0.5, 2.99)], id="fractional_tuple"),
    pytest.param(np.array([[0.9, 3.2]]), id="fractional_array"),
    pytest.param([(True, 2)], id="bool_beside_int"),
    pytest.param(((0, 1), (np.False_, 3)), id="numpy_bool_beside_int"),
    pytest.param(np.array([[True, False]]), id="bool_array"),
    pytest.param([("0", "1")], id="text"),
])
def test_pairs_must_be_whole_numbers(line5, pairs):
    # casting to int64 would read (0.5, 2.99) as (0, 2) and True as 1
    with pytest.raises(DomainError, match="whole-number point indices"):
        ExperimentSequence(line5, dense_subset(line5), pairs)


def test_whole_floats_are_pairs(line5):
    e = ExperimentSequence(line5, dense_subset(line5), np.array([[0.0, 3.0]]))
    assert e.pair_array.dtype == np.int64 and e.pairs == ((0, 3),)


@pytest.mark.parametrize("as_array", [True, False], ids=["arrays", "tuples"])
def test_empty_sequences_are_valid(line5, as_array):
    e = ExperimentSequence(line5, dense_subset(line5), np.zeros((0, 2), dtype=np.int64) if as_array else ())
    c = ChoiceSequence(e, np.zeros((0, 2), dtype=bool) if as_array else (), "weak")
    assert e.pair_array.shape == c.chose_mask.shape == (0, 2)


class TestGenerateChoices:
    def test_strong_mode_matches_naive_optima(self, line5):
        vals = np.array([0.0, 1.0, 1.0, 2.0, 0.0])
        p = from_utility(line5, vals)
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e, mode="strong")
        for (x, y), chosen in zip(e.pairs, c.choices):
            best = max(vals[x], vals[y])
            expected = tuple(z for z in (x, y) if vals[z] == best)
            assert chosen == expected

    def test_strong_mode_records_ties_as_pairs(self, line5):
        p = from_utility(line5, np.array([0.0, 1.0, 1.0, 2.0, 0.0]))
        e = enumerate_pairs(dense_subset(line5, members=[1, 2]))
        c = generate_choices(p, e, mode="strong")
        assert c.choices == ((1, 2),)

    def test_weak_mode_yields_singletons(self, line5):
        p = from_utility(line5, np.array([0.0, 1.0, 1.0, 2.0, 0.0]))
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e, mode="weak", tie_policy="first")
        assert all(len(ch) == 1 for ch in c.choices)
        assert c.mode == "weak"

    def test_weak_first_takes_earlier_element_of_tie(self, line5):
        p = from_utility(line5, np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
        e = enumerate_pairs(dense_subset(line5, members=[0, 1]))
        c = generate_choices(p, e, mode="weak", tie_policy="first")
        assert c.choices == ((0,),)

    def test_weak_random_is_seeded(self, line5):
        p = from_utility(line5, np.zeros(5))
        e = enumerate_pairs(dense_subset(line5))
        a = generate_choices(p, e, mode="weak", tie_policy="random", seed=7)
        b = generate_choices(p, e, mode="weak", tie_policy="random", seed=7)
        assert a.choices == b.choices
        # with all ties, some seed pair disagrees somewhere
        c = generate_choices(p, e, mode="weak", tie_policy="random", seed=8)
        assert a.choices != c.choices

    def test_weak_random_respects_optimality(self, line5):
        vals = np.array([0.0, 1.0, 1.0, 2.0, 0.0])
        p = from_utility(line5, vals)
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e, mode="weak", tie_policy="random", seed=5)
        for (x, y), (z,) in zip(e.pairs, c.choices):
            assert vals[z] == max(vals[x], vals[y])

    def test_weak_mode_rejects_both_policy(self, line5):
        p = from_utility(line5, np.zeros(5))
        e = enumerate_pairs(dense_subset(line5))
        with pytest.raises(ConfigurationError):
            generate_choices(p, e, mode="weak", tie_policy="both")

    def test_unknown_mode_rejected(self, line5):
        p = from_utility(line5, np.zeros(5))
        e = enumerate_pairs(dense_subset(line5))
        with pytest.raises(ConfigurationError):
            generate_choices(p, e, mode="loud")

    def test_unknown_tie_policy_rejected(self, line5):
        p = from_utility(line5, np.zeros(5))
        e = enumerate_pairs(dense_subset(line5))
        with pytest.raises(ConfigurationError):
            generate_choices(p, e, tie_policy="coin")


class TestRestrict:
    def test_prefix_contents(self, line5):
        p = from_utility(line5, line5.points[:, 0])
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e)
        e3, c3 = restrict(e, c, 3)
        assert e3.pairs == e.pairs[:3]
        assert c3.choices == c.choices[:3]
        assert c3.mode == c.mode
        assert e3.B is e.B

    def test_full_length_prefix_is_identity(self, line5):
        p = from_utility(line5, line5.points[:, 0])
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e)
        e_k, c_k = restrict(e, c, len(e))
        assert e_k.pairs == e.pairs
        assert c_k.choices == c.choices

    def test_zero_prefix_rejected(self, line5):
        p = from_utility(line5, line5.points[:, 0])
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e)
        with pytest.raises(DomainError):
            restrict(e, c, 0)

    def test_overlong_prefix_rejected(self, line5):
        p = from_utility(line5, line5.points[:, 0])
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e)
        with pytest.raises(DomainError):
            restrict(e, c, len(e) + 1)


class TestChoiceCsv:
    def test_round_trip(self, line5):
        p = from_utility(line5, np.array([0.0, 1.0, 1.0, 2.0, 0.0]))
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e, mode="strong")
        text = choices_to_csv(c)
        e2, c2 = choices_from_csv(text, line5, "strong")
        assert e2.pairs == e.pairs
        assert c2.choices == c.choices
        assert c2.mode == "strong"

    def test_header_and_flags(self, line5):
        p = from_utility(line5, np.array([0.0, 1.0, 1.0, 2.0, 0.0]))
        e = enumerate_pairs(dense_subset(line5, members=[1, 2, 3]))
        c = generate_choices(p, e, mode="strong")
        lines = choices_to_csv(c).strip().splitlines()
        assert lines[0] == "k,x_index,y_index,chose_x,chose_y"
        # pair (1, 2) ties, pair (1, 3) and (2, 3) go to 3
        assert lines[1] == "1,1,2,1,1"
        assert lines[2] == "2,1,3,0,1"
        assert lines[3] == "3,2,3,0,1"

    def test_subset_is_recovered_from_rows(self, line5):
        p = from_utility(line5, line5.points[:, 0])
        e = enumerate_pairs(dense_subset(line5, members=[0, 2, 4]))
        c = generate_choices(p, e)
        e2, _ = choices_from_csv(choices_to_csv(c), line5, "strong")
        assert e2.B.members == (0, 2, 4)

    def test_rows_are_sorted_by_k(self, line5):
        text = (
            "k,x_index,y_index,chose_x,chose_y\n"
            "2,0,2,0,1\n"
            "1,0,1,1,0\n"
        )
        e, c = choices_from_csv(text, line5, "weak")
        assert e.pairs == ((0, 1), (0, 2))
        assert c.choices == ((0,), (2,))

    def test_missing_column_rejected(self, line5):
        with pytest.raises(DomainError):
            choices_from_csv("k,x_index,y_index,chose_x\n1,0,1,1\n", line5, "weak")

    def test_empty_choice_rejected(self, line5):
        text = "k,x_index,y_index,chose_x,chose_y\n1,0,1,0,0\n"
        with pytest.raises(DomainError):
            choices_from_csv(text, line5, "strong")

    def test_out_of_range_index_rejected(self, line5):
        text = "k,x_index,y_index,chose_x,chose_y\n1,0,9,1,0\n"
        with pytest.raises(DomainError):
            choices_from_csv(text, line5, "strong")

    def test_self_pair_rejected(self, line5):
        text = "k,x_index,y_index,chose_x,chose_y\n1,3,3,1,0\n"
        with pytest.raises(DomainError):
            choices_from_csv(text, line5, "strong")

    def test_empty_body_rejected(self, line5):
        with pytest.raises(DomainError):
            choices_from_csv("k,x_index,y_index,chose_x,chose_y\n", line5, "strong")

    def test_unknown_mode_rejected(self, line5):
        with pytest.raises(ConfigurationError):
            choices_from_csv("k,x_index,y_index,chose_x,chose_y\n1,0,1,1,0\n", line5, "half")


class TestLengths:
    def test_dunder_len(self, line5):
        p = from_utility(line5, line5.points[:, 0])
        e = enumerate_pairs(dense_subset(line5))
        c = generate_choices(p, e)
        assert len(e) == 10
        assert len(c) == 10

    def test_len_counts_choices(self, line5):
        # a choice sequence holds one choice per pair, so one of another length is refused when it is built
        e = enumerate_pairs(dense_subset(line5))
        assert len(ChoiceSequence(e, e.pairs, "strong")) == len(e) == 10
        with pytest.raises(DomainError, match="different lengths"):
            ChoiceSequence(e, ((0,),), "weak")
