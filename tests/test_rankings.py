import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mallows_topk.errors import DimensionError, ValidationError
from mallows_topk.rankings import (FenwickTree, InversionVector, Permutation,
                                   TopKRanking, format_rankings_csv,
                                   from_inversion_vector, invert_topk,
                                   kendall_full, kendall_topk,
                                   parse_rankings_csv, to_inversion_vector)


def brute_kendall_full(a: Permutation, b: Permutation) -> int:
    return sum(1 for i in range(a.n) for j in range(i + 1, a.n)
               if (a.ranks[i] - a.ranks[j]) * (b.ranks[i] - b.ranks[j]) < 0)


perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation.from_items))


@st.composite
def topk_rankings(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    items = draw(st.permutations(list(range(n))))
    return TopKRanking(n, k, tuple(items[:k]))


class TestFenwickTree:
    def test_ones_prefix_sums(self):
        bit = FenwickTree.ones(10)
        assert [bit.prefix_sum(i) for i in range(11)] == list(range(11))

    def test_select_after_removals(self):
        bit = FenwickTree.ones(6)
        bit.add(2, -1)
        bit.add(0, -1)
        # remaining: 1, 3, 4, 5
        assert [bit.select(i) for i in range(4)] == [1, 3, 4, 5]

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
    def test_prefix_sum_matches_list(self, values):
        bit = FenwickTree(len(values))
        for i, v in enumerate(values):
            bit.add(i, v)
        for i in range(len(values) + 1):
            assert bit.prefix_sum(i) == sum(values[:i])


class TestPermutation:
    def test_identity_and_reverse(self):
        assert Permutation.identity(4).ranks == (0, 1, 2, 3)
        assert Permutation.reverse(4).ranks == (3, 2, 1, 0)

    def test_from_items_round_trip(self):
        p = Permutation.from_items([2, 0, 3, 1])
        assert p.items_by_rank() == (2, 0, 3, 1)
        assert p.ranks == (1, 3, 0, 2)

    def test_inverse_involution(self):
        p = Permutation.from_items([3, 1, 0, 2])
        assert p.inverse().inverse() == p

    def test_compose_with_inverse_is_identity(self):
        p = Permutation.from_items([3, 1, 0, 2])
        assert p.compose(p.inverse()) == Permutation.identity(4)

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValidationError):
            Permutation(3, (0, 0, 2))

    def test_top_k(self):
        p = Permutation.from_items([2, 0, 3, 1])
        assert p.top_k(2).items == (2, 0)


class TestTopKRanking:
    def test_rank_array_sentinel(self):
        r = TopKRanking(5, 2, (3, 0))
        assert r.rank_array() == [1, 2, 2, 0, 2]

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValidationError):
            TopKRanking(4, 2, (1, 1))

    @pytest.mark.parametrize("k, items, message", [
        (0, (), "k must satisfy 1 <= k <= n"),
        (5, (0, 1, 2, 3, 0), "k must satisfy 1 <= k <= n"),
        (2, (1,), "items must have length k"),
        (2, (1, 2, 3), "items must have length k"),
        (3, (2, 0, 2), "items must be distinct ids in 0..n-1"),
        (2, (0, -1), "items must be distinct ids in 0..n-1"),
        (2, (4, 0), "items must be distinct ids in 0..n-1"),
    ])
    def test_each_invalid_input_keeps_its_message(self, k, items, message):
        with pytest.raises(ValidationError) as info:
            TopKRanking(4, k, items)
        assert str(info.value) == message

    def test_to_permutation_requires_full(self):
        with pytest.raises(ValidationError):
            TopKRanking(4, 2, (1, 0)).to_permutation()
        assert TopKRanking(2, 2, (1, 0)).to_permutation() == Permutation.reverse(2)


class TestKendall:
    def test_identity_to_reverse_is_max(self):
        n = 6
        assert kendall_full(Permutation.identity(n), Permutation.reverse(n)) \
            == n * (n - 1) // 2

    @given(perms, perms)
    def test_matches_brute_force(self, a, b):
        if a.n != b.n:
            b = Permutation.identity(a.n)
        assert kendall_full(a, b) == brute_kendall_full(a, b)

    @given(perms, perms)
    def test_symmetry(self, a, b):
        if a.n != b.n:
            b = Permutation.reverse(a.n)
        assert kendall_full(a, b) == kendall_full(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kendall_full(Permutation.identity(3), Permutation.identity(4))

    @given(topk_rankings())
    def test_topk_vs_self_is_zero(self, r):
        assert kendall_topk(r, r) == 0

    def test_topk_undetermined_pairs_free(self):
        # Listed-vs-listed and listed-vs-unlisted pairs count; the pair of
        # two unlisted items never does.
        a = TopKRanking(4, 1, (0,))
        b = TopKRanking(4, 1, (1,))
        assert kendall_topk(a, b) == 1  # only the (0, 1) pair is discordant

    @given(topk_rankings())
    def test_full_and_topk_agree_on_permutations(self, r):
        if r.k != r.n:
            return
        p = r.to_permutation()
        q = Permutation.identity(r.n)
        assert kendall_topk(p, q) == kendall_full(p, q)


class TestInversionVector:
    @given(perms)
    @example(Permutation.identity(1))
    @example(Permutation.reverse(9))
    def test_permutation_round_trip(self, p):
        v = to_inversion_vector(p)
        assert from_inversion_vector(v, form="permutation") == p

    @given(topk_rankings())
    @example(TopKRanking(1, 1, (0,)))
    @example(TopKRanking(9, 9, tuple(range(8, -1, -1))))
    @example(TopKRanking(9, 3, (8, 7, 6)))
    def test_topk_round_trip(self, r):
        v = to_inversion_vector(r)
        assert from_inversion_vector(v, form="topk") == r

    @given(perms)
    def test_sum_equals_distance_to_identity(self, p):
        v = to_inversion_vector(p)
        assert sum(v.v) == kendall_full(p, Permutation.identity(p.n))

    @given(topk_rankings())
    def test_topk_sum_equals_distance_to_identity(self, r):
        v = to_inversion_vector(r)
        assert sum(v.v) == kendall_topk(r, Permutation.identity(r.n))

    def test_component_range_validated(self):
        with pytest.raises(ValidationError):
            InversionVector(4, 2, (3, 3))

    def test_auto_form(self):
        assert isinstance(from_inversion_vector(InversionVector(4, 3, (0, 0, 0))),
                          Permutation)
        assert isinstance(from_inversion_vector(InversionVector(4, 2, (0, 0))),
                          TopKRanking)


class TestInvertTopk:
    def test_full_ranking_is_true_inverse(self):
        r = TopKRanking(4, 4, (2, 0, 3, 1))
        expected = r.to_permutation().inverse().items_by_rank()
        assert invert_topk(r).items == expected

    def test_identity_prefix_is_fixed_point(self):
        # Inverting a list that starts a permutation keeps the identity fixed.
        r = TopKRanking(5, 3, (0, 1, 2))
        assert invert_topk(r).items == (0, 1, 2)

    @given(topk_rankings())
    @settings(max_examples=200)
    def test_distance_preserving_involution(self, r):
        e = Permutation.identity(r.n)
        flipped = invert_topk(r)
        assert kendall_topk(flipped, e) == kendall_topk(r, e)
        assert invert_topk(flipped) == r

    def test_exhaustive_distance_preservation_small(self):
        for n in range(2, 6):
            for k in range(1, n + 1):
                e = Permutation.identity(n)
                for items in itertools.permutations(range(n), k):
                    r = TopKRanking(n, k, items)
                    assert kendall_topk(invert_topk(r), e) == kendall_topk(r, e)


class TestCsv:
    def test_round_trip(self):
        rankings = [TopKRanking(4, 2, (3, 0)), TopKRanking(4, 3, (1, 2, 0))]
        text = format_rankings_csv(rankings)
        assert text.splitlines()[0] == "# n=4"
        assert parse_rankings_csv(text) == rankings

    def test_one_based_ids_on_disk(self):
        text = format_rankings_csv([TopKRanking(3, 2, (0, 2))])
        assert text.splitlines()[1] == "1,3"

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError):
            parse_rankings_csv("1,2,3\n")

    def test_comment_lines_skipped(self):
        rankings = parse_rankings_csv("# n=3\n# a comment\n2,1\n")
        assert rankings == [TopKRanking(3, 2, (1, 0))]
