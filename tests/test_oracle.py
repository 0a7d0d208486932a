import math

import pytest

from mallows_topk.errors import SizeError, ValidationError
from mallows_topk.model import MallowsModel, RandomSource, sample_topk
from mallows_topk.oracle import (ExhaustiveTable, enumerate_topk,
                                 exact_expectations, exact_topk_distribution,
                                 exhaustive_kemeny, pairwise_distance_matrix,
                                 topk_distance_oracle)
from mallows_topk.rankings import Permutation, TopKRanking


class TestEnumerate:
    @pytest.mark.parametrize("n,k,count", [(3, 1, 3), (4, 2, 12), (5, 5, 120)])
    def test_counts(self, n, k, count):
        objs = enumerate_topk(n, k)
        assert len(objs) == count
        assert len(set(o.items for o in objs)) == count

    def test_size_limit(self):
        with pytest.raises(SizeError):
            enumerate_topk(9, 2)


class TestDistribution:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    def test_sums_to_one(self, theta):
        dist = exact_topk_distribution(6, 3, theta)
        assert math.isclose(sum(dist.values()), 1.0, rel_tol=1e-12)

    def test_uniform_case(self):
        dist = exact_topk_distribution(4, 2, 0.0)
        assert all(math.isclose(p, 1 / 12) for p in dist.values())

    def test_consensus_relabelling(self):
        sigma0 = Permutation.from_items([2, 0, 1])
        dist = exact_topk_distribution(3, 1, 1.5, sigma0)
        assert max(dist, key=dist.get) == (2,)


class TestPairwiseDistances:
    def test_matches_kendall_topk(self):
        objs = enumerate_topk(4, 2)
        mat = pairwise_distance_matrix([o.items for o in objs], 4, 2)
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                assert mat[i, j] == topk_distance_oracle(a, b)


class TestExhaustiveTable:
    def test_table_size_and_probability_lookup(self):
        table = ExhaustiveTable(5, 2, 0.7)
        assert len(table.objects) == 20
        assert math.isclose(sum(table.probs), 1.0, rel_tol=1e-12)
        r = TopKRanking(5, 2, (0, 1))
        model = MallowsModel(5, Permutation.identity(5), 0.7)
        assert math.isclose(table.probability(r), model.topk_probability(r),
                            rel_tol=1e-12)

    def test_distances_against_consensus(self):
        sigma0 = Permutation.from_items([1, 3, 0, 2])
        table = ExhaustiveTable(4, 2, 0.4, sigma0)
        for obj, d in zip(table.objects, table.distances):
            assert d == topk_distance_oracle(TopKRanking(4, 2, obj), sigma0)

    def test_sampled_expected_distance(self):
        table = ExhaustiveTable(5, 3, 1.0)
        model = MallowsModel(5, Permutation.identity(5), 1.0)
        sample = sample_topk(model, 3, 20000, RandomSource(0))
        mean = sum(model.distance_to_consensus(s) for s in sample) / len(sample)
        assert abs(mean - table.expected_distance()) < 0.1


class TestExpectations:
    def test_identical_components_coincide(self):
        e = exact_expectations(5, 3, 0.8, 0.8)
        assert math.isclose(e.e_gamma_pair, e.e_beta_pair, rel_tol=1e-12)
        assert math.isclose(e.e_cross, e.e_gamma_pair, rel_tol=1e-12)

    def test_high_theta_vanishes(self):
        e = exact_expectations(5, 3, 30.0, 30.0)
        assert e.e_gamma < 1e-9 and e.e_beta_pair < 1e-9

    def test_sandwich_fixture_full_rankings(self):
        # E[d(beta, sigma0)] <= E[d(beta, gamma)] <= E[d(beta, beta')];
        # the left inequality needs every pair compared, hence k = n here.
        e = exact_expectations(5, 5, 2.0, 0.3)
        assert e.e_beta <= e.e_cross <= e.e_beta_pair

    def test_upper_bound_holds_under_truncation(self):
        # The right inequality survives top-k truncation.
        e = exact_expectations(5, 3, 2.0, 0.3)
        assert e.e_cross <= e.e_beta_pair + 1e-12


class TestKemeny:
    def test_unanimous(self):
        r = TopKRanking(4, 4, (2, 0, 3, 1))
        assert exhaustive_kemeny([r] * 5).items_by_rank() == (2, 0, 3, 1)

    def test_single_partial(self):
        r = TopKRanking(4, 2, (3, 1))
        best = exhaustive_kemeny([r])
        assert best.items_by_rank()[:2] == (3, 1)

    def test_size_limit(self):
        with pytest.raises(SizeError):
            exhaustive_kemeny([TopKRanking(6, 2, (0, 1))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            exhaustive_kemeny([])
