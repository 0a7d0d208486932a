import decimal
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_topk.errors import ValidationError
from mallows_topk.model import (THETA_CAP, MallowsModel, RandomSource,
                                expected_topk_distance, log_likelihood,
                                log_psi_factor, log_psi_total,
                                pairwise_marginal, sample_linear_extension,
                                sample_topk, theta_for_expected_distance,
                                uniform_limit_distance,
                                variance_topk_distance)
from mallows_topk.oracle import ExhaustiveTable, exact_topk_distribution
from mallows_topk.rankings import Permutation, TopKRanking, kendall_full

THETAS = [0.0, 0.1, 0.5, 1.0, 2.0]


class TestRandomSource:
    def test_deterministic(self):
        a = RandomSource(7).generator.random(4)
        b = RandomSource(7).generator.random(4)
        assert np.array_equal(a, b)

    def test_split_streams_differ(self):
        root = RandomSource(7)
        a = root.split(0).generator.random(4)
        b = root.split(1).generator.random(4)
        assert not np.array_equal(a, b)

    def test_split_is_stable(self):
        a = RandomSource(7).split(3).generator.random(4)
        b = RandomSource(7).split(3).generator.random(4)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            RandomSource(-1)


class TestNormalization:
    @given(st.integers(2, 30), st.floats(0.0, 10.0))
    def test_psi_factor_positive(self, n, theta):
        for j in range(1, n):
            assert log_psi_factor(theta, n - j + 1) > 0 or theta >= 0

    def test_uniform_psi_counts_permutations(self):
        # theta = 0 makes psi_n = n!
        assert math.isclose(math.exp(log_psi_total(0.0, 6)), math.factorial(6))

    @pytest.mark.parametrize("theta", THETAS)
    def test_probabilities_sum_to_one(self, theta):
        n, k = 5, 3
        model = MallowsModel(n, Permutation.identity(n), theta)
        total = sum(model.topk_probability(TopKRanking(n, k, o))
                    for o in __import__("itertools").permutations(range(n), k))
        assert math.isclose(total, 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 3.0])
    def test_matches_oracle_distribution(self, theta):
        n, k = 6, 2
        sigma0 = Permutation.from_items([2, 5, 0, 1, 4, 3])
        model = MallowsModel(n, sigma0, theta)
        dist = exact_topk_distribution(n, k, theta, sigma0)
        for items, p in dist.items():
            mine = model.log_topk_probability(TopKRanking(n, k, items))
            assert abs(mine - math.log(p)) < 1e-12

    def test_mode_is_consensus_prefix(self):
        sigma0 = Permutation.from_items([3, 1, 4, 0, 2])
        model = MallowsModel(5, sigma0, 1.2)
        probs = {o: model.topk_probability(TopKRanking(5, 2, o))
                 for o in __import__("itertools").permutations(range(5), 2)}
        assert max(probs, key=probs.get) == (3, 1)

    def test_v_marginal_sums_to_one(self):
        model = MallowsModel(6, Permutation.identity(6), 0.8)
        for j in range(1, 6):
            total = sum(model.v_marginal(j, r) for r in range(6 - j + 1))
            assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValidationError):
            MallowsModel(4, Permutation.identity(4), -0.1)


class TestSampling:
    def test_shapes_and_determinism(self):
        model = MallowsModel(12, Permutation.reverse(12), 0.5)
        a = sample_topk(model, 4, 50, RandomSource(3))
        b = sample_topk(model, 4, 50, RandomSource(3))
        assert a == b
        assert all(s.k == 4 and s.n == 12 for s in a)

    def test_high_theta_concentrates_on_consensus(self):
        sigma0 = Permutation.from_items([5, 2, 0, 4, 1, 3])
        model = MallowsModel(6, sigma0, 20.0)
        sample = sample_topk(model, 3, 200, RandomSource(0))
        assert all(s.items == (5, 2, 0) for s in sample)

    def test_uniform_prefix_frequencies(self):
        model = MallowsModel(4, Permutation.identity(4), 0.0)
        sample = sample_topk(model, 2, 24000, RandomSource(1))
        counts = Counter(s.items for s in sample)
        assert len(counts) == 12
        for c in counts.values():
            assert abs(c - 2000) < 250

    def test_empirical_mean_distance(self):
        n, k, theta = 10, 4, 0.7
        model = MallowsModel(n, Permutation.identity(n), theta)
        sample = sample_topk(model, k, 20000, RandomSource(5))
        mean = np.mean([model.distance_to_consensus(s) for s in sample])
        se = math.sqrt(variance_topk_distance(n, k, theta) / len(sample))
        assert abs(mean - expected_topk_distance(n, k, theta)) < 4 * se


class TestLinearExtension:
    def test_extends_prefix(self):
        model = MallowsModel(8, Permutation.reverse(8), 0.9)
        prefix = TopKRanking(8, 3, (1, 6, 2))
        rng = RandomSource(2)
        for _ in range(20):
            full = sample_linear_extension(model, prefix, rng)
            assert full.items_by_rank()[:3] == (1, 6, 2)

    def test_full_input_returned_as_is(self):
        model = MallowsModel(4, Permutation.identity(4), 1.0)
        sigma = TopKRanking(4, 4, (2, 0, 3, 1))
        full = sample_linear_extension(model, sigma, RandomSource(0))
        assert full.items_by_rank() == (2, 0, 3, 1)

    def test_conditional_law(self):
        # Extensions of a fixed prefix must follow the conditional Mallows law.
        n, k, theta = 5, 2, 0.8
        sigma0 = Permutation.from_items([4, 0, 3, 2, 1])
        model = MallowsModel(n, sigma0, theta)
        prefix = TopKRanking(n, k, (3, 4))
        draws = 30000
        rng = RandomSource(9)
        counts = Counter(sample_linear_extension(model, prefix, rng).items_by_rank()
                         for _ in range(draws))
        # exact conditional: weight of each extension over total
        import itertools
        weights = {}
        rest = [i for i in range(n) if i not in prefix.items]
        for tail in itertools.permutations(rest):
            full = Permutation.from_items(prefix.items + tail)
            weights[full.items_by_rank()] = math.exp(model.log_probability(full))
        z = sum(weights.values())
        tv = 0.5 * sum(abs(counts.get(o, 0) / draws - w / z)
                       for o, w in weights.items())
        assert tv < 0.02


class TestMoments:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_match_oracle(self, n, theta):
        for k in range(1, n):
            table = ExhaustiveTable(n, k, theta)
            assert abs(expected_topk_distance(n, k, theta)
                       - table.expected_distance()) < 1e-10
            assert abs(variance_topk_distance(n, k, theta)
                       - table.variance_distance()) < 1e-10

    def test_uniform_limit(self):
        assert expected_topk_distance(8, 3, 0.0) == uniform_limit_distance(8, 3)
        assert uniform_limit_distance(30, 10) == 10 * 49 / 4

    def test_small_theta_continuity(self):
        # The series branch must agree with the direct formula.
        a = expected_topk_distance(10, 5, 1e-5)
        b = uniform_limit_distance(10, 5)
        assert abs(a - b) < 1e-3

    def test_k_equals_n_allowed(self):
        assert expected_topk_distance(5, 5, 1.0) > 0

    def test_theta_inversion_round_trip(self):
        for theta in (0.05, 0.4, 1.3, 4.0):
            target = expected_topk_distance(12, 5, theta)
            assert abs(theta_for_expected_distance(12, 5, target) - theta) < 1e-6

    def test_theta_inversion_boundaries(self):
        limit = uniform_limit_distance(6, 3)
        assert theta_for_expected_distance(6, 3, limit) == 0.0
        tiny = expected_topk_distance(6, 3, THETA_CAP) / 2
        assert theta_for_expected_distance(6, 3, tiny) == THETA_CAP
        for k, target in ((3, limit + 1), (0, 1.0), (7, 1.0)):
            with pytest.raises(ValidationError):
                theta_for_expected_distance(6, k, target)


class TestMarginalsAndLikelihood:
    def test_pairwise_marginal_exact(self):
        model = MallowsModel(5, Permutation.identity(5), 1.0)
        p = pairwise_marginal(model, 0, 4)
        assert p > 0.5
        assert math.isclose(p + pairwise_marginal(model, 4, 0), 1.0)

    def test_pairwise_marginal_uniform(self):
        model = MallowsModel(6, Permutation.identity(6), 0.0)
        assert math.isclose(pairwise_marginal(model, 1, 3), 0.5)

    @pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-4, 0.003, 0.35, 1.7, THETA_CAP])
    def test_pairwise_marginal_matches_oracle(self, theta):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            sigma0 = Permutation.from_items(rng.permutation(n).tolist())
            dist = exact_topk_distribution(n, n, theta, sigma0)
            position = np.argsort(np.array(list(dist)), axis=1)
            probs = np.array(list(dist.values()))
            model = MallowsModel(n, sigma0, theta)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        exact = math.fsum(probs[position[:, i] < position[:, j]].tolist())
                        assert abs(pairwise_marginal(model, i, j) - exact) < 1e-12

    def test_pairwise_marginal_matches_decimal_closed_form(self):
        # (h+1)/(1 - q^(h+1)) - h/(1 - q^h) at 50 digits; that form in floats
        # is off by up to 3e-7 at theta = 1e-9, and by 3e-11 at theta = 1e-6, h = 10^4
        ctx = decimal.Context(prec=50)
        for h in [1, 2, 3, 7, 10, 31, 99, 100, 101, 1000, 9999, 10**4]:
            sigma0 = Permutation.reverse(h + 2)  # item h + 1 is h ranks above item 1
            for theta in [1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 9e-4, 1e-3, 3e-3, 0.0101,
                          0.1, 0.35, 1.0, 1.7, 10.0, 50.0]:
                q = ctx.exp(-decimal.Decimal(theta))
                exact = ctx.subtract(
                    ctx.divide(h + 1, ctx.subtract(1, ctx.power(q, h + 1))),
                    ctx.divide(h, ctx.subtract(1, ctx.power(q, h))))
                model = MallowsModel(h + 2, sigma0, theta)
                assert abs(pairwise_marginal(model, h + 1, 1) - float(exact)) < 1e-12

    def test_log_likelihood_additive(self):
        model = MallowsModel(6, Permutation.identity(6), 0.6)
        sample = sample_topk(model, 3, 10, RandomSource(4))
        assert math.isclose(
            log_likelihood(model, sample),
            sum(model.log_topk_probability(s) for s in sample))

    def test_infinite_theta_puts_all_mass_on_the_consensus(self):
        # a distance of 0 adds 0 to the log-probability, not -inf * 0 = nan
        sigma0 = Permutation.identity(4)
        model = MallowsModel(4, sigma0, math.inf)
        top2 = sigma0.top_k(2)
        assert model.log_topk_probability(top2) == 0.0
        assert model.topk_probability(top2) == 1.0
        assert model.log_probability(sigma0) == 0.0
        assert model.log_topk_probability(TopKRanking(4, 2, (1, 0))) == -math.inf
        assert model.log_probability(Permutation.reverse(4)) == -math.inf
        assert log_likelihood(model, [top2] * 3) == 0.0

    def test_log_likelihood_maximized_near_truth(self):
        model = MallowsModel(6, Permutation.identity(6), 1.0)
        sample = sample_topk(model, 6, 4000, RandomSource(6))
        ll = {t: log_likelihood(MallowsModel(6, Permutation.identity(6), t), sample)
              for t in (0.5, 1.0, 2.0)}
        assert ll[1.0] == max(ll.values())
