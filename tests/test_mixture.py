import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mallows_topk.errors import ValidationError, VacuousBoundError
from mallows_topk.estimation import borda, estimate_theta_mle
from mallows_topk.mixture import (ConcentricMixture, GroundTruth,
                                  fit_mixture, mean_distances,
                                  min_sample_size, mixture_log_likelihood,
                                  pairwise_topk_distances, sample_mixture,
                                  separate, separation_gap)
from mallows_topk.model import (MallowsModel, RandomSource, log_likelihood,
                                sample_topk, theta_for_expected_distance)
from mallows_topk.oracle import exact_expectations, topk_distance_oracle
from mallows_topk.rankings import Permutation, TopKRanking


def make_mixture(n=6, theta_g=2.0, theta_b=0.2, r=0.5):
    return ConcentricMixture(Permutation.identity(n), theta_g, theta_b, r)


class TestConcentricMixture:
    def test_inverted_dispersion_rejected(self):
        with pytest.raises(ValidationError):
            make_mixture(theta_g=0.2, theta_b=2.0)

    def test_equal_dispersions_allowed(self):
        # the single-component member of the family
        make_mixture(theta_g=1.0, theta_b=1.0)

    def test_r_range(self):
        with pytest.raises(ValidationError):
            make_mixture(r=1.5)

    @pytest.mark.parametrize("theta_g, theta_b",
                             [(math.nan, 0.1), (0.5, math.nan), (0.0, -1.0)])
    def test_nan_or_negative_dispersion_rejected(self, theta_g, theta_b):
        with pytest.raises(ValidationError):
            make_mixture(theta_g=theta_g, theta_b=theta_b)


class TestGroundTruth:
    def test_misclassification_label_matching(self):
        truth = GroundTruth([True, True, False, False])
        assert truth.misclassification([True, True, False, False]) == 0.0
        assert truth.misclassification([False, False, True, True]) == 0.0
        assert truth.misclassification([True, False, False, False]) == 0.25


class TestSampleMixture:
    def test_r_one_is_single_component(self):
        mix = make_mixture(r=1.0)
        draw = sample_mixture(mix, 3, 50, RandomSource(0))
        assert all(draw.truth.expert_flags)

    def test_expert_fraction_concentrates(self):
        mix = make_mixture(r=0.4)
        draw = sample_mixture(mix, 3, 100000, RandomSource(1))
        frac = sum(draw.truth.expert_flags) / 100000
        assert abs(frac - 0.4) < 0.005

    def test_deterministic(self):
        mix = make_mixture()
        a = sample_mixture(mix, 3, 30, RandomSource(2))
        b = sample_mixture(mix, 3, 30, RandomSource(2))
        assert a.rankings == b.rankings


class TestMeanDistances:
    def test_identical_rankings(self):
        sample = [TopKRanking(5, 2, (1, 3))] * 4
        assert np.all(mean_distances(sample) == 0)

    def test_two_rankings(self):
        a, b = TopKRanking(4, 2, (0, 1)), TopKRanking(4, 2, (1, 0))
        d = topk_distance_oracle(a, b)
        assert list(mean_distances([a, b])) == [d, d]

    def test_matches_direct_computation(self):
        model = MallowsModel(7, Permutation.reverse(7), 0.5)
        sample = sample_topk(model, 3, 40, RandomSource(3))
        deltas = mean_distances(sample)
        for i, s in enumerate(sample):
            direct = sum(topk_distance_oracle(s, t) for j, t in enumerate(sample)
                         if j != i) / (len(sample) - 1)
            assert math.isclose(deltas[i], direct)

    def test_mean_matches_oracle_pairwise_expectation(self):
        n, k, theta = 5, 3, 0.8
        model = MallowsModel(n, Permutation.identity(n), theta)
        sample = sample_topk(model, k, 3000, RandomSource(4))
        e = exact_expectations(n, k, theta, theta).e_gamma_pair
        observed = float(np.mean(mean_distances(sample)))
        assert abs(observed - e) < 0.15

    def test_too_small_sample(self):
        with pytest.raises(ValidationError):
            mean_distances([TopKRanking(3, 1, (0,))])

    def test_pairwise_matrix_symmetric_integer(self):
        model = MallowsModel(6, Permutation.identity(6), 0.3)
        sample = sample_topk(model, 2, 25, RandomSource(5))
        d = pairwise_topk_distances(sample)
        assert np.array_equal(d, d.T)
        assert d.dtype.kind == "i"


class TestSeparate:
    def test_two_point_sample(self):
        # Unequal group sizes: the majority point has the smaller mean
        # distance, so the split recovers the two groups exactly.  (Equal
        # sizes make every delta identical, i.e. the degenerate case.)
        a = TopKRanking(6, 3, (0, 1, 2))
        b = TopKRanking(6, 3, (5, 4, 3))
        result = separate([a] * 60 + [b] * 40)
        assert set(result.expert_flags[:60]) == {True}
        assert set(result.expert_flags[60:]) == {False}

    def test_two_point_equal_sizes_degenerate(self):
        a = TopKRanking(6, 3, (0, 1, 2))
        b = TopKRanking(6, 3, (5, 4, 3))
        result = separate([a] * 50 + [b] * 50)
        assert result.degenerate

    def test_degenerate_sample(self):
        sample = [TopKRanking(5, 2, (1, 3))] * 6
        result = separate(sample)
        assert result.degenerate and result.threshold is None
        assert all(result.expert_flags)

    def test_deterministic_and_order_consistent(self):
        mix = make_mixture(n=8, theta_g=1.5, theta_b=0.1, r=0.5)
        draw = sample_mixture(mix, 4, 60, RandomSource(10))
        a = separate(draw.rankings)
        b = separate(draw.rankings)
        assert a.expert_flags == b.expert_flags and a.threshold == b.threshold
        reordered = list(reversed(draw.rankings))
        c = separate(reordered)
        assert c.expert_flags == tuple(reversed(a.expert_flags))

    def test_expert_cluster_has_lower_deltas(self):
        mix = make_mixture(n=10, theta_g=2.0, theta_b=0.1, r=0.5)
        draw = sample_mixture(mix, 5, 80, RandomSource(11))
        result = separate(draw.rankings)
        ins = [d for d, f in zip(result.deltas, result.expert_flags) if f]
        outs = [d for d, f in zip(result.deltas, result.expert_flags) if not f]
        assert max(ins) <= min(outs)

    def test_gap_method_available(self):
        mix = make_mixture(n=8, theta_g=2.0, theta_b=0.1, r=0.5)
        draw = sample_mixture(mix, 4, 60, RandomSource(12))
        result = separate(draw.rankings, method="gap")
        assert 0 < sum(result.expert_flags) <= 60

    def test_unknown_method(self):
        sample = [TopKRanking(4, 2, (0, 1)), TopKRanking(4, 2, (1, 0)),
                  TopKRanking(4, 2, (0, 1))]
        with pytest.raises(ValidationError):
            separate(sample, method="kmeans++")

    def test_csv_and_json_serialization(self):
        mix = make_mixture(n=6, theta_g=2.0, theta_b=0.1, r=0.5)
        draw = sample_mixture(mix, 3, 20, RandomSource(13))
        result = separate(draw.rankings)
        lines = result.to_csv().splitlines()
        assert lines[0] == "index,delta,label"
        assert len(lines) == 21
        assert lines[1:] == [f"{i},{d:.10g},{'expert' if f else 'nonexpert'}"
                             for i, (d, f) in enumerate(zip(result.deltas, result.expert_flags))]
        payload = result.to_json_dict()
        assert set(payload) >= {"threshold", "theta_g_hat", "theta_b_hat",
                                "r_hat", "degenerate", "consensus"}


class TestBounds:
    def test_separation_gap_fixture(self):
        assert separation_gap(9, 0.4, 10.0) == pytest.approx(28.0)

    def test_gap_boundary_rejected(self):
        with pytest.raises(VacuousBoundError):
            separation_gap(2.0, 0.4, 10.0)

    @pytest.mark.parametrize("e_gamma", [0.0, -1.0, math.nan, math.inf])
    def test_bad_expected_distance_rejected(self, e_gamma):
        with pytest.raises(ValidationError):
            separation_gap(3.0, 0.5, e_gamma)
        with pytest.raises(ValidationError):
            min_sample_size(5, 3.0, 0.5, e_gamma, 0.05)
        # c <= 2 is checked first
        with pytest.raises(VacuousBoundError):
            separation_gap(2.0, 0.5, e_gamma)

    @pytest.mark.parametrize("c, r", [(math.nan, 0.5), (math.inf, 0.5), (3.0, math.nan),
                                      (3.0, math.inf), (3.0, -math.inf)])
    def test_non_finite_c_or_r_rejected(self, c, r):
        with pytest.raises(ValidationError):
            separation_gap(c, r, 10.0)
        # c <= 2 is checked first
        with pytest.raises(VacuousBoundError):
            separation_gap(2.0, r, 10.0)

    def test_gap_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError):
            separation_gap(1e308, 1.0, 1e308)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_min_sample_size_needs_two_items(self, n):
        with pytest.raises(ValidationError):
            min_sample_size(n, 3.0, 0.5, 10.0, 0.05)

    def test_min_sample_size_fixture(self):
        assert min_sample_size(30, 9, 0.4, 10.0, 0.05) == 1781

    def test_min_sample_size_is_at_least_one(self):
        # the gap is 1e300 and the squared ratio 4e-600 rounds to 0
        assert min_sample_size(2, 1e200, 1.0, 1e100, 0.05) == 1

    def test_min_sample_size_monotonicity(self):
        base = min_sample_size(30, 9, 0.4, 10.0, 0.05)
        assert min_sample_size(30, 12, 0.4, 10.0, 0.05) < base
        assert min_sample_size(40, 9, 0.4, 10.0, 0.05) > base
        assert min_sample_size(30, 9, 0.4, 10.0, 0.01) > base

    def test_gap_lower_bounds_oracle_difference(self):
        # population E[delta_b - delta_g] >= (c-2) r E[d(gamma, sigma0)]
        # on full rankings, where the pairwise-marginal identities hold
        for n in (4, 5):
            for theta_g, theta_b in [(1.0, 0.2), (2.0, 0.5), (3.0, 0.0)]:
                e = exact_expectations(n, n, theta_g, theta_b)
                c = e.e_beta / e.e_gamma
                if c <= 2:
                    continue
                for r in (0.3, 0.5, 0.8):
                    diff = ((1 - r) * e.e_beta_pair + (2 * r - 1) * e.e_cross
                            - r * e.e_gamma_pair)
                    assert diff + 1e-9 >= separation_gap(c, r, e.e_gamma)


class TestMixtureLikelihood:
    def test_equal_components_match_single_model(self):
        mix = make_mixture(theta_g=0.9, theta_b=0.9, r=0.5)
        model = MallowsModel(6, mix.sigma0, 0.9)
        sample = sample_topk(model, 3, 40, RandomSource(14))
        assert math.isclose(mixture_log_likelihood(mix, sample),
                            log_likelihood(model, sample))

    def test_r_one_matches_single_model(self):
        mix = make_mixture(r=1.0)
        model = mix.expert_model()
        sample = sample_topk(model, 3, 40, RandomSource(15))
        assert math.isclose(mixture_log_likelihood(mix, sample),
                            log_likelihood(model, sample))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            mixture_log_likelihood(make_mixture(), [])


class TestFitMixture:
    def test_never_loses_to_single_model(self):
        mix = make_mixture(n=6, theta_g=2.0, theta_b=0.1, r=0.5)
        draw = sample_mixture(mix, 6, 120, RandomSource(16))
        sample = draw.rankings
        fitted = fit_mixture(sample).mixture
        from mallows_topk.estimation import borda, estimate_theta_mle
        consensus = borda(sample)
        theta = estimate_theta_mle(sample, consensus)
        single_ll = log_likelihood(MallowsModel(6, consensus, theta), sample)
        assert mixture_log_likelihood(fitted, sample) >= single_ll - 1e-9

    def test_recovers_separated_components(self):
        n, k = 30, 10
        theta_g = theta_for_expected_distance(n, k, 8.0)
        theta_b = theta_for_expected_distance(n, k, 80.0)
        mix = ConcentricMixture(Permutation.identity(n), theta_g, theta_b, 0.5)
        draw = sample_mixture(mix, k, 200, RandomSource(17))
        fitted = fit_mixture(draw.rankings).mixture
        assert fitted.theta_g > fitted.theta_b
        assert abs(fitted.r - 0.5) < 0.1

    def test_single_population_collapses(self):
        sample = [TopKRanking(5, 2, (1, 3))] * 10
        fitted = fit_mixture(sample).mixture
        assert fitted.r == 1.0 and fitted.theta_g == fitted.theta_b

    def test_r_is_the_share_of_the_cluster_with_the_larger_theta(self):
        # top-1 rows at theta 0.05 are closer to one another than top-10
        # rows at theta 1, so separate calls them experts; their theta-hat
        # is the smaller, and theta_g must come with the other rows' share
        rng, sigma0 = RandomSource(0), Permutation.identity(30)
        sample = (sample_topk(MallowsModel(30, sigma0, 0.05), 1, 300, rng.split(0))
                  + sample_topk(MallowsModel(30, sigma0, 1.0), 10, 300, rng.split(1)))
        result = separate(sample)
        assert result.theta_g_hat < result.theta_b_hat and result.r_hat < 0.5
        fit = fit_mixture(sample)
        assert (fit.mixture.theta_g, fit.mixture.theta_b) == (result.theta_b_hat,
                                                              result.theta_g_hat)
        assert fit.mixture.r == result.expert_flags.count(False) / 600
        assert fit.log_likelihood == mixture_log_likelihood(fit.mixture, sample)
        swapped = ConcentricMixture(fit.mixture.sigma0, result.theta_b_hat,
                                    result.theta_g_hat, result.r_hat)
        assert fit.log_likelihood > mixture_log_likelihood(swapped, sample)
        assert fit.log_likelihood > fit.single_log_likelihood


def _fit_sample(n, m, theta_b, seed, cut, identical):
    """m draws of a concentric mixture on n items (theta_g = 1, r = 1/2), the
    s-th cut to its first cut[s] items; all equal to the first if identical."""
    mix = ConcentricMixture(Permutation.identity(n), 1.0, theta_b, 0.5)
    rows = sample_mixture(mix, n, m, RandomSource(seed)).rankings
    sample = [TopKRanking(n, min(k, n), r.items[:min(k, n)]) for r, k in zip(rows, cut)]
    return [sample[0]] * m if identical else sample


def _assert_exact_record(sample):
    """The fit's two log-likelihoods equal the public functions' values."""
    fit = fit_mixture(sample)
    c = borda(sample)
    assert fit.mixture.sigma0 == c
    assert fit.log_likelihood == mixture_log_likelihood(fit.mixture, sample)
    single = MallowsModel(c.n, c, estimate_theta_mle(sample, c))
    assert fit.single_log_likelihood == log_likelihood(single, sample)
    return fit


class TestFitRecord:
    @pytest.mark.parametrize("case, branch", [
        ((7, 13, 0.0, 2, [7] * 13, False), "split"),
        ((5, 9, 0.3, 1, [3, 1, 5] * 3, False), "split"),
        ((7, 26, 0.3, 0, [7] * 26, False), "single"),
        ((6, 30, 1.0, 5, [2, 6, 4] * 10, False), "single"),
        ((4, 6, 0.3, 1, [2] * 6, True), "degenerate"),
    ])
    def test_each_branch_keeps_an_exact_record(self, case, branch):
        sample = _fit_sample(*case)
        fit = _assert_exact_record(sample)
        result = separate(sample)
        assert result.degenerate == (branch == "degenerate")
        if branch == "split":
            assert 0 < fit.mixture.r < 1 and fit.log_likelihood > fit.single_log_likelihood
        else:
            assert fit.mixture.r == 1.0 and fit.log_likelihood == fit.single_log_likelihood
            assert branch == "degenerate" or 0 < result.r_hat < 1

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 7), m=st.integers(2, 30),
           theta_b=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16),
           cut=st.lists(st.integers(1, 7), min_size=30, max_size=30),
           identical=st.booleans())
    def test_the_record_is_exact(self, n, m, theta_b, seed, cut, identical):
        fit = _assert_exact_record(_fit_sample(n, m, theta_b, seed, cut, identical))
        assert fit.log_likelihood >= fit.single_log_likelihood
