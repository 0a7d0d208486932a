import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mallows_topk import estimation
from mallows_topk.errors import (SizeError, ValidationError,
                                 VacuousBoundError)
from mallows_topk.estimation import (ConsensusEstimate, ThetaEstimate, borda,
                                     borda_estimate, borda_sample_complexity,
                                     delta_1k, eborda,
                                     empirical_pair_accuracy,
                                     estimate_theta_mle,
                                     partial_estimate_error)
from mallows_topk.model import (THETA_CAP, MallowsModel, RandomSource,
                                expected_topk_distance, log_likelihood,
                                _inv_expm1, sample_topk,
                                theta_for_expected_distance)
from mallows_topk.oracle import (delta_ik_oracle, exhaustive_kemeny,
                                 topk_distance_oracle)
from mallows_topk.rankings import Permutation, TopKRanking, kendall_full


@st.composite
def topk_samples(draw):
    """(n, rankings): n in 1..10, each ranking's k drawn on its own, or
    every k = n."""
    n = draw(st.integers(1, 10))
    full = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        items = draw(st.permutations(range(n)))
        k = n if full else draw(st.integers(1, n))
        rows.append(TopKRanking(n, k, tuple(items[:k])))
    return n, rows


class TestBorda:
    @settings(max_examples=200, deadline=None)
    @given(topk_samples())
    @example((1, [TopKRanking(1, 1, (0,))]))
    @example((4, [TopKRanking(4, 4, (2, 0, 3, 1)), TopKRanking(4, 4, (1, 2, 0, 3))]))
    @example((6, [TopKRanking(6, 1, (5,)), TopKRanking(6, 3, (4, 2, 5))]))
    def test_listed_items_precede_the_rest_in_id_order(self, case):
        n, sample = case
        order = borda(sample).items_by_rank()
        listed = {item for r in sample for item in r.items}
        assert set(order[:len(listed)]) == listed
        assert list(order[len(listed):]) == sorted(set(range(n)) - listed)

    def test_unanimous(self):
        r = TopKRanking(5, 5, (3, 0, 4, 1, 2))
        assert borda([r] * 7).items_by_rank() == (3, 0, 4, 1, 2)

    def test_single_full_ranking(self):
        r = TopKRanking(4, 4, (2, 3, 0, 1))
        assert borda([r]).items_by_rank() == (2, 3, 0, 1)

    def test_majority_swap(self):
        e = TopKRanking(3, 3, (0, 1, 2))
        swap = TopKRanking(3, 3, (1, 0, 2))
        assert borda([e, e, swap]).items_by_rank() == (0, 1, 2)

    def test_tie_break_by_item_id(self):
        a = TopKRanking(3, 3, (0, 1, 2))
        b = TopKRanking(3, 3, (1, 0, 2))
        # items 0 and 1 have equal scores -> 0 first
        assert borda([a, b]).items_by_rank() == (0, 1, 2)

    def test_sample_order_invariance(self):
        model = MallowsModel(6, Permutation.reverse(6), 0.8)
        sample = sample_topk(model, 3, 30, RandomSource(0))
        assert borda(sample) == borda(list(reversed(sample)))

    def test_item_relabeling_equivariance(self):
        model = MallowsModel(6, Permutation.identity(6), 0.8)
        sample = sample_topk(model, 3, 30, RandomSource(1))
        pi = Permutation.from_items([3, 5, 0, 2, 4, 1])
        relabeled = [TopKRanking(6, s.k, tuple(pi.ranks[i] for i in s.items))
                     for s in sample]
        expected = [pi.ranks[i] for i in borda(sample).items_by_rank()]
        assert list(borda(relabeled).items_by_rank()) == expected

    def test_recovers_consensus_often(self):
        hits = 0
        for seed in range(10):
            model = MallowsModel(8, Permutation.identity(8), 0.5)
            sample = sample_topk(model, 8, 10000, RandomSource(seed))
            hits += borda(sample) == Permutation.identity(8)
        assert hits >= 9

    def test_agrees_with_kemeny_usually(self):
        hits = 0
        for seed in range(10):
            model = MallowsModel(4, Permutation.identity(4), 1.0)
            sample = sample_topk(model, 4, 15, RandomSource(100 + seed))
            hits += exhaustive_kemeny(sample) == borda(sample)
        assert hits >= 8

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            borda([])


class TestConsensusEstimate:
    def test_prefix_invariant_enforced(self):
        comp = Permutation.from_items([2, 0, 1])
        with pytest.raises(ValidationError):
            ConsensusEstimate(TopKRanking(3, 1, (0,)), 1, (1, 1, 1), comp)

    def test_borda_estimate_coverage(self):
        sample = [TopKRanking(5, 2, (0, 1)), TopKRanking(5, 2, (1, 2))]
        est = borda_estimate(sample)
        assert est.k_prime == 3
        assert est.source_counts == (1, 2, 1, 0, 0)
        assert set(est.completion.items_by_rank()[3:]) == {3, 4}

    def test_json_round_trip_fields(self):
        sample = [TopKRanking(4, 4, (0, 1, 2, 3))] * 3
        payload = borda_estimate(sample).to_json_dict()
        assert payload["ranking"] == [1, 2, 3, 4]
        assert payload["k_prime"] == 4


class TestEborda:
    def test_degenerate_falls_back_to_borda(self):
        sample = [TopKRanking(5, 3, (0, 1, 2))] * 6
        est = eborda(sample)
        assert est.fallback
        assert est.completion == borda(sample)
        assert est.expert_indices == tuple(range(6))
        assert est.prefix_k is None
        assert est.theta_hat == borda_estimate(sample).theta_hat

    def test_degenerate_sample_runs_borda_once(self, monkeypatch):
        sample = [TopKRanking(5, 3, (0, 1, 2))] * 6
        expected = eborda(sample).to_json_dict()
        calls = []

        def counted(batch):
            calls.append(len(batch))
            return borda(batch)
        monkeypatch.setattr(estimation, "borda", counted)
        assert eborda(sample).to_json_dict() == expected
        assert calls == [6]

    def test_experts_unanimous_prefix(self):
        expert = TopKRanking(8, 3, (5, 6, 7))
        noise = [TopKRanking(8, 3, tuple(p))
                 for p in itertools.permutations(range(5), 3)][:10]
        sample = [expert] * 20 + noise
        est = eborda(sample)
        assert not est.fallback
        assert est.expert_indices == tuple(range(20))
        assert est.prefix_k == 3
        assert est.completion.items_by_rank()[:3] == (5, 6, 7)

    def test_better_than_borda_with_experts(self):
        n, k = 30, 10
        sigma0 = Permutation.identity(n)
        good = MallowsModel(n, sigma0, theta_for_expected_distance(n, k, 10.0))
        bad = MallowsModel(n, sigma0, theta_for_expected_distance(n, k, 75.0))
        e_err, b_err = [], []
        for seed in range(10):
            rng = RandomSource(11).split(seed)
            sample = (sample_topk(good, k, 4, rng.split(0))
                      + sample_topk(bad, k, 40, rng.split(1)))
            b_err.append(partial_estimate_error(borda_estimate(sample), sigma0))
            e_err.append(partial_estimate_error(eborda(sample), sigma0))
        assert sum(e_err) <= sum(b_err)

    def test_needs_two_rankings(self):
        with pytest.raises(ValidationError):
            eborda([TopKRanking(4, 2, (0, 1))])


class TestPartialEstimateError:
    def _estimate(self, n, items):
        k = len(items)
        tail = [i for i in range(n) if i not in items]
        comp = Permutation.from_items(list(items) + tail)
        ranking = comp if k == n else TopKRanking(n, k, tuple(items))
        return ConsensusEstimate(ranking, k, (1,) * n, comp)

    def test_full_estimate_is_kendall(self):
        est = self._estimate(5, (4, 2, 0, 3, 1))
        sigma0 = Permutation.from_items([1, 0, 2, 3, 4])
        assert partial_estimate_error(est, sigma0) \
            == kendall_full(est.completion, sigma0)

    def test_matches_extension_extremes(self):
        # mean of min/max over all explicit linear extensions
        n = 5
        sigma0 = Permutation.from_items([2, 0, 4, 1, 3])
        for items in itertools.permutations(range(n), 3):
            est = self._estimate(n, items)
            free = [i for i in range(n) if i not in items]
            dists = [kendall_full(Permutation.from_items(list(items) + list(tail)),
                                  sigma0)
                     for tail in itertools.permutations(free)]
            expected = (min(dists) + max(dists)) / 2
            assert partial_estimate_error(est, sigma0) == expected

    def test_shadow_width(self):
        est = self._estimate(6, (0,))
        sigma0 = Permutation.identity(6)
        assert partial_estimate_error(est, sigma0) == 5 * 4 / 4


class TestThetaMle:
    def test_recovery(self):
        n, k, theta = 5, 5, 1.43
        model = MallowsModel(n, Permutation.identity(n), theta)
        sample = sample_topk(model, k, 100000, RandomSource(2))
        hat = estimate_theta_mle(sample, model.sigma0)
        assert 1.33 <= hat <= 1.53

    def test_point_mass_clamps_to_cap(self):
        sample = [TopKRanking(5, 3, (0, 1, 2))] * 4
        est = estimate_theta_mle(sample, Permutation.identity(5), detail=True)
        assert est.theta == THETA_CAP and est.clamped == "point-mass"

    def test_uniform_boundary_clamps_to_zero(self):
        # a sample whose mean distance sits at the uniform limit
        n, k = 4, 2
        a = TopKRanking(n, k, (3, 2))  # distance 5
        b = TopKRanking(n, k, (0, 1))  # distance 0
        sample = [a, b]  # mean 2.5 = k(2n-k-1)/4
        est = estimate_theta_mle(sample, Permutation.identity(n), detail=True)
        assert est.theta == 0.0 and est.clamped == "uniform"

    def test_is_likelihood_stationary_point(self):
        model = MallowsModel(6, Permutation.identity(6), 0.8)
        sample = sample_topk(model, 4, 2000, RandomSource(3))
        hat = estimate_theta_mle(sample, model.sigma0)
        ll = lambda t: log_likelihood(MallowsModel(6, model.sigma0, t), sample)
        assert ll(hat) >= ll(hat + 0.05)
        assert ll(hat) >= ll(hat - 0.05)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), k=st.integers(1, 12),
           theta=st.floats(0.0, 5.0) | st.just(60.0), m=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    @example(n=12, k=1, theta=0.7, m=25, seed=1)
    @example(n=12, k=12, theta=0.7, m=25, seed=2)
    @example(n=7, k=3, theta=0.0, m=3, seed=3)
    @example(n=7, k=3, theta=60.0, m=3, seed=4)
    def test_single_k_is_bitwise_the_fit_at_that_k(self, n, k, theta, m, seed):
        k = min(k, n)
        sigma0 = Permutation.from_items(np.random.default_rng(seed).permutation(n).tolist())
        sample = sample_topk(MallowsModel(n, sigma0, theta), k, m, RandomSource(seed))
        est = estimate_theta_mle(sample, sigma0, detail=True)
        expected = _single_k_fit(sample, sigma0, k)
        assert (est.theta.hex(), est.clamped) == (expected.theta.hex(), expected.clamped)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 12), ks=st.sets(st.integers(1, 12), min_size=2, max_size=4),
           theta=st.floats(0.1, 2.0), m=st.integers(5, 40), seed=st.integers(0, 2**16))
    def test_mixed_k_is_a_stationary_point_of_the_likelihood(self, n, ks, theta, m, seed):
        sigma0 = Permutation.identity(n)
        model = MallowsModel(n, sigma0, theta)
        rng = RandomSource(seed)
        sample = [r for i, k in enumerate(sorted({min(k, n) for k in ks}))
                  for r in sample_topk(model, k, m, rng.split(i))]
        est = estimate_theta_mle(sample, sigma0, detail=True)
        if est.clamped is not None or est.theta in (0.0, THETA_CAP):
            return
        # log_likelihood normalizes through log_psi_total, not through the solver
        ll = lambda t: log_likelihood(MallowsModel(n, sigma0, t), sample)
        at_hat = ll(est.theta)
        tol = 1e-12 * (1 + abs(at_hat))
        assert at_hat >= ll(est.theta + 1e-3) - tol
        if est.theta >= 1e-3:
            assert at_hat >= ll(est.theta - 1e-3) - tol

    def test_mixed_lengths_recovery(self):
        # 5k draws at k=2 and 5k at k=10: E_10[D] alone would give about 0.73
        n, theta = 30, 0.5
        model = MallowsModel(n, Permutation.identity(n), theta)
        sample = (sample_topk(model, 2, 5000, RandomSource(21))
                  + sample_topk(model, 10, 5000, RandomSource(22)))
        assert abs(estimate_theta_mle(sample, model.sigma0) - theta) <= 0.02

    def test_detail_is_keyword_only(self):
        # the row lengths come from the sample; detail can only be named
        sample = [TopKRanking(5, 3, (0, 2, 1))]
        with pytest.raises(TypeError):
            estimate_theta_mle(sample, Permutation.identity(5), 3)


def _single_k_fit(sample, sigma0, k):
    """The MLE of a sample whose rows all list k items, written out: the
    clamps, then bisection on E_k[D] over [1e-9, THETA_CAP]."""
    n = sigma0.n

    def mean(theta):
        total, head = 0.0, _inv_expm1(theta)
        for j in range(1, k + 1):
            support = n - j + 1
            total += head - support * _inv_expm1(theta * support)
        return total

    mean_d = sum(topk_distance_oracle(s, sigma0) for s in sample) / len(sample)
    if mean_d <= 0:
        return ThetaEstimate(THETA_CAP, "point-mass")
    if mean_d >= k * (2 * n - k - 1) / 4.0:
        return ThetaEstimate(0.0, "uniform")
    a, b = 1e-9, THETA_CAP
    if mean(a) <= mean_d:
        return ThetaEstimate(0.0, None)
    if mean(b) >= mean_d:
        return ThetaEstimate(b, None)
    while b - a > 1e-9:
        mid = 0.5 * (a + b)
        if mean(mid) > mean_d:
            a = mid
        else:
            b = mid
    return ThetaEstimate(0.5 * (a + b), None)


THETA_GRID = [0.1, 0.5, 1.0, 2.0]


class TestDelta:
    def test_uniform_is_zero(self):
        assert delta_1k(6, 3, 0.0) == pytest.approx(0.0, abs=1e-12)
        for i in range(1, 5):
            assert delta_ik_oracle(5, 2, i, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_closed_form_matches_oracle(self, n, theta):
        for k in range(1, n + 1):
            assert delta_1k(n, k, theta) \
                == pytest.approx(delta_ik_oracle(n, k, 1, theta) if n > 1 else 0.0,
                                 abs=1e-12)

    def test_infinite_theta_is_the_limit(self):
        # P(V_j = 0) is 1 at theta = inf, not exp(-inf * 0) = nan
        assert delta_1k(8, 3, math.inf) == delta_1k(8, 3, 1e308) == 0.0
        model = MallowsModel(8, Permutation.identity(8), math.inf)
        assert [model.v_marginal(2, r) for r in range(7)] == [1.0] + [0.0] * 6

    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.01, 1.0, 700.0, math.inf])
    @pytest.mark.parametrize("n", [9, 50, 300])
    def test_reads_only_the_first_k_terms_of_each_law(self, n, theta):
        # the same sums over the full n-long laws, as MallowsModel gives them
        model = MallowsModel(n, Permutation.identity(n), theta)
        c1 = list(itertools.accumulate(model.v_marginal(1, r) for r in range(n)))
        p2 = [model.v_marginal(2, r) for r in range(n - 1)]
        for k in (1, 2, 5, n - 1):
            second = 0.0
            for r2 in range(min(k - 1, n - 1)):
                second += p2[r2] * c1[r2]
            for r2 in range(min(k, n - 1)):
                second += p2[r2] * (1.0 - c1[r2])
            assert delta_1k(n, k, theta) == c1[k - 1] - second

    def test_cost_is_independent_of_n(self):
        tracemalloc.start()
        try:
            value = delta_1k(10**6, 3, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10  # an n-long law alone would take megabytes
        assert value == pytest.approx(delta_1k(10**300, 3, 1.0), abs=1e-15)

    def test_argmin_at_first_pair(self):
        # for k >= n/2 the smallest gap is at i = 1
        for n in (5, 6):
            for k in range(math.ceil(n / 2), n):
                values = [delta_ik_oracle(n, k, i, 1.0) for i in range(1, n)]
                assert min(values) >= values[0] - 1e-12

    def test_symmetry(self):
        # Delta^{ik} = Delta^{n-i, n-k} with 1-based i
        for n in (5, 6):
            for k in range(1, n):
                for i in range(1, n):
                    assert delta_ik_oracle(n, k, i, 0.7) \
                        == pytest.approx(delta_ik_oracle(n, n - k, n - i, 0.7),
                                         abs=1e-12)

    def test_nonnegative_on_grid(self):
        for k in (2, 3):
            values = [delta_ik_oracle(5, k, i, 1.0) for i in range(1, 5)]
            assert all(v >= -1e-12 for v in values)

    def test_oracle_size_limit(self):
        with pytest.raises(SizeError):
            delta_ik_oracle(9, 3, 1, 1.0)


class TestSampleComplexity:
    def test_fixture(self):
        assert borda_sample_complexity(8, 3, 1.0, 1, 0.05) == 32

    def test_epsilon_to_one_limit(self):
        assert borda_sample_complexity(8, 3, 1.0, 1, 0.999999) <= 1

    def test_increasing_in_i(self):
        ms = [borda_sample_complexity(10, 4, 1.0, i, 0.05) for i in (1, 2, 3)]
        assert ms[0] <= ms[1] <= ms[2]

    def test_smaller_epsilon_needs_more(self):
        assert borda_sample_complexity(8, 3, 1.0, 1, 0.01) \
            > borda_sample_complexity(8, 3, 1.0, 1, 0.05)

    def test_vacuous_bound(self):
        with pytest.raises(VacuousBoundError):
            borda_sample_complexity(8, 2, 0.5, 5, 0.05)

    @pytest.mark.parametrize("n", [10**189, 10**400])
    def test_n_beyond_the_float_range_is_invalid(self, n):
        with pytest.raises(ValidationError):
            borda_sample_complexity(n, 3, 1.0, 1, 0.05)
        if n > 1e308:
            with pytest.raises(ValidationError):
                delta_1k(n, 3, 1.0)


class TestEmpiricalPairAccuracy:
    def test_concentrated_single_draw(self):
        assert empirical_pair_accuracy(6, 3, 30.0, 1, 1, 50, RandomSource(4)) \
            == 1.0

    def test_non_decreasing_in_m(self):
        rng = RandomSource(5)
        acc = [empirical_pair_accuracy(8, 3, 0.5, 1, m, 400, rng.split(m))
               for m in (10, 100, 1000)]
        se = math.sqrt(0.25 / 400)
        assert acc[0] <= acc[1] + 2 * se
        assert acc[1] <= acc[2] + 2 * se

    def test_meets_bound(self):
        m = borda_sample_complexity(8, 3, 1.0, 1, 0.1)
        acc = empirical_pair_accuracy(8, 3, 1.0, 1, m, 300, RandomSource(6))
        assert acc >= 0.9
