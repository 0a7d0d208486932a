"""The batched item-array kernels against their per-ranking references.

Integer distances and delta numerators must match exactly; the batched
log-likelihoods and Borda scores must equal the per-ranking sums bit for bit.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mallows_topk.estimation import _borda_scores
from mallows_topk.mixture import (ConcentricMixture, mean_distances,
                                  mixture_log_likelihood,
                                  pairwise_topk_distances, sample_mixture,
                                  separate)
from mallows_topk.model import (THETA_CAP, MallowsModel, RandomSource,
                                log_likelihood, log_psi_total)
from mallows_topk.rankings import (Permutation, TopKRanking,
                                   _distances_to_full, _item_array,
                                   kendall_topk)


def _topk(n, perm, k):
    return TopKRanking(n, k, tuple(perm[:k]))


@st.composite
def samples(draw):
    """A sample of mixed-k top-k rankings of n <= 7 items, and a consensus."""
    n = draw(st.integers(1, 7))
    sample = [_topk(n, draw(st.permutations(range(n))), draw(st.integers(1, n)))
              for _ in range(draw(st.integers(2, 8)))]
    return sample, Permutation(n, tuple(draw(st.permutations(range(n)))))


SMALL = (
    ([_topk(1, [0], 1)] * 2, Permutation.identity(1)),
    ([_topk(2, [1, 0], 1), _topk(2, [0, 1], 2)], Permutation.identity(2)),
    ([_topk(5, [4, 2, 0, 1, 3], 1), _topk(5, [1, 3, 0, 2, 4], 5),
      _topk(5, [3, 4, 1, 0, 2], 3)], Permutation.reverse(5)),
)


def _small_examples(*params):
    """One @example per SMALL case and per dict of the remaining arguments."""
    def decorate(test):
        for case in SMALL:
            for extra in params or ({},):
                test = example(case=case, **extra)(test)
        return test
    return decorate


def _reference_log_probability(model, s):
    d = kendall_topk(s, model.sigma0)
    return (-model.theta * d + log_psi_total(model.theta, model.n - s.k)
            - log_psi_total(model.theta, model.n))


THETAS = st.sampled_from([0.0, 0.35, 1.7, THETA_CAP])


@settings(max_examples=200, deadline=None)
@given(case=samples())
@_small_examples()
def test_distance_kernel_equals_kendall_topk(case):
    sample, sigma0 = case
    expected = [kendall_topk(s, sigma0) for s in sample]
    got = _distances_to_full(_item_array(sample, sigma0.n), sigma0)
    assert got.dtype == np.int64 and got.tolist() == expected
    model = MallowsModel(sigma0.n, sigma0, 1.0)
    assert [model.distance_to_consensus(s) for s in sample] == expected


@settings(max_examples=200, deadline=None)
@given(case=samples())
@_small_examples()
def test_mean_distances_equal_the_all_pairs_mean(case):
    sample, _ = case
    d = pairwise_topk_distances(sample)
    for i, s in enumerate(sample):
        assert d[i].tolist() == [kendall_topk(s, t) for t in sample]
    expected = d.sum(axis=1) / (len(sample) - 1)
    got = mean_distances(sample)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=samples(), theta=THETAS)
@_small_examples({"theta": 0.0}, {"theta": THETA_CAP})
def test_log_likelihood_equals_the_per_ranking_sum(case, theta):
    sample, sigma0 = case
    model = MallowsModel(sigma0.n, sigma0, theta)
    expected = math.fsum(_reference_log_probability(model, s) for s in sample)
    assert log_likelihood(model, sample) == expected


@settings(max_examples=100, deadline=None)
@given(case=samples(), thetas=st.lists(THETAS, min_size=2, max_size=2),
       r=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@_small_examples({"thetas": [0.0, THETA_CAP], "r": 0.5},
                 {"thetas": [THETA_CAP, THETA_CAP], "r": 0.3})
def test_mixture_log_likelihood_equals_the_per_ranking_sum(case, thetas, r):
    sample, sigma0 = case
    theta_b, theta_g = sorted(thetas)
    mix = ConcentricMixture(sigma0, theta_g, theta_b, r)
    good, bad = mix.expert_model(), mix.nonexpert_model()
    if r in (0.0, 1.0):
        model = good if r == 1.0 else bad
        expected = math.fsum(_reference_log_probability(model, s) for s in sample)
    else:
        expected = 0.0
        for s in sample:  # left to right, one logaddexp per ranking
            expected += np.logaddexp(
                math.log(r) + _reference_log_probability(good, s),
                math.log1p(-r) + _reference_log_probability(bad, s))
    assert mixture_log_likelihood(mix, sample) == float(expected)


@settings(max_examples=200, deadline=None)
@given(case=samples())
@_small_examples()
def test_borda_scores_equal_the_per_ranking_sum(case):
    sample, _ = case
    n = sample[0].n
    expected = np.zeros(n)
    for s in sample:
        row = np.full(n, (s.k + n - 1) / 2.0)
        row[list(s.items)] = range(s.k)
        expected += row
    assert _borda_scores(sample).tobytes() == expected.tobytes()


def test_separate_allocates_no_pairwise_array():
    # m = 10^4 rankings of n = 100 items: the (m, n(n-1)/2) int64 pair-sign
    # matrix alone would be about 400 MB.
    mix = ConcentricMixture(Permutation.identity(100), 1.0, 0.05, 0.5)
    sample = sample_mixture(mix, 10, 10**4, RandomSource(3)).rankings
    tracemalloc.start()
    try:
        result = separate(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.degenerate
    assert peak < 64 * 2**20
