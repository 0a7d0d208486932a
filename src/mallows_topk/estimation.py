"""Consensus estimation (Borda and expert-Borda), dispersion MLE, and the
position-marginal gap machinery behind the Borda sample-complexity bound."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import mixture
from .errors import SizeError, ValidationError, VacuousBoundError
from .model import (MallowsModel, RandomSource, THETA_CAP, sample_topk,
                    theta_for_expected_distance, uniform_limit_distance)
from .oracle import MAX_EXHAUSTIVE_N, _full_lists, _inversions
from .rankings import (Permutation, TopKRanking, _distances_to_full,
                       _item_array, kendall_topk)

RankingLike = Union[Permutation, TopKRanking]


# ---------------------------------------------------------------------------
# Borda and expert-Borda
# ---------------------------------------------------------------------------


def _borda_scores(sample: Sequence[TopKRanking]) -> np.ndarray:
    """Per-item rank sums; each voter assigns its listed ranks and imputes
    (k + n - 1)/2 — the mean of the positions it left open — to the rest.
    Every term is a multiple of 1/2, so the float sums are exact in any order."""
    n = sample[0].n
    items = _item_array(sample, n)
    imputed = ((items >= 0).sum(axis=1) + n - 1) / 2.0
    scores = np.full(n, imputed.sum())
    for r in range(items.shape[1]):
        listed = items[:, r] >= 0
        scores += np.bincount(items[listed, r], weights=r - imputed[listed], minlength=n)
    return scores


def borda(sample: Sequence[TopKRanking]) -> Permutation:
    """Items sorted by ascending rank sum; ties broken by ascending item id."""
    if not sample:
        raise ValidationError("sample must be non-empty")
    n = sample[0].n
    if any(s.n != n for s in sample):
        raise ValidationError("sample has mixed item counts")
    scores = _borda_scores(sample)
    order = sorted(range(n), key=lambda item: (scores[item], item))
    return Permutation.from_items(order)


@dataclass
class ConsensusEstimate:
    """A consensus ranking whose first k_prime positions are trusted.

    `ranking` carries only the trusted prefix (a full Permutation when
    k_prime = n); `completion` always extends it to a full order.
    """

    ranking: RankingLike
    k_prime: int
    source_counts: tuple
    completion: Permutation
    method: str = "borda"
    theta_hat: Optional[float] = None
    fallback: bool = False
    expert_indices: Optional[tuple] = None
    prefix_k: Optional[int] = None  # expert-decided prefix length (eborda)

    def __post_init__(self):
        prefix = (self.ranking.items_by_rank()[: self.k_prime]
                  if isinstance(self.ranking, Permutation) else self.ranking.items)
        if tuple(prefix) != self.completion.items_by_rank()[: self.k_prime]:
            raise ValidationError("trusted positions must form the completion's prefix")

    @property
    def n(self) -> int:
        return self.completion.n

    def to_json_dict(self) -> dict:
        return {
            "ranking": [i + 1 for i in self.completion.items_by_rank()],
            "k_prime": self.k_prime,
            "theta_hat": self.theta_hat,
            "method": self.method,
            "fallback": self.fallback,
            "source_counts": list(self.source_counts),
            "expert_indices": (None if self.expert_indices is None
                               else list(self.expert_indices)),
            "prefix_k": self.prefix_k,
        }


def _vote_counts(sample: Sequence[TopKRanking], n: int) -> list:
    items = _item_array(sample, n)
    return np.bincount(items[items >= 0], minlength=n).tolist()


def borda_estimate(sample: Sequence[TopKRanking]) -> ConsensusEstimate:
    """Borda wrapped as an estimate whose trusted positions are the items at
    least one voter ranked; never-ranked items sit at the end, untrusted."""
    perm = borda(sample)
    n = perm.n
    counts = _vote_counts(sample, n)
    ranked = [item for item in perm.items_by_rank() if counts[item] > 0]
    unranked = [item for item in range(n) if counts[item] == 0]
    k_prime = len(ranked)
    completion = Permutation.from_items(ranked + unranked)
    ranking: RankingLike = (completion if k_prime == n
                            else TopKRanking(n, k_prime, tuple(ranked)))
    theta = estimate_theta_mle(sample, completion, max(s.k for s in sample))
    return ConsensusEstimate(ranking, k_prime, tuple(counts), completion,
                             "borda", theta)


def eborda(sample: Sequence[TopKRanking], method: str = "gap") -> ConsensusEstimate:
    """Expert Borda: separate the voters, let the expert cluster decide the
    positions it covers, and fill the remainder from the whole sample.

    Defaults to largest-gap clustering: aggregation needs high-precision
    expert identification, and when no clear gap exists the method degrades
    to a near-whole-sample cluster, i.e. essentially plain Borda.  Degenerate
    separation (indistinguishable voters) falls back to plain Borda with the
    fallback flag set.
    """
    if len(sample) < 2:
        raise ValidationError("need at least two rankings")
    result = mixture.separate(sample, method=method)
    if result.degenerate:
        est = borda_estimate(sample)
        est.method = "eborda"
        est.fallback = True
        est.expert_indices = tuple(range(len(sample)))
        return est
    experts = [s for s, f in zip(sample, result.expert_flags) if f]
    n = sample[0].n
    expert_counts = _vote_counts(experts, n)
    all_counts = _vote_counts(sample, n)
    expert_ranked = {item for item, c in enumerate(expert_counts) if c > 0}
    expert_order = borda(experts).items_by_rank()
    prefix = [item for item in expert_order if item in expert_ranked]
    whole_order = borda(sample).items_by_rank()
    middle = [item for item in whole_order
              if item not in expert_ranked and all_counts[item] > 0]
    unranked = [item for item in range(n)
                if item not in expert_ranked and all_counts[item] == 0]
    k_prime = len(prefix) + len(middle)
    completion = Permutation.from_items(prefix + middle + unranked)
    ranking: RankingLike = (completion if k_prime == n
                            else TopKRanking(n, k_prime, tuple(prefix + middle)))
    expert_idx = tuple(i for i, f in enumerate(result.expert_flags) if f)
    return ConsensusEstimate(ranking, k_prime, tuple(all_counts), completion,
                             "eborda", result.theta_g_hat,
                             expert_indices=expert_idx, prefix_k=len(prefix))


def partial_estimate_error(estimate: ConsensusEstimate, sigma0: Permutation) -> float:
    """Mean of the best- and worst-case full-ranking distances to sigma0.

    The trusted prefix fixes d_min; the n - k_prime free items can add at most
    C(n - k_prime, 2) discordances, so the mean is d_min + C(..., 2)/2.
    """
    if estimate.n != sigma0.n:
        raise ValidationError("mismatched item counts")
    prefix: RankingLike = estimate.ranking
    if isinstance(prefix, Permutation) and estimate.k_prime < sigma0.n:
        prefix = prefix.top_k(estimate.k_prime)
    d_min = kendall_topk(prefix, sigma0)
    u = sigma0.n - estimate.k_prime
    return d_min + u * (u - 1) / 4.0


# ---------------------------------------------------------------------------
# Dispersion MLE
# ---------------------------------------------------------------------------


class ThetaEstimate(NamedTuple):
    theta: float
    clamped: Optional[str]  # None | "point-mass" | "uniform"


def estimate_theta_mle(sample: Sequence[TopKRanking], sigma0: Permutation,
                       k: int, detail: bool = False):
    """Moment-matching MLE: the distance is the model's sufficient statistic,
    so matching its mean maximizes the likelihood.  Bisection on [1e-9, 50];
    degenerate samples clamp to the cap (all at sigma0) or to 0 (uniform)."""
    if not sample:
        raise ValidationError("sample must be non-empty")
    d = _distances_to_full(_item_array(sample, sigma0.n), sigma0)
    mean_d = int(d.sum()) / len(sample)
    if mean_d <= 0:
        est = ThetaEstimate(THETA_CAP, "point-mass")
    elif mean_d >= uniform_limit_distance(sigma0.n, k):
        est = ThetaEstimate(0.0, "uniform")
    else:
        est = ThetaEstimate(theta_for_expected_distance(sigma0.n, k, mean_d), None)
    return est if detail else est.theta


# ---------------------------------------------------------------------------
# Position-marginal gaps
# ---------------------------------------------------------------------------


def delta_1k(n: int, k: int, theta: float) -> float:
    """P(item 1 listed in the top k) - P(item 2 listed), consensus = identity.

    Uses the independent inversion-count marginals: the first item sits at
    position V_1 + 1, the second at V_2 + 1 + [V_1 <= V_2], so both terms
    reduce to prefix sums of the two truncated-geometric laws; O(n + k).
    """
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if n == 1 or k == n:
        return 0.0
    model = MallowsModel(n, Permutation.identity(n), theta)
    p1 = [model.v_marginal(1, r) for r in range(n)]
    c1 = list(itertools.accumulate(p1))  # c1[r] = P(V_1 <= r)
    # V_2 is deterministic when n = 2 (only one slot remains)
    p2 = [1.0] if n == 2 else [model.v_marginal(2, r) for r in range(n - 1)]
    first = c1[k - 1]
    second = 0.0
    for r2 in range(min(k - 1, n - 1)):
        second += p2[r2] * c1[r2]  # V_1 <= V_2: item 2 lands at V_2 + 2 <= k
    for r2 in range(min(k, n - 1)):
        second += p2[r2] * (1.0 - c1[r2])  # V_1 > V_2: item 2 lands at V_2 + 1
    return first - second


def delta_ik_oracle(n: int, k: int, i: int, theta: float) -> float:
    """Exhaustive P(sigma(i) <= k) - P(sigma(i+1) <= k), items 1-based,
    consensus = identity; n <= 8."""
    if n > MAX_EXHAUSTIVE_N:
        raise SizeError(f"exhaustive enumeration limited to n <= {MAX_EXHAUSTIVE_N}")
    if not 1 <= i <= n - 1:
        raise ValidationError("i must satisfy 1 <= i <= n-1")
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    lists = _full_lists(n)
    log_w = -theta * _inversions(lists).astype(float)
    w = np.exp(log_w - log_w.max())
    total = math.fsum(w.tolist())
    top = lists[:, :k]
    hit_i = (top == i - 1).any(axis=1)
    hit_next = (top == i).any(axis=1)
    return (math.fsum(w[hit_i].tolist()) - math.fsum(w[hit_next].tolist())) / total


@dataclass
class DeltaTable:
    """All gaps Delta^{ik}, i = 1..n-1, for one (n, k, theta)."""

    n: int
    k: int
    theta: float
    values: tuple = field(init=False)
    exact: bool = field(init=False, default=True)

    def __post_init__(self):
        self.values = tuple(delta_ik_oracle(self.n, self.k, i, self.theta)
                            for i in range(1, self.n))

    def value(self, i: int) -> float:
        if not 1 <= i <= self.n - 1:
            raise ValidationError("i must satisfy 1 <= i <= n-1")
        return self.values[i - 1]


# ---------------------------------------------------------------------------
# Borda sample complexity and its empirical companion
# ---------------------------------------------------------------------------


def _borda_leading_term(n: int, k: int, theta: float) -> float:
    """k^2 (1 - e^-theta)^2 / (1 - e^-theta n): the gap term that i Delta_1k offsets."""
    return k**2 * (-math.expm1(-theta)) ** 2 / (-math.expm1(-theta * n))


def borda_sample_complexity(n: int, k: int, theta: float, i: int,
                            epsilon: float) -> int:
    """Sample size sufficient for Borda to order items i, i+1 correctly with
    probability >= 1 - epsilon."""
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if theta <= 0:
        raise ValidationError("theta must be positive")
    if not 1 <= i <= n - 1:
        raise ValidationError("i must satisfy 1 <= i <= n-1")
    gap = _borda_leading_term(n, k, theta) - i * delta_1k(n, k, theta)
    if gap <= 0:
        raise VacuousBoundError("sample-complexity bound is vacuous here")
    return math.ceil(2 * n**2 * math.log(1 / epsilon) / gap**2)


def empirical_pair_accuracy(n: int, k: int, theta: float, i: int, m: int,
                            trials: int, rng: RandomSource) -> float:
    """Fraction of trials in which Borda on m draws ranks item i above item
    i+1 (items 1-based, consensus = identity)."""
    if not 1 <= i <= n - 1:
        raise ValidationError("i must satisfy 1 <= i <= n-1")
    if m < 1 or trials < 1:
        raise ValidationError("m and trials must be positive")
    model = MallowsModel(n, Permutation.identity(n), theta)
    hits = 0
    for t in range(trials):
        sample = sample_topk(model, k, m, rng.split(t))
        est = borda(sample)
        hits += est.ranks[i - 1] < est.ranks[i]
    return hits / trials
