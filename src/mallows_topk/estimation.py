"""Consensus estimation (Borda and expert-Borda), dispersion MLE, and the
position-marginal gap machinery behind the Borda sample-complexity bound."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import mixture
from .errors import ValidationError, VacuousBoundError
from .model import (MallowsModel, RandomSource, THETA_CAP, _solve_theta,
                    log_psi_factor, sample_topk)
from .rankings import (Permutation, RankingLike, TopKRanking, _as_batch,
                       _distances_to_full, kendall_topk)


# ---------------------------------------------------------------------------
# Borda and expert-Borda
# ---------------------------------------------------------------------------


def _borda_scores(sample: Sequence[TopKRanking]) -> np.ndarray:
    """Per-item rank sums; each voter assigns its listed ranks and imputes
    (k + n - 1)/2 — the mean of the positions it left open — to the rest.
    Every term is a multiple of 1/2, so the float sums are exact in any order."""
    batch = _as_batch(sample)
    n, items = batch.n, batch.items
    imputed = (batch.ks + n - 1) / 2.0
    scores = np.full(n, imputed.sum())
    for r in range(items.shape[1]):
        listed = items[:, r] >= 0
        scores += np.bincount(items[listed, r], weights=r - imputed[listed], minlength=n)
    return scores


def borda(sample: Sequence[TopKRanking]) -> Permutation:
    """Items sorted by ascending rank sum; ties broken by ascending item id."""
    if not sample:
        raise ValidationError("sample must be non-empty")
    # a stable sort keeps tied items in ascending id order
    return Permutation.from_items(np.argsort(_borda_scores(sample), kind="stable").tolist())


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


def _vote_counts(sample: Sequence[TopKRanking]) -> list:
    batch = _as_batch(sample)
    return np.bincount(batch._ids(), minlength=batch.n).tolist()


def _trusting_the_voted(completion: Permutation, counts: list, method: str,
                        theta: float, **fields) -> ConsensusEstimate:
    """The estimate trusting the voted items, which `completion` lists first."""
    k_prime = int(np.count_nonzero(counts))
    ranking = completion if k_prime == completion.n else completion.top_k(k_prime)
    return ConsensusEstimate(ranking, k_prime, tuple(counts), completion,
                             method, theta, **fields)


def borda_estimate(sample: Sequence[TopKRanking]) -> ConsensusEstimate:
    """Borda wrapped as an estimate whose trusted positions are the items at
    least one voter ranked.  Borda's order already lists them first: a listed
    rank is at most k - 1 < (k + n - 1)/2, the score of an unlisted item, and
    the stable sort leaves the never-ranked items last in ascending id order."""
    sample = _as_batch(sample)
    completion = borda(sample)
    return _trusting_the_voted(completion, _vote_counts(sample), "borda",
                               estimate_theta_mle(sample, completion))


def eborda(sample: Sequence[TopKRanking], method: str = "gap") -> ConsensusEstimate:
    """Expert Borda: separate the voters, let the expert cluster decide the
    positions it covers, and fill the remainder from the whole sample.

    Defaults to largest-gap clustering: aggregation needs high-precision
    expert identification, and when no clear gap exists the method degrades
    to a near-whole-sample cluster, i.e. essentially plain Borda.  Degenerate
    separation (indistinguishable voters) makes every voter an expert, which
    is plain Borda, with the fallback flag set.
    """
    sample = _as_batch(sample)
    result = mixture.separate(sample, method=method)  # raises on fewer than two
    experts = sample[np.array(result.expert_flags)]
    # Borda orders the items with a vote first (see borda_estimate); on a
    # degenerate split the experts are the whole sample, whose Borda is known
    order = result.consensus if result.degenerate else borda(experts)
    prefix = order.items_by_rank()[:np.count_nonzero(_vote_counts(experts))]
    # the expert prefix, then the whole sample's order without its items
    completion = Permutation.from_items(
        tuple(dict.fromkeys(prefix + result.consensus.items_by_rank())))
    return _trusting_the_voted(
        completion, _vote_counts(sample), "eborda", result.theta_g_hat,
        fallback=result.degenerate,
        expert_indices=tuple(i for i, f in enumerate(result.expert_flags) if f),
        prefix_k=None if result.degenerate else len(prefix))


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


def estimate_theta_mle(sample: Sequence[TopKRanking], sigma0: Permutation, *,
                       detail: bool = False):
    """The MLE of theta: the root of the score equation sum_s d_s =
    sum_s E_{k_s}[D](theta) over the sample's own row lengths k_s.  E_k[D] sums
    E[V_j] over j <= k (Fligner & Verducci 1986), so the mean distance is
    matched by sum_j W_j E[V_j], W_j the share of rows that list a j-th item.
    Degenerate samples clamp to the cap (all at sigma0) or to 0 (uniform)."""
    if not sample:
        raise ValidationError("sample must be non-empty")
    batch = _as_batch(sample, sigma0.n)
    est = _theta_mle(_distances_to_full(batch, sigma0), batch.ks, sigma0.n)
    return est if detail else est.theta


def _theta_mle(d: np.ndarray, ks: np.ndarray, n: int) -> ThetaEstimate:
    """`estimate_theta_mle` from the distances d of rows of lengths ks."""
    m = len(ks)
    mean_d = int(d.sum()) / m
    terms, listed = [], m  # listed = #{s : k_s >= j}
    for j, count in enumerate(np.bincount(ks).tolist()[1:], 1):
        terms.append((listed / m, n - j + 1))
        listed -= count
    if mean_d <= 0:
        return ThetaEstimate(THETA_CAP, "point-mass")
    if mean_d >= sum(w * (support - 1) for w, support in terms) / 2:
        return ThetaEstimate(0.0, "uniform")
    return ThetaEstimate(_solve_theta(terms, mean_d), None)


# ---------------------------------------------------------------------------
# Position-marginal gaps
# ---------------------------------------------------------------------------


def delta_1k(n: int, k: int, theta: float) -> float:
    """P(item 1 listed in the top k) - P(item 2 listed), consensus = identity.

    Uses the independent inversion-count marginals: the first item sits at
    position V_1 + 1, the second at V_2 + 1 + [V_1 <= V_2], so both terms
    reduce to prefix sums of the two truncated-geometric laws.  Only their
    first k terms are read, so this is O(k) for any n.
    """
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if n == 1 or k == n:
        return 0.0
    try:
        float(n)  # the laws below are evaluated in floats
    except OverflowError:
        raise ValidationError("n is beyond the float range") from None

    def law(j: int, count: int) -> list:
        """P(V_j = r) for r < count, as MallowsModel.v_marginal computes it."""
        log_psi = log_psi_factor(theta, n - j + 1)
        return [math.exp(-log_psi - theta * r if r else -log_psi) for r in range(count)]

    c1 = list(itertools.accumulate(law(1, k)))  # c1[r] = P(V_1 <= r)
    # V_2 is deterministic when n = 2 (only one slot remains)
    p2 = [1.0] if n == 2 else law(2, min(k, n - 1))
    first = c1[k - 1]
    second = 0.0
    for r2 in range(min(k - 1, n - 1)):
        second += p2[r2] * c1[r2]  # V_1 <= V_2: item 2 lands at V_2 + 2 <= k
    for r2 in range(min(k, n - 1)):
        second += p2[r2] * (1.0 - c1[r2])  # V_1 > V_2: item 2 lands at V_2 + 1
    return first - second


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
    try:
        gap = _borda_leading_term(n, k, theta) - i * delta_1k(n, k, theta)
        if gap <= 0:
            raise VacuousBoundError("sample-complexity bound is vacuous here")
        return math.ceil(2 * n**2 * math.log(1 / epsilon) / gap**2)
    except (OverflowError, ZeroDivisionError):
        raise ValidationError("the sample-size bound is out of float range") from None


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
