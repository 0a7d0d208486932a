"""Exhaustive ground truth for small n.

Everything here is computed by direct enumeration of permutations and pair
counting, deliberately avoiding the closed forms and the distance kernels
used elsewhere, so it can serve as an independent check.  Of `rankings` it
uses only the two ranking types.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, SizeError, ValidationError
from .rankings import Permutation, TopKRanking

MAX_EXHAUSTIVE_N = 8


def _check_size(n: int, limit: int = MAX_EXHAUSTIVE_N) -> None:
    if n > limit:
        raise SizeError(f"exhaustive enumeration limited to n <= {limit}")


def enumerate_topk(n: int, k: int) -> list:
    """All n!/(n-k)! top-k rankings, in lexicographic item order."""
    _check_size(n)
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    return [TopKRanking(n, k, items) for items in itertools.permutations(range(n), k)]


def _full_lists(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _inversions(lists: np.ndarray) -> np.ndarray:
    """Discordant-pair count of each preference-ordered list vs the identity."""
    n = lists.shape[1]
    d = np.zeros(lists.shape[0], dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d += lists[:, i] > lists[:, j]
    return d


def exact_topk_distribution(n: int, k: int, theta: float,
                            sigma0: Optional[Permutation] = None) -> Dict[tuple, float]:
    """Exact top-k probabilities by summing every linear extension's weight.

    Returns {items tuple: probability}; probabilities sum to 1 up to
    compensated-summation accuracy.
    """
    _check_size(n)
    if sigma0 is None:
        sigma0 = Permutation.identity(n)
    lists = _full_lists(n)
    relabeled = np.array(sigma0.ranks, dtype=np.int64)[lists]
    d = _inversions(relabeled)
    log_w = -theta * d.astype(float)
    mx = log_w.max()
    w = np.exp(log_w - mx)
    z = math.fsum(w.tolist())
    acc: Dict[tuple, list] = {}
    for row, weight in zip(lists.tolist(), w.tolist()):
        acc.setdefault(tuple(row[:k]), []).append(weight)
    return {key: math.fsum(ws) / z for key, ws in acc.items()}


def delta_ik_oracle(n: int, k: int, i: int, theta: float) -> float:
    """Exhaustive P(sigma(i) <= k) - P(sigma(i+1) <= k), items 1-based,
    consensus = identity; n <= 8."""
    _check_size(n)
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


def _sentinel_rank_matrix(objects: Sequence[tuple], n: int, k: int) -> np.ndarray:
    ranks = np.full((len(objects), n), k, dtype=np.int64)
    rows = np.arange(len(objects))
    for r in range(k):
        ranks[rows, [o[r] for o in objects]] = r
    return ranks


def topk_distance_oracle(sigma, pi) -> int:
    """Top-k Kendall distance of two rankings of either type, by counting
    every item pair: a pair adds 1 when both rankings order it strictly and
    oppositely.  An unlisted item ranks at its list's length.  O(n^2)."""
    if sigma.n != pi.n:
        raise DimensionError("mismatched item counts")
    a, b = (list(r.ranks) if isinstance(r, Permutation)
            else _sentinel_rank_matrix([r.items], r.n, r.k)[0].tolist()
            for r in (sigma, pi))
    count = 0
    for i in range(sigma.n):
        for j in range(i + 1, sigma.n):
            if (a[i] - a[j]) * (b[i] - b[j]) < 0:
                count += 1
    return count


def pairwise_distance_matrix(objects: Sequence[tuple], n: int, k: int) -> np.ndarray:
    """All-pairs top-k Kendall distances (vectorized pair-sign counting)."""
    ranks = _sentinel_rank_matrix(objects, n, k)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    signs = np.stack([np.sign(ranks[:, i] - ranks[:, j]) for i, j in pairs], axis=1)
    signs = signs.astype(np.float32)
    magnitude = np.abs(signs)
    nonzero = magnitude @ magnitude.T
    dot = signs @ signs.T
    return np.round((nonzero - dot) / 2).astype(np.int64)


@dataclass
class ExhaustiveTable:
    """Every top-k object with its exact probability, plus cached moments."""

    n: int
    k: int
    theta: float
    sigma0: Permutation = None
    objects: list = field(init=False)
    probs: np.ndarray = field(init=False)
    distances: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_size(self.n)
        if self.sigma0 is None:
            self.sigma0 = Permutation.identity(self.n)
        dist = exact_topk_distribution(self.n, self.k, self.theta, self.sigma0)
        self.objects = sorted(dist)
        self.probs = np.array([dist[o] for o in self.objects])
        ranks = _sentinel_rank_matrix(self.objects, self.n, self.k)
        consensus = np.array(self.sigma0.ranks, dtype=np.int64)
        d = np.zeros(len(self.objects), dtype=np.int64)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                d += (ranks[:, i] - ranks[:, j]) * (consensus[i] - consensus[j]) < 0
        self.distances = d  # distance of each top-k object to the full consensus

    def probability(self, sigma: TopKRanking) -> float:
        return dict(zip(self.objects, self.probs))[sigma.items]

    def expected_distance(self) -> float:
        return float(self.probs @ self.distances)

    def variance_distance(self) -> float:
        mean = self.expected_distance()
        return float(self.probs @ (self.distances.astype(float) - mean) ** 2)

    def pairwise_expected_distance(self, other: "ExhaustiveTable") -> float:
        """E[d(sigma, sigma')] for independent draws from this table and `other`."""
        if (self.n, self.k) != (other.n, other.k):
            raise ValidationError("tables must share n and k")
        d = pairwise_distance_matrix(self.objects, self.n, self.k).astype(float)
        return float(self.probs @ d @ other.probs)


class MixtureExpectations(NamedTuple):
    e_gamma: float        # E[d(gamma, sigma0)], expert component
    e_beta: float         # E[d(beta, sigma0)], non-expert component
    e_gamma_pair: float   # E[d(gamma, gamma')]
    e_beta_pair: float    # E[d(beta, beta')]
    e_cross: float        # E[d(beta, gamma)]


def exact_expectations(n: int, k: int, theta_g: float, theta_b: float,
                       sigma0: Optional[Permutation] = None) -> MixtureExpectations:
    """Exact within/cross expected distances of a two-component concentric model."""
    _check_size(n, 7)
    good = ExhaustiveTable(n, k, theta_g, sigma0)
    bad = ExhaustiveTable(n, k, theta_b, sigma0)
    return MixtureExpectations(
        e_gamma=good.expected_distance(),
        e_beta=bad.expected_distance(),
        e_gamma_pair=good.pairwise_expected_distance(good),
        e_beta_pair=bad.pairwise_expected_distance(bad),
        e_cross=bad.pairwise_expected_distance(good),
    )


def exhaustive_kemeny(sample: Sequence[TopKRanking]) -> Permutation:
    """argmin over all full rankings of the total top-k Kendall distance.

    Ties resolved by lexicographic preference order.  n <= 5 only.
    """
    if not sample:
        raise ValidationError("sample must be non-empty")
    n = sample[0].n
    _check_size(n, 5)
    best = None
    best_cost = None
    for items in itertools.permutations(range(n)):
        candidate = Permutation.from_items(items)
        cost = sum(topk_distance_oracle(candidate, s) for s in sample)
        if best_cost is None or cost < best_cost:
            best, best_cost = candidate, cost
    return best
