"""Single-component Mallows model for top-k rankings.

Normalization constants, exact probabilities, quasi-linear sampling, moments
of the distance, and pairwise marginals.  All probability accumulation is
done in log-space; the theta = 0 uniform case is handled by explicit limit
branches rather than 0/0 expressions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .rankings import (
    Permutation,
    TopKRanking,
    _decode_inversions,
    _distances_to_full,
    _item_array,
    kendall_topk,
    to_inversion_vector,
)

THETA_CAP = 50.0  # beyond this the distribution is numerically a point mass


class RandomSource:
    """Deterministic, splittable random stream (same seed, same outputs)."""

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)
        self._sequence = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self.generator = np.random.default_rng(self._sequence)

    def split(self, index: int) -> "RandomSource":
        """Independent child stream, derived deterministically from (seed, index path)."""
        return RandomSource(self.seed, (*self._spawn_key, int(index)))


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0, numerically stable on both branches."""
    if x <= 0:
        raise ValueError("x must be positive")
    if x <= math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def _inv_expm1(x: float) -> float:
    """1 / (exp(x) - 1), with a series branch for small x."""
    if x < 1e-4:
        return 1.0 / x - 0.5 + x / 12.0 - x**3 / 720.0
    if x > 700.0:  # expm1 would overflow; the value underflows to 0 anyway
        return 0.0
    return 1.0 / math.expm1(x)


def _exp_over_sq(x: float) -> float:
    """exp(-x) / (1 - exp(-x))^2 = 1 / (4 sinh^2(x/2)), series branch for small x."""
    if x < 1e-3:
        return 1.0 / (x * x) - 1.0 / 12.0 + x * x / 240.0
    e = math.expm1(-x)
    return math.exp(-x) / (e * e)


def log_psi_factor(theta: float, support: int) -> float:
    """log sum_{r=0}^{support-1} exp(-theta r)  (one psi_{n,j} with n-j+1 = support)."""
    if support < 1:
        raise ValidationError("support must be >= 1")
    if support == 1:
        return 0.0
    if theta == 0.0:
        return math.log(support)
    return _log1mexp(theta * support) - _log1mexp(theta)


def log_psi_total(theta: float, m: int) -> float:
    """log of the full-normalization product for m items (1 for m <= 1)."""
    return sum(log_psi_factor(theta, m - j + 1) for j in range(1, m))


@dataclass(frozen=True)
class MallowsModel:
    """Mallows distribution on rankings of n items: p proportional to exp(-theta * d(., sigma0))."""

    n: int
    sigma0: Permutation
    theta: float
    log_psi_factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.sigma0.n != self.n:
            raise DimensionError("consensus ranking has the wrong item count")
        if not (self.theta >= 0.0):
            raise ValidationError("theta must be >= 0")
        factors = tuple(
            log_psi_factor(self.theta, self.n - j + 1) for j in range(1, self.n)
        )
        object.__setattr__(self, "log_psi_factors", factors)

    @classmethod
    def uniform(cls, n: int) -> "MallowsModel":
        return cls(n, Permutation.identity(n), 0.0)

    def log_psi(self, upto: Optional[int] = None) -> float:
        """log prod_{j=1}^{upto} psi_{n,j}; full normalization when upto is omitted."""
        if upto is None:
            upto = self.n - 1
        if not 1 <= upto <= self.n - 1:
            raise ValidationError("upto must satisfy 1 <= upto <= n-1")
        return sum(self.log_psi_factors[:upto])

    def psi(self, upto: Optional[int] = None) -> float:
        return math.exp(self.log_psi(upto))

    def v_marginal(self, j: int, r: int) -> float:
        """P(V_j = r) = exp(-theta r) / psi_{n,j}; j is 1-based, r in 0..n-j."""
        if not 1 <= j <= self.n - 1:
            raise ValidationError("j must satisfy 1 <= j <= n-1")
        if not 0 <= r <= self.n - j:
            raise ValidationError(f"r={r} outside 0..{self.n - j}")
        return math.exp(-self.theta * r - self.log_psi_factors[j - 1])

    def _relabel(self, sigma: TopKRanking) -> TopKRanking:
        """Express sigma in consensus-rank space (right-invariance reduction)."""
        if sigma.n != self.n:
            raise DimensionError("ranking has the wrong item count")
        return TopKRanking(self.n, sigma.k, tuple(self.sigma0.ranks[i] for i in sigma.items))

    def distance_to_consensus(self, sigma: TopKRanking) -> int:
        return int(_distances_to_full(_item_array([sigma], self.n), self.sigma0)[0])

    def log_topk_probability(self, sigma: TopKRanking) -> float:
        d = self.distance_to_consensus(sigma)
        return float(self._log_topk_probabilities(d, sigma.k))

    def _log_topk_probabilities(self, d, ks):
        """Log top-k probabilities of rankings at distances d with lengths ks;
        log_psi_total runs once per distinct k."""
        head = np.zeros(self.n + 1)
        for k in np.unique(ks).tolist():
            head[k] = log_psi_total(self.theta, self.n - k)
        return -self.theta * d + head[ks] - log_psi_total(self.theta, self.n)

    def topk_probability(self, sigma: TopKRanking) -> float:
        return math.exp(self.log_topk_probability(sigma))

    def log_probability(self, sigma: Permutation) -> float:
        d = kendall_topk(sigma, self.sigma0)
        return -self.theta * d - log_psi_total(self.theta, self.n)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _sample_v_matrix(theta: float, n: int, positions: Sequence[int], count: int,
                     gen: np.random.Generator) -> np.ndarray:
    """Draw V_j for the given 1-based positions, i.i.d. truncated geometric.

    Closed-form inverse CDF, no rejection: O(1) per entry.
    """
    supports = np.array([n - j + 1 for j in positions], dtype=np.int64)
    u = gen.random((count, len(positions)))
    if theta == 0.0:
        v = np.floor(u * supports).astype(np.int64)
    else:
        c = -np.expm1(-theta * supports.astype(float))
        v = np.floor(-np.log1p(-u * c) / theta).astype(np.int64)
    return np.clip(v, 0, supports - 1)


def sample_topk(model: MallowsModel, k: int, count: int, rng: RandomSource) -> list:
    """i.i.d. top-k draws in O(k^2) each, independent of n: truncated-geometric
    V's, then decode."""
    if not 1 <= k <= model.n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if count < 0:
        raise ValidationError("count must be >= 0")
    v = _sample_v_matrix(model.theta, model.n, range(1, k + 1), count, rng.generator)
    codes = _decode_inversions(v)
    by_rank = np.array(model.sigma0.items_by_rank(), dtype=np.int64)
    items = by_rank[codes]
    return [TopKRanking(model.n, k, tuple(row)) for row in items.tolist()]


def sample_linear_extension(model: MallowsModel, sigma: TopKRanking,
                            rng: RandomSource) -> Permutation:
    """A full ranking whose top-k list is exactly sigma, drawn from the
    Mallows distribution conditioned on extending sigma."""
    if sigma.n != model.n:
        raise DimensionError("ranking has the wrong item count")
    n, k = model.n, sigma.k
    fixed = list(to_inversion_vector(model._relabel(sigma)).v)[: min(k, n - 1)]
    if len(fixed) < n - 1:
        tail = _sample_v_matrix(model.theta, n, range(len(fixed) + 1, n), 1, rng.generator)
        fixed.extend(int(x) for x in tail[0])
    # the last code is the 0-th of the one value left unused
    codes = _decode_inversions(np.array([fixed + [0]], dtype=np.int64))[0]
    by_rank = model.sigma0.items_by_rank()
    return Permutation.from_items([by_rank[c] for c in codes.tolist()])


# ---------------------------------------------------------------------------
# Moments of the distance D = d(sigma, sigma0) for top-k draws
# ---------------------------------------------------------------------------


def expected_topk_distance(n: int, k: int, theta: float) -> float:
    """E[D] = sum_{j=1}^{k} E[V_j]; theta = 0 gives the uniform limit k(2n-k-1)/4."""
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if theta == 0.0:
        return uniform_limit_distance(n, k)
    total = 0.0
    for j in range(1, k + 1):
        support = n - j + 1
        total += _inv_expm1(theta) - support * _inv_expm1(theta * support)
    return total


def variance_topk_distance(n: int, k: int, theta: float) -> float:
    """V[D] = sum_{j=1}^{k} V[V_j] (the V_j are independent)."""
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if theta == 0.0:
        return sum(((n - j + 1) ** 2 - 1) / 12.0 for j in range(1, k + 1))
    total = 0.0
    for j in range(1, k + 1):
        support = n - j + 1
        total += _exp_over_sq(theta) - support**2 * _exp_over_sq(theta * support)
    return total


def uniform_limit_distance(n: int, k: int) -> float:
    return k * (2 * n - k - 1) / 4.0


def theta_for_expected_distance(n: int, k: int, target: float,
                                lo: float = 1e-9, hi: float = THETA_CAP,
                                tol: float = 1e-9) -> float:
    """Invert the strictly decreasing theta -> E[D] map by bisection."""
    limit = uniform_limit_distance(n, k)
    if not 0 < target <= limit:
        raise ValidationError(f"target must lie in (0, {limit}]")
    if expected_topk_distance(n, k, lo) <= target:
        return 0.0
    if expected_topk_distance(n, k, hi) >= target:
        return hi
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if expected_topk_distance(n, k, mid) > target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Pairwise marginals and log-likelihood
# ---------------------------------------------------------------------------


class MarginalEstimate(NamedTuple):
    p: float
    se: float
    exact: bool


def pairwise_marginal(model: MallowsModel, i: int, j: int,
                      rng: Optional[RandomSource] = None,
                      draws: int = 10**5) -> MarginalEstimate:
    """P(item i is preferred to item j).

    Exact enumeration for n <= 8; Monte Carlo with a standard error beyond
    that (an rng is then required).  p_ij + p_ji = 1 by construction.
    """
    if i == j or not (0 <= i < model.n and 0 <= j < model.n):
        raise ValidationError("need two distinct items in range")
    if model.n <= 8:
        log_weights = []
        hits = []
        for perm in itertools.permutations(range(model.n)):
            sigma = Permutation(model.n, perm)
            d = kendall_topk(sigma, model.sigma0)
            log_weights.append(-model.theta * d)
            hits.append(perm[i] < perm[j])
        mx = max(log_weights)
        weights = [math.exp(lw - mx) for lw in log_weights]
        total = math.fsum(weights)
        num = math.fsum(w for w, h in zip(weights, hits) if h)
        return MarginalEstimate(num / total, 0.0, True)
    if rng is None:
        raise ValidationError("Monte Carlo estimation needs a RandomSource")
    sample = sample_topk(model, model.n, draws, rng)
    wins = sum(1 for s in sample if s.items.index(i) < s.items.index(j))
    p = wins / draws
    se = math.sqrt(max(p * (1 - p), 1e-12) / draws)
    return MarginalEstimate(p, se, False)


def log_likelihood(model: MallowsModel, sample: Sequence[TopKRanking]) -> float:
    """Sum of log top-k probabilities over a sample (log-space, -inf safe)."""
    if not sample:
        raise ValidationError("sample must be non-empty")
    items = _item_array(sample, model.n)
    d = _distances_to_full(items, model.sigma0)
    return math.fsum(model._log_topk_probabilities(d, (items >= 0).sum(axis=1)).tolist())
