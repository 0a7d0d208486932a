"""Single-component Mallows model for top-k rankings.

Normalization constants, exact probabilities, quasi-linear sampling, moments
of the distance, and exact O(1) pairwise marginals for any n.  All
probability accumulation is done in log-space; the theta = 0 uniform case is
handled by explicit limit branches rather than 0/0 expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .rankings import (_MAX_N, Permutation, RankingBatch, TopKRanking, _as_batch,
                       _decode_inversions, _distances_to_full, kendall_topk)

THETA_CAP = 50.0  # beyond this the distribution is numerically a point mass


class RandomSource:
    """Deterministic, splittable random stream (same seed, same outputs)."""

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
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

    def __post_init__(self):
        if self.sigma0.n != self.n:
            raise DimensionError("consensus ranking has the wrong item count")
        if not (self.theta >= 0.0):
            raise ValidationError("theta must be >= 0")

    @classmethod
    def uniform(cls, n: int) -> "MallowsModel":
        return cls(n, Permutation.identity(n), 0.0)

    def v_marginal(self, j: int, r: int) -> float:
        """P(V_j = r) = exp(-theta r) / psi_{n,j}; j is 1-based, r in 0..n-j."""
        if not 1 <= j <= self.n - 1:
            raise ValidationError("j must satisfy 1 <= j <= n-1")
        if not 0 <= r <= self.n - j:
            raise ValidationError(f"r={r} outside 0..{self.n - j}")
        log_p = -log_psi_factor(self.theta, self.n - j + 1)
        if r:  # at r = 0, -theta * r would be nan for theta = inf, whose limit is 0
            log_p -= self.theta * r
        return math.exp(log_p)

    def distance_to_consensus(self, sigma: TopKRanking) -> int:
        return kendall_topk(sigma, self.sigma0)

    def log_topk_probability(self, sigma: TopKRanking) -> float:
        d = self.distance_to_consensus(sigma)
        return float(self._log_topk_probabilities(d, sigma.k))

    def _log_topk_probabilities(self, d, ks):
        """Log top-k probabilities of rankings at distances d with lengths ks;
        log_psi_total runs once per distinct k."""
        head = np.zeros(self.n + 1)
        for k in np.unique(ks).tolist():
            head[k] = log_psi_total(self.theta, self.n - k)
        # a distance of 0 adds 0, also at theta = inf, where -theta * 0 is nan
        return (np.where(d > 0, -self.theta, 0.0) * d + head[ks]
                - log_psi_total(self.theta, self.n))

    def _log_likelihood(self, d, ks) -> float:
        return math.fsum(self._log_topk_probabilities(d, ks).tolist())

    def topk_probability(self, sigma: TopKRanking) -> float:
        return math.exp(self.log_topk_probability(sigma))

    def log_probability(self, sigma: Permutation) -> float:
        return self.log_topk_probability(sigma.top_k(sigma.n))


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


def sample_topk(model: MallowsModel, k: int, count: int, rng: RandomSource) -> RankingBatch:
    """`count` i.i.d. top-k draws as one RankingBatch, O(k^2) each and
    independent of n: truncated-geometric V's, then decode."""
    if not 1 <= k <= model.n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if count < 0:
        raise ValidationError("count must be >= 0")
    if count > _MAX_N:  # before numpy is asked for a shape it cannot make
        raise ValidationError(f"count must be at most {_MAX_N}")
    v = _sample_v_matrix(model.theta, model.n, range(1, k + 1), count, rng.generator)
    codes = _decode_inversions(v)
    by_rank = np.array(model.sigma0.items_by_rank(), dtype=np.int32)
    return RankingBatch._trusted(model.n, by_rank[codes], np.full(count, k, dtype=np.int64))


def sample_linear_extension(model: MallowsModel, sigma: TopKRanking,
                            rng: RandomSource) -> Permutation:
    """A full ranking whose top-k list is exactly sigma, drawn from the
    Mallows distribution conditioned on extending sigma."""
    if sigma.n != model.n:
        raise DimensionError("ranking has the wrong item count")
    n, k = model.n, sigma.k
    listed = set(sigma.items)
    # position j takes the V_j-th (0-based) of the unplaced items in consensus order
    rest = [item for item in model.sigma0.items_by_rank() if item not in listed]
    tail = []
    if k < n - 1:
        v = _sample_v_matrix(model.theta, n, range(k + 1, n), 1, rng.generator)
        tail = [rest.pop(x) for x in v[0].tolist()]
    return Permutation.from_items(sigma.items + tuple(tail) + tuple(rest))


# ---------------------------------------------------------------------------
# Moments of the distance D = d(sigma, sigma0) for top-k draws
# ---------------------------------------------------------------------------


def _mean_distance(terms: Sequence[tuple], theta: float) -> float:
    """sum_j w_j E[V_j] over the (w_j, n - j + 1) terms of positions j, for
    theta > 0; weight 1.0 for j = 1..k gives E[D] of a top-k draw."""
    total, head = 0.0, _inv_expm1(theta)
    for w, support in terms:
        total += w * (head - support * _inv_expm1(theta * support))
    return total


def _solve_theta(terms: Sequence[tuple], target: float) -> float:
    """Invert the strictly decreasing theta -> _mean_distance map by bisection
    on [1e-9, THETA_CAP]; a target outside its range clamps to an end."""
    lo, hi = 1e-9, THETA_CAP
    if _mean_distance(terms, lo) <= target:
        return 0.0
    if _mean_distance(terms, hi) >= target:
        return hi
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _mean_distance(terms, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_topk_distance(n: int, k: int, theta: float) -> float:
    """E[D] = sum_{j=1}^{k} E[V_j]; theta = 0 gives the uniform limit k(2n-k-1)/4."""
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if theta == 0.0:
        return uniform_limit_distance(n, k)
    return _mean_distance([(1.0, n - j + 1) for j in range(1, k + 1)], theta)


def variance_topk_distance(n: int, k: int, theta: float) -> float:
    """V[D] = sum_{j=1}^{k} V[V_j] (the V_j are independent)."""
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    if theta == 0.0:
        return sum(((n - j + 1) ** 2 - 1) / 12.0 for j in range(1, k + 1))
    total, head = 0.0, _exp_over_sq(theta)
    for j in range(1, k + 1):
        support = n - j + 1
        total += head - support**2 * _exp_over_sq(theta * support)
    return total


def uniform_limit_distance(n: int, k: int) -> float:
    return k * (2 * n - k - 1) / 4.0


def theta_for_expected_distance(n: int, k: int, target: float) -> float:
    """The theta at which a top-k draw has mean distance `target`."""
    if not 1 <= k <= n:
        raise ValidationError("k must satisfy 1 <= k <= n")
    limit = uniform_limit_distance(n, k)
    if not 0 < target <= limit:
        raise ValidationError(f"target must lie in (0, {limit}]")
    return _solve_theta([(1.0, n - j + 1) for j in range(1, k + 1)], target)


# ---------------------------------------------------------------------------
# Pairwise marginals and log-likelihood
# ---------------------------------------------------------------------------


def pairwise_marginal(model: MallowsModel, i: int, j: int) -> float:
    """P(item i is preferred to item j), exact for every n in O(1).

    With h the gap between the two consensus ranks and q = e^-theta, the item
    ranked higher in the consensus wins with probability
    (h+1)/(1 - q^(h+1)) - h/(1 - q^h) (Mallows 1957), written here as
    (1 - q^h - h q^h (1 - q)) / ((1 - q^h)(1 - q^(h+1))), which loses only a
    factor 1/(theta (h+1)) to cancellation; below theta (h+1) = 1e-2 its
    series 1/2 + theta (2h+1)/12 - theta^3 ((h+1)^4 - h^4)/720 is used.
    p_ij + p_ji = 1.
    """
    if i == j or not (0 <= i < model.n and 0 <= j < model.n):
        raise ValidationError("need two distinct items in range")
    a, b = model.sigma0.ranks[i], model.sigma0.ranks[j]
    h, theta = abs(a - b), model.theta
    if theta * (h + 1) < 1e-2:
        p = 0.5 + theta * (2 * h + 1) / 12 - theta**3 * ((h + 1)**4 - h**4) / 720
    else:
        head = -math.expm1(-theta * h)
        p = ((head - h * math.exp(-theta * h) * -math.expm1(-theta))
             / (head * -math.expm1(-theta * (h + 1))))
    return p if a < b else 1.0 - p


def log_likelihood(model: MallowsModel, sample: Sequence[TopKRanking]) -> float:
    """Sum of log top-k probabilities over a sample (log-space, -inf safe)."""
    if not sample:
        raise ValidationError("sample must be non-empty")
    batch = _as_batch(sample, model.n)
    return model._log_likelihood(_distances_to_full(batch, model.sigma0), batch.ks)
