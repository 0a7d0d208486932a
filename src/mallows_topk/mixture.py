"""Concentric two-component mixtures: sampling, mean-distance statistics,
separation of expert/non-expert rankings, and the theoretical bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, ValidationError, VacuousBoundError
from .model import MallowsModel, RandomSource, log_likelihood, sample_topk
from .rankings import (Permutation, RankingBatch, TopKRanking, _as_batch,
                       _distances_to_full, _pair_sums)


@dataclass(frozen=True)
class ConcentricMixture:
    """Two Mallows components sharing one consensus: experts (theta_g) are at
    least as concentrated as non-experts (theta_b); r = expert proportion."""

    sigma0: Permutation
    theta_g: float
    theta_b: float
    r: float

    def __post_init__(self):
        if not (self.theta_g >= 0.0 and self.theta_b >= 0.0):
            raise ValidationError("dispersions must be >= 0")
        if self.theta_b > self.theta_g:
            raise ValidationError("non-expert dispersion must not exceed expert dispersion")
        if not 0.0 <= self.r <= 1.0:
            raise ValidationError("r must lie in [0, 1]")

    def expert_model(self) -> MallowsModel:
        return MallowsModel(self.sigma0.n, self.sigma0, self.theta_g)

    def nonexpert_model(self) -> MallowsModel:
        return MallowsModel(self.sigma0.n, self.sigma0, self.theta_b)


class GroundTruth:
    """Component labels of a synthetic draw, kept out of the fitting path;
    only evaluation code should touch this."""

    def __init__(self, expert_flags: Sequence[bool]):
        self._flags = tuple(bool(f) for f in expert_flags)

    @property
    def expert_flags(self) -> tuple:
        return self._flags

    def misclassification(self, predicted_expert: Sequence[bool]) -> float:
        """Error fraction, minimized over the two ways of matching cluster
        labels to components."""
        pred = [bool(p) for p in predicted_expert]
        if len(pred) != len(self._flags):
            raise DimensionError("label vectors differ in length")
        direct = sum(p != t for p, t in zip(pred, self._flags))
        flipped = len(pred) - direct
        return min(direct, flipped) / len(pred)


class MixtureDraw(NamedTuple):
    rankings: RankingBatch
    truth: GroundTruth


def sample_mixture(mix: ConcentricMixture, k: int, m: int, rng: RandomSource) -> MixtureDraw:
    """m i.i.d. draws; each picks the expert component with probability r."""
    flags = rng.generator.random(m) < mix.r
    n_expert = int(flags.sum())
    items = np.empty((m, k), dtype=np.int32)
    items[flags] = sample_topk(mix.expert_model(), k, n_expert, rng).items
    items[~flags] = sample_topk(mix.nonexpert_model(), k, m - n_expert, rng).items
    rankings = RankingBatch._trusted(mix.sigma0.n, items, np.full(m, k, dtype=np.int64))
    return MixtureDraw(rankings, GroundTruth(flags.tolist()))


# ---------------------------------------------------------------------------
# Mean-distance statistics
# ---------------------------------------------------------------------------


def pairwise_topk_distances(sample: Sequence[TopKRanking]) -> np.ndarray:
    """Exact all-pairs top-k Kendall distance matrix: one `_distances_to_full`
    pass against each ranking, O(m^2 k^2); `mean_distances` does not need it."""
    batch = _as_batch(sample)
    rows = [_distances_to_full(batch, t) for t in batch]
    return np.array(rows, dtype=np.int64).reshape(len(batch), len(batch))


def mean_distances(sample: Sequence[TopKRanking]) -> np.ndarray:
    """delta_sigma: mean distance of each ranking to all the others, O(k n^2 + m k^2).

    With pref[a, b] the number of rankings placing a strictly above b (Meila
    et al., UAI 2007), the distances from s to the sample sum to pref[b, a]
    over the pairs a > b that s orders: colsum(pref)[x_j] - pref[x_i, x_j]
    summed over the listed items x_j and the listed pairs i < j."""
    m = len(sample)
    if m < 2:
        raise ValidationError("need at least two rankings")
    batch = _as_batch(sample)
    n, items = batch.n, batch.items
    # pref[a, b] = listed[a] - before[b, a]: before[b, a] counts lists with b
    # ahead of a.  One bincount per column: each costs O(n^2) however few rows.
    before = np.zeros(n * n, dtype=np.int64)
    for j in range(1, items.shape[1]):
        x = items[items[:, j] >= 0]
        pairs = x[:, :j].astype(np.int64) * n + x[:, j:j + 1]
        before += np.bincount(pairs.ravel(), minlength=n * n)
    pref = np.bincount(batch._ids(), minlength=n)[:, None] - before.reshape(n, n).T
    np.fill_diagonal(pref, 0)
    pref = np.pad(pref, (0, 1))  # zero last row and column, indexed by padding -1
    identity = np.append(np.arange(n, dtype=np.int32), np.int32(-1))
    return _pair_sums(items, identity, pref.sum(axis=0), lambda a, b: pref[a, b]) / (m - 1)


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------


@dataclass
class SeparationResult:
    deltas: np.ndarray
    expert_flags: tuple          # True = assigned to the tighter cluster
    threshold: Optional[float]
    theta_g_hat: float
    theta_b_hat: float
    r_hat: float
    consensus: Permutation
    degenerate: bool = False

    def to_csv(self) -> str:
        rows = ["index,delta,label"]
        for i, (d, f) in enumerate(zip(self.deltas.tolist(), self.expert_flags)):
            rows.append(f"{i},{d:.10g},{'expert' if f else 'nonexpert'}")
        return "\n".join(rows) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "theta_g_hat": self.theta_g_hat,
            "theta_b_hat": self.theta_b_hat,
            "r_hat": self.r_hat,
            "degenerate": self.degenerate,
            "consensus": [i + 1 for i in self.consensus.items_by_rank()],
        }


def _two_means_split(sorted_x: np.ndarray) -> int:
    """Split index minimizing within-cluster sum of squares (exact 1-D 2-means)."""
    m = len(sorted_x)
    s1 = np.cumsum(sorted_x)
    s2 = np.cumsum(sorted_x**2)
    counts = np.arange(1, m)
    left = s2[:-1] - s1[:-1] ** 2 / counts
    right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (m - counts)
    return int(np.argmin(left + right)) + 1


def _largest_gap_split(sorted_x: np.ndarray) -> int:
    """Split at the largest adjacent gap (single-linkage-equivalent in 1-D)."""
    return int(np.argmax(np.diff(sorted_x))) + 1


def separate(sample: Sequence[TopKRanking], method: str = "2means") -> SeparationResult:
    """Label each ranking expert/non-expert from its mean distance to the rest.

    Deterministic given the sample; ties at the threshold go to the expert
    (lower-delta) cluster.  Identical deltas yield a degenerate single-cluster
    result rather than an error.
    """
    from . import estimation  # deferred: estimation.eborda uses separate

    if method not in ("2means", "gap"):
        raise ValidationError(f"unknown method {method!r}")
    sample = _as_batch(sample)
    m = len(sample)
    deltas = mean_distances(sample)
    consensus = estimation.borda(sample)
    if np.ptp(deltas) == 0:
        theta = estimation.estimate_theta_mle(sample, consensus)
        return SeparationResult(deltas, (True,) * m, None, theta, theta, 1.0,
                                consensus, degenerate=True)
    order = np.sort(deltas)
    if method == "2means":
        split = _two_means_split(order)
    else:
        split = _largest_gap_split(order)
    threshold = 0.5 * (order[split - 1] + order[split])
    expert = deltas <= threshold
    experts, others = sample[expert], sample[~expert]
    theta_g = estimation.estimate_theta_mle(experts, consensus) if experts else 0.0
    theta_b = estimation.estimate_theta_mle(others, consensus) if others else 0.0
    r_hat = len(experts) / m
    return SeparationResult(deltas, tuple(expert.tolist()), float(threshold), theta_g,
                            theta_b, r_hat, consensus)


# ---------------------------------------------------------------------------
# Theoretical bounds
# ---------------------------------------------------------------------------


def separation_gap(c: float, r: float, expected_gamma_dist: float) -> float:
    """Guaranteed E[delta_beta - delta_gamma] lower bound: (c-2) r E[d(gamma, sigma0)]."""
    if c <= 2:
        raise VacuousBoundError("the separation bound requires c > 2")
    if not (math.isfinite(c) and math.isfinite(r)):
        raise ValidationError("c and r must be finite")
    if not 0 < r <= 1:
        raise VacuousBoundError("r must lie in (0, 1]")
    if not 0 < expected_gamma_dist < math.inf:
        raise ValidationError("the expected expert distance must be positive and finite")
    gap = (c - 2) * r * expected_gamma_dist
    if not 0 < gap < math.inf:
        raise ValidationError("the gap (c - 2) r E[d] is out of float range")
    return gap


def min_sample_size(n: int, c: float, r: float, expected_gamma_dist: float,
                    epsilon: float) -> int:
    """Samples sufficient for high-probability separation of the two clusters."""
    gap = separation_gap(c, r, expected_gamma_dist)
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if n < 2:
        raise ValidationError("the separation bound needs n >= 2")
    try:
        return max(1, math.ceil((n * (n - 1) / gap) ** 2 * math.log(2 / epsilon) / 2))
    except (OverflowError, ValueError):  # ValueError: 0 * inf is nan
        raise ValidationError("the sample-size bound is out of float range") from None


# ---------------------------------------------------------------------------
# Mixture likelihood and fitting
# ---------------------------------------------------------------------------


def mixture_log_likelihood(mix: ConcentricMixture, sample: Sequence[TopKRanking]) -> float:
    if not sample:
        raise ValidationError("sample must be non-empty")
    if mix.r in (0.0, 1.0):
        return log_likelihood(mix.expert_model() if mix.r else mix.nonexpert_model(), sample)
    batch = _as_batch(sample, mix.sigma0.n)
    return _mixture_log_likelihood(mix, _distances_to_full(batch, mix.sigma0), batch.ks)


def _mixture_log_likelihood(mix: ConcentricMixture, d: np.ndarray, ks: np.ndarray) -> float:
    """The log-likelihood of rows at distances d with lengths ks, for 0 < r < 1."""
    good, bad = mix.expert_model(), mix.nonexpert_model()
    lr, lq = math.log(mix.r), math.log1p(-mix.r)
    total = 0.0
    for term in np.logaddexp(lr + good._log_topk_probabilities(d, ks),
                             lq + bad._log_topk_probabilities(d, ks)).tolist():
        total += term  # left to right: np.sum's pairwise order changes the last bits
    return float(total)


class MixtureFit(NamedTuple):
    """A fitted mixture, its log-likelihood and the single model's."""
    mixture: ConcentricMixture
    log_likelihood: float
    single_log_likelihood: float


def fit_mixture(sample: Sequence[TopKRanking]) -> MixtureFit:
    """Cluster-then-estimate fit.  The single-component member of the family
    (equal dispersions) is kept instead whenever it scores a higher
    likelihood, so the fit never loses to the nested model.  One distance
    pass serves the single theta and both log-likelihoods."""
    from . import estimation

    sample = _as_batch(sample)
    result = separate(sample)
    consensus = result.consensus
    d, ks = _distances_to_full(sample, consensus), sample.ks
    theta = estimation._theta_mle(d, ks, sample.n).theta
    single = ConcentricMixture(consensus, theta, theta, 1.0)
    single_ll = single.expert_model()._log_likelihood(d, ks)
    if not (result.degenerate or result.r_hat in (0.0, 1.0)):
        g, b, r = result.theta_g_hat, result.theta_b_hat, result.r_hat
        if g < b:  # the low-delta cluster is the wider one: r is the other's share
            g, b, r = b, g, result.expert_flags.count(False) / len(sample)
        split = ConcentricMixture(consensus, g, b, r)
        split_ll = _mixture_log_likelihood(split, d, ks)
        if split_ll >= single_ll:
            return MixtureFit(split, split_ll, single_ll)
    return MixtureFit(single, single_ll, single_ll)
