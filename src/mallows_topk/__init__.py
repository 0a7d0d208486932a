"""Mallows-model statistics for top-k rankings.

Exact top-k probabilities, quasi-linear sampling, distance moments,
concentric two-component mixture separation, Borda/expert-Borda consensus
estimation, theoretical sample bounds, and a brute-force oracle for small n.
"""

from .errors import (DimensionError, SizeError, ValidationError,
                     VacuousBoundError)
from .estimation import (ConsensusEstimate, ThetaEstimate, borda,
                         borda_estimate, borda_sample_complexity, delta_1k,
                         eborda, empirical_pair_accuracy, estimate_theta_mle,
                         partial_estimate_error)
from .mixture import (ConcentricMixture, GroundTruth, MixtureDraw,
                      MixtureFit, SeparationResult, fit_mixture,
                      mean_distances, min_sample_size, mixture_log_likelihood,
                      pairwise_topk_distances, sample_mixture, separate,
                      separation_gap)
from .model import (THETA_CAP, MallowsModel, RandomSource,
                    expected_topk_distance, log_likelihood, log_psi_factor,
                    log_psi_total, pairwise_marginal, sample_linear_extension,
                    sample_topk, theta_for_expected_distance,
                    uniform_limit_distance, variance_topk_distance)
from .oracle import (MAX_EXHAUSTIVE_N, ExhaustiveTable, MixtureExpectations,
                     delta_ik_oracle, enumerate_topk, exact_expectations,
                     exact_topk_distribution, exhaustive_kemeny,
                     pairwise_distance_matrix, topk_distance_oracle)
from .rankings import (Permutation, RankingBatch, TopKRanking,
                       format_rankings_csv, kendall_full, kendall_topk,
                       parse_rankings_csv, read_rankings_csv,
                       write_rankings_csv)

__version__ = "0.1.0"

__all__ = [
    "DimensionError", "SizeError", "ValidationError", "VacuousBoundError",
    "ConsensusEstimate", "ThetaEstimate", "borda",
    "borda_estimate", "borda_sample_complexity", "delta_1k",
    "delta_ik_oracle", "eborda", "empirical_pair_accuracy",
    "estimate_theta_mle", "partial_estimate_error",
    "ConcentricMixture", "GroundTruth", "MixtureDraw", "MixtureFit",
    "SeparationResult",
    "fit_mixture", "mean_distances", "min_sample_size", "mixture_log_likelihood",
    "pairwise_topk_distances", "sample_mixture", "separate",
    "separation_gap",
    "THETA_CAP", "MallowsModel", "RandomSource",
    "expected_topk_distance", "log_likelihood", "log_psi_factor",
    "log_psi_total", "pairwise_marginal", "sample_linear_extension",
    "sample_topk", "theta_for_expected_distance", "uniform_limit_distance",
    "variance_topk_distance",
    "MAX_EXHAUSTIVE_N", "ExhaustiveTable", "MixtureExpectations",
    "enumerate_topk", "exact_expectations", "exact_topk_distribution",
    "exhaustive_kemeny", "pairwise_distance_matrix", "topk_distance_oracle",
    "Permutation", "RankingBatch", "TopKRanking", "format_rankings_csv",
    "kendall_full", "kendall_topk", "parse_rankings_csv",
    "read_rankings_csv", "write_rankings_csv",
]
