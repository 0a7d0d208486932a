"""Acceptance criteria, one test per numbered requirement.

Each test prints a single PASS line on success so a log scrape shows the
criteria at a glance.  Stated tolerances are part of the contract.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mallows_topk.cli import (main, run_eborda_experiment,
                              run_loglik_experiment,
                              run_separation_experiment)
from mallows_topk.estimation import (borda_sample_complexity, delta_1k,
                                     eborda, empirical_pair_accuracy,
                                     estimate_theta_mle,
                                     partial_estimate_error, borda_estimate)
from mallows_topk.mixture import separation_gap
from mallows_topk.model import (MallowsModel, RandomSource,
                                expected_topk_distance, sample_topk,
                                sample_linear_extension,
                                theta_for_expected_distance,
                                variance_topk_distance)
from mallows_topk.oracle import (ExhaustiveTable, delta_ik_oracle,
                                 exact_expectations, exact_topk_distribution)
from mallows_topk.rankings import (Permutation, TopKRanking,
                                   write_rankings_csv)

THETA_GRID_1 = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]


def test_criterion_01_exact_topk_probabilities():
    for n in range(2, 8):
        sigma0 = Permutation.identity(n)
        for theta in THETA_GRID_1:
            model = MallowsModel(n, sigma0, theta)
            for k in range(1, n):
                dist = exact_topk_distribution(n, k, theta, sigma0)
                assert abs(math.fsum(dist.values()) - 1.0) < 1e-9
                for items, p in dist.items():
                    mine = model.log_topk_probability(TopKRanking(n, k, items))
                    assert abs(mine - math.log(p)) < 1e-12
    # spot check with a non-identity consensus
    sigma0 = Permutation.from_items([4, 0, 3, 2, 1])
    model = MallowsModel(5, sigma0, 1.3)
    for items, p in exact_topk_distribution(5, 2, 1.3, sigma0).items():
        assert abs(model.log_topk_probability(TopKRanking(5, 2, items))
                   - math.log(p)) < 1e-12
    print("criterion 1 (exact top-k probabilities): PASS")


def test_criterion_02_sampler_law():
    # At 1e5 draws the empirical TV of the hardest cell (n=6, k=3, uniform;
    # 120 outcomes) is ~0.014 in expectation, above the 0.01 budget, so the
    # draw count is raised to 4e5 where the expectation is ~0.007.
    draws = 400000
    root = RandomSource(20260823)
    cell = 0
    for n in (4, 6):
        sigma0 = Permutation.identity(n)
        for k in (1, 2, 3):
            for theta in (0.0, 0.5, 1.0, 3.0):
                model = MallowsModel(n, sigma0, theta)
                exact = exact_topk_distribution(n, k, theta, sigma0)
                sample = sample_topk(model, k, draws, root.split(cell))
                counts = Counter(s.items for s in sample)
                tv = 0.5 * sum(abs(counts.get(o, 0) / draws - p)
                               for o, p in exact.items())
                assert tv < 0.01, (n, k, theta, tv)
                cell += 1
    # linear-extension sampler against the exact conditional law (n=4, k=2)
    n, k = 4, 2
    prefix = TopKRanking(n, k, (2, 0))
    rest = [i for i in range(n) if i not in prefix.items]
    ext_draws = 30000
    for theta in (0.0, 0.5, 1.0, 3.0):
        model = MallowsModel(n, Permutation.identity(n), theta)
        weights = {}
        for tail in itertools.permutations(rest):
            full = Permutation.from_items(prefix.items + tail)
            weights[full.items_by_rank()] = math.exp(model.log_probability(full))
        z = sum(weights.values())
        rng = root.split(1000 + cell)
        counts = Counter(
            sample_linear_extension(model, prefix, rng).items_by_rank()
            for _ in range(ext_draws))
        tv = 0.5 * sum(abs(counts.get(o, 0) / ext_draws - w / z)
                       for o, w in weights.items())
        assert tv < 0.01, (theta, tv)
        cell += 1
    print("criterion 2 (sampler distribution): PASS")


def test_criterion_03_moments():
    for n in range(2, 8):
        for theta in THETA_GRID_1:
            for k in range(1, n + 1):
                table = ExhaustiveTable(n, k, theta)
                assert abs(expected_topk_distance(n, k, theta)
                           - table.expected_distance()) < 1e-10
                assert abs(variance_topk_distance(n, k, theta)
                           - table.variance_distance()) < 1e-10
    # sampled moments agree within 3 standard errors
    n, k, theta, draws = 10, 4, 0.7, 100000
    model = MallowsModel(n, Permutation.identity(n), theta)
    sample = sample_topk(model, k, draws, RandomSource(31))
    d = np.array([model.distance_to_consensus(s) for s in sample], dtype=float)
    var = variance_topk_distance(n, k, theta)
    se_mean = math.sqrt(var / draws)
    assert abs(d.mean() - expected_topk_distance(n, k, theta)) < 3 * se_mean
    centered = d - d.mean()
    se_var = math.sqrt((np.mean(centered**4) - var**2) / draws)
    assert abs(d.var() - var) < 3 * se_var
    print("criterion 3 (distance moments): PASS")


def test_criterion_04_delta_machinery():
    for n in range(2, 8):
        for k in range(1, n + 1):
            for theta in (0.1, 0.5, 1.0, 2.0):
                assert abs(delta_1k(n, k, theta)
                           - delta_ik_oracle(n, k, 1, theta)) < 1e-12
    # argmin over i sits at i = 1 for k >= n/2
    for n in (5, 6):
        for k in range(math.ceil(n / 2), n):
            values = [delta_ik_oracle(n, k, i, 1.0) for i in range(1, n)]
            assert min(values) >= values[0] - 1e-12
    # symmetry under (i, k) -> (n - i, n - k), 1-based indexing
    for n in (5, 6):
        for k in range(1, n):
            for i in range(1, n):
                assert abs(delta_ik_oracle(n, k, i, 0.9)
                           - delta_ik_oracle(n, n - k, n - i, 0.9)) < 1e-12
    print("criterion 4 (position-marginal gaps): PASS")


def test_criterion_05_bound_sandwiches():
    # The pairwise-marginal identities behind these bounds require every item
    # pair to be compared, so the sandwich grid uses full rankings (k = n).
    for n in (4, 5, 6):
        for theta_g, theta_b in itertools.product([0.3, 0.5, 1.0, 2.0, 4.0],
                                                  [0.0, 0.1, 0.3, 0.5, 1.0]):
            if theta_b >= theta_g:
                continue
            e = exact_expectations(n, n, theta_g, theta_b)
            assert e.e_beta <= e.e_cross + 1e-12 <= e.e_beta_pair + 2e-12
            c = e.e_beta / e.e_gamma
            if c <= 2:
                continue
            for r in (0.2, 0.4, 0.5, 0.7, 0.9, 1.0):
                diff = ((1 - r) * e.e_beta_pair + (2 * r - 1) * e.e_cross
                        - r * e.e_gamma_pair)
                assert diff + 1e-9 >= separation_gap(c, r, e.e_gamma)
    print("criterion 5 (expectation sandwiches): PASS")


def test_criterion_06_separation_experiment():
    # Cells must satisfy c * E[d(gamma)] < uniform limit (122.5 here), so the
    # sweep uses E[d(gamma)] in {3, 8}; the <=10% assertion targets the
    # E[d(gamma)]=8 row as in the near-uniform non-expert regime.
    text = run_separation_experiment(30, 10, 40, 60, [3.0, 8.0],
                                     [3.0, 6.0, 9.0, 12.0], seeds=10, seed=4)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    by_gamma = {}
    for e_gamma, c, mean, _, _ in rows:
        by_gamma.setdefault(float(e_gamma), []).append((float(c), float(mean)))
    for e_gamma, series in by_gamma.items():
        means = [m for _, m in sorted(series)]
        assert all(means[i] >= means[i + 1] for i in range(len(means) - 1)), \
            (e_gamma, means)
    for c, mean in by_gamma[8.0]:
        if c >= 9:
            assert mean <= 10.0, (c, mean)
    print("criterion 6 (separation error vs c): PASS")


def test_criterion_07_eborda_experiment():
    text = run_eborda_experiment(30, 10, 4, 40, 10.0, 75.0, seeds=10, seed=11)
    final = text.splitlines()[-1].split(",")
    borda_mean, eborda_mean = float(final[1]), float(final[4])
    assert eborda_mean <= borda_mean, (eborda_mean, borda_mean)
    print("criterion 7 (expert Borda advantage): PASS")


def test_criterion_08_mixture_likelihood_experiment():
    text = run_loglik_experiment(5, 1.43, 98, seeds=10, seed=5, step=1)
    per_step = {}
    for line in text.splitlines()[1:]:
        t, _, single, mixture = line.split(",")
        per_step.setdefault(int(t), []).append((float(single), float(mixture)))
    assert set(per_step) == set(range(0, 197))
    for t, pairs in per_step.items():
        single_mean = sum(s for s, _ in pairs) / len(pairs)
        mixture_mean = sum(m for _, m in pairs) / len(pairs)
        assert mixture_mean >= single_mean - 1e-9, t
    print("criterion 8 (mixture likelihood dominance): PASS")


def test_criterion_09_theta_recovery():
    n, k, draws = 5, 5, 100000
    sigma0 = Permutation.identity(n)
    for seed_offset, theta in enumerate((0.3, 1.43, 3.0)):
        model = MallowsModel(n, sigma0, theta)
        sample = sample_topk(model, k, draws, RandomSource(40 + seed_offset))
        hat = estimate_theta_mle(sample, sigma0)
        assert abs(hat - theta) / theta <= 0.07, (theta, hat)
    print("criterion 9 (dispersion recovery): PASS")


def test_criterion_10_borda_sample_complexity():
    n, k, theta = 8, 3, 1.0
    rng = RandomSource(50)
    trials = 500
    for i in (1, 2):
        m = borda_sample_complexity(n, k, theta, i, 0.1)
        acc = empirical_pair_accuracy(n, k, theta, i, m, trials, rng.split(i))
        assert acc >= 0.9, (i, m, acc)
    # accuracy is non-decreasing in m up to 2-SE binomial noise
    se = math.sqrt(0.25 / trials)
    accs = [empirical_pair_accuracy(n, k, 0.5, 1, m, trials, rng.split(100 + m))
            for m in (10, 100, 1000)]
    assert accs[0] <= accs[1] + 2 * se
    assert accs[1] <= accs[2] + 2 * se
    print("criterion 10 (Borda pair-accuracy bound): PASS")


def test_criterion_11_cli_determinism(tmp_path):
    mix_file = tmp_path / "mix.csv"
    write_rankings_csv(mix_file,
                       [TopKRanking(6, 3, (0, 1, 2))] * 10
                       + [TopKRanking(6, 3, (5, 4, 3)),
                          TopKRanking(6, 3, (4, 5, 3)),
                          TopKRanking(6, 3, (3, 5, 4))])
    invocations = [
        ["sample", "--n", "12", "--k", "5", "--theta", "0.7", "--count",
         "200", "--seed", "9"],
        ["separate", "--in", str(mix_file)],
        ["aggregate", "--in", str(mix_file), "--method", "eborda"],
        ["bounds", "--which", "borda", "--n", "8", "--k", "3", "--theta",
         "1", "--i", "1", "--epsilon", "0.05"],
        ["experiment", "--name", "separation", "--e-gamma-grid", "8",
         "--c-grid", "9", "--seeds", "2", "--seed", "3"],
        ["experiment", "--name", "eborda", "--seeds", "2", "--seed", "3"],
        ["experiment", "--name", "loglik", "--m", "20", "--seeds", "1",
         "--step", "10", "--seed", "3"],
    ]
    for idx, argv in enumerate(invocations):
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"run{idx}_{attempt}.out"
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
            sidecar = out.with_suffix(out.suffix + ".json")
            if sidecar.exists():
                outputs[-1] += sidecar.read_bytes()
        assert outputs[0] == outputs[1], argv
    print("criterion 11 (CLI determinism): PASS")
