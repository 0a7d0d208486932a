"""Command-line front end: sampling, separation, aggregation, bound
evaluation, and the three CSV experiment harnesses.

Exit codes: 0 success, 2 input error, 3 vacuous bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import estimation, mixture
from .errors import ValidationError, VacuousBoundError
from .model import (MallowsModel, RandomSource, log_likelihood, sample_topk,
                    theta_for_expected_distance, uniform_limit_distance)
from .rankings import (Permutation, TopKRanking, format_rankings_csv,
                       read_rankings_csv)

DEFAULT_SEED_ENV = "MALLOWS_TOPK_SEED"


def _default_seed() -> int:
    return int(os.environ.get(DEFAULT_SEED_ENV, "0"))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_sigma0(path: Optional[str], n: int) -> Permutation:
    if path is None:
        return Permutation.identity(n)
    rankings = read_rankings_csv(path)
    if len(rankings) != 1 or rankings[0].k != rankings[0].n:
        raise ValidationError("consensus file must hold exactly one full ranking")
    if rankings[0].n != n:
        raise ValidationError("consensus file disagrees with --n")
    return rankings[0].to_permutation()


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    sigma0 = _read_sigma0(args.sigma0, args.n)
    model = MallowsModel(args.n, sigma0, args.theta)
    rng = RandomSource(args.seed)
    sample = sample_topk(model, args.k, args.count, rng)
    _write_text(args.out, format_rankings_csv(sample))
    return 0


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------


def cmd_separate(args: argparse.Namespace) -> int:
    sample = read_rankings_csv(args.input)
    result = mixture.separate(sample, method=args.method)
    _write_text(args.out, result.to_csv())
    json_path = args.json
    if json_path is None and args.out not in (None, "-"):
        json_path = args.out + ".json"
    _write_text(json_path, _json_text(result.to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def cmd_aggregate(args: argparse.Namespace) -> int:
    sample = read_rankings_csv(args.input)
    if args.method == "borda":
        estimate = estimation.borda_estimate(sample)
    else:
        estimate = estimation.eborda(sample, method=args.cluster_method)
    _write_text(args.out, _json_text(estimate.to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.which == "borda":
        for name in ("theta", "i"):
            if getattr(args, name) is None:
                raise ValidationError(f"--{name} is required for the borda bound")
        delta = estimation.delta_1k(args.n, args.k, args.theta)
        m = estimation.borda_sample_complexity(args.n, args.k, args.theta,
                                               args.i, args.epsilon)
        lead = estimation._borda_leading_term(args.n, args.k, args.theta)
        denominator = lead - args.i * delta
        payload = {"which": "borda", "n": args.n, "k": args.k,
                   "theta": args.theta, "i": args.i, "epsilon": args.epsilon,
                   "delta_1k": delta, "leading_term": lead,
                   "denominator": denominator, "m": m}
    else:
        for name in ("c", "r", "e_gamma"):
            if getattr(args, name) is None:
                raise ValidationError(f"--{name.replace('_', '-')} is required "
                                      "for the separation bound")
        gap = mixture.separation_gap(args.c, args.r, args.e_gamma)
        m = mixture.min_sample_size(args.n, args.c, args.r, args.e_gamma,
                                    args.epsilon)
        payload = {"which": "separation", "n": args.n, "c": args.c,
                   "r": args.r, "e_gamma": args.e_gamma,
                   "epsilon": args.epsilon, "gap": gap, "m": m}
    _write_text(args.out, _json_text(payload))
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def run_separation_experiment(n: int, k: int, m_g: int, m_b: int,
                              e_gamma_grid: Sequence[float],
                              c_grid: Sequence[float], seeds: int,
                              seed: int, method: str = "2means") -> str:
    """Mean/min/max misclassification % per (E[d(gamma)], c) cell.

    Cells whose implied non-expert mean distance exceeds the top-k uniform
    limit have no Mallows parameterization and are skipped.
    """
    limit = uniform_limit_distance(n, k)
    root = RandomSource(seed)
    rows = ["e_gamma,c,mean_error_pct,min_error_pct,max_error_pct"]
    cell = 0
    for e_gamma in e_gamma_grid:
        theta_g = theta_for_expected_distance(n, k, e_gamma)
        for c in c_grid:
            e_beta = c * e_gamma
            if e_beta >= limit:
                cell += 1
                continue
            theta_b = theta_for_expected_distance(n, k, e_beta)
            good = MallowsModel(n, Permutation.identity(n), theta_g)
            bad = MallowsModel(n, Permutation.identity(n), theta_b)
            errors = []
            for s in range(seeds):
                rng = root.split(cell * seeds + s)
                sample = (sample_topk(good, k, m_g, rng.split(0))
                          + sample_topk(bad, k, m_b, rng.split(1)))
                truth = mixture.GroundTruth([True] * m_g + [False] * m_b)
                result = mixture.separate(sample, method=method)
                errors.append(100.0 * truth.misclassification(result.expert_flags))
            rows.append(f"{e_gamma:g},{c:g},{sum(errors) / len(errors):.6g},"
                        f"{min(errors):.6g},{max(errors):.6g}")
            cell += 1
    return "\n".join(rows) + "\n"


def run_eborda_experiment(n: int, k: int, m_g: int, m_b: int,
                          e_gamma: float, e_beta: float, seeds: int,
                          seed: int) -> str:
    """Borda vs expert-Borda estimation error as the sample grows.

    Expert rankings enter first, then non-expert ones, one at a time;
    the error is the partial-estimate distance to the true consensus.
    """
    theta_g = theta_for_expected_distance(n, k, e_gamma)
    theta_b = theta_for_expected_distance(n, k, e_beta)
    sigma0 = Permutation.identity(n)
    good = MallowsModel(n, sigma0, theta_g)
    bad = MallowsModel(n, sigma0, theta_b)
    root = RandomSource(seed)
    total = m_g + m_b
    borda_err = [[] for _ in range(total)]
    eborda_err = [[] for _ in range(total)]
    for s in range(seeds):
        rng = root.split(s)
        sample = (sample_topk(good, k, m_g, rng.split(0))
                  + sample_topk(bad, k, m_b, rng.split(1)))
        for size in range(1, total + 1):
            sub = sample[:size]
            borda_err[size - 1].append(estimation.partial_estimate_error(
                estimation.borda_estimate(sub), sigma0))
            if size >= 2:
                e_est = estimation.eborda(sub)
            else:
                e_est = estimation.borda_estimate(sub)
            eborda_err[size - 1].append(
                estimation.partial_estimate_error(e_est, sigma0))
    rows = ["size,borda_mean,borda_min,borda_max,eborda_mean,eborda_min,eborda_max"]
    for size in range(1, total + 1):
        b, e = borda_err[size - 1], eborda_err[size - 1]
        rows.append(f"{size},{sum(b) / len(b):.6g},{min(b):.6g},{max(b):.6g},"
                    f"{sum(e) / len(e):.6g},{min(e):.6g},{max(e):.6g}")
    return "\n".join(rows) + "\n"


def run_loglik_experiment(n: int, theta: float, m: int, seeds: int,
                          seed: int, data_path: Optional[str] = None,
                          step: int = 1) -> str:
    """Single-model vs concentric-mixture fit as uniform impostors are added.

    The base sample is either synthetic (m Mallows draws at the given theta)
    or user-supplied full rankings; impostors are uniform full rankings,
    added up to 2m of them.
    """
    sigma0 = Permutation.from_items([4, 0, 3, 2, 1]) if n == 5 \
        else Permutation.identity(n)
    model = MallowsModel(n, sigma0, theta)
    uniform = MallowsModel.uniform(n)
    root = RandomSource(seed)
    rows = ["impostors,seed,single_ll,mixture_ll"]
    base_data = read_rankings_csv(data_path) if data_path is not None else None
    if base_data is not None:
        n = base_data[0].n
        m = len(base_data)
        uniform = MallowsModel.uniform(n)
    for s in range(seeds):
        rng = root.split(s)
        base = base_data if base_data is not None \
            else sample_topk(model, n, m, rng.split(0))
        impostors = sample_topk(uniform, n, 2 * m, rng.split(1))
        for t in range(0, 2 * m + 1, step):
            sample = list(base) + impostors[:t]
            consensus = estimation.borda(sample)
            theta_hat = estimation.estimate_theta_mle(sample, consensus, n)
            single = MallowsModel(n, consensus, theta_hat)
            single_ll = log_likelihood(single, sample)
            mix = mixture.fit_mixture(sample)
            mix_ll = mixture.mixture_log_likelihood(mix, sample)
            rows.append(f"{t},{s},{single_ll:.6f},{mix_ll:.6f}")
    return "\n".join(rows) + "\n"


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "separation":
        text = run_separation_experiment(
            args.n, args.k, args.mg, args.mb,
            _parse_grid(args.e_gamma_grid), _parse_grid(args.c_grid),
            args.seeds, args.seed, method=args.method)
    elif args.name == "eborda":
        text = run_eborda_experiment(args.n, args.k, args.mg, args.mb,
                                     args.e_gamma, args.e_beta,
                                     args.seeds, args.seed)
    else:
        text = run_loglik_experiment(args.loglik_n, args.theta, args.m,
                                     args.seeds, args.seed,
                                     data_path=args.data, step=args.step)
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mallows-topk",
        description="Mallows-model statistics for top-k rankings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw top-k rankings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--sigma0", help="CSV file with one full consensus ranking")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("separate", help="split a sample into expert/non-expert")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--method", choices=["2means", "gap"], default="2means")
    p.add_argument("--out", help="labels CSV path (default stdout)")
    p.add_argument("--json", help="fit JSON path (default <out>.json)")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("aggregate", help="estimate a consensus ranking")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--method", choices=["borda", "eborda"], default="borda")
    p.add_argument("--cluster-method", choices=["2means", "gap"],
                   default="gap")
    p.add_argument("--out", help="JSON path (default stdout)")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("bounds", help="evaluate the theoretical sample bounds")
    p.add_argument("--which", choices=["borda", "separation"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--theta", type=float)
    p.add_argument("--i", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--e-gamma", dest="e_gamma", type=float)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--out", help="JSON path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("experiment", help="run a CSV experiment harness")
    p.add_argument("--name", choices=["separation", "eborda", "loglik"],
                   required=True)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--mg", type=int, default=None,
                   help="expert component size")
    p.add_argument("--mb", type=int, default=None,
                   help="non-expert component size")
    p.add_argument("--e-gamma-grid", dest="e_gamma_grid",
                   default="3,8,13,18,23,28,33,38,43,48")
    p.add_argument("--c-grid", dest="c_grid",
                   default="3,6,9,12,15,18,21,24,27,30,33,36,39")
    p.add_argument("--e-gamma", dest="e_gamma", type=float, default=10.0)
    p.add_argument("--e-beta", dest="e_beta", type=float, default=75.0)
    p.add_argument("--method", choices=["2means", "gap"], default="2means")
    p.add_argument("--loglik-n", type=int, default=5)
    p.add_argument("--theta", type=float, default=1.43)
    p.add_argument("--m", type=int, default=98)
    p.add_argument("--step", type=int, default=1,
                   help="impostors added per log-likelihood step")
    p.add_argument("--data", help="user-supplied ranking CSV (loglik only)")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment":
        if args.mg is None:
            args.mg = 40 if args.name == "separation" else 4
        if args.mb is None:
            args.mb = 60 if args.name == "separation" else 40
    try:
        return args.func(args)
    except VacuousBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
