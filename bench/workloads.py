"""The four benchmark workloads: input generation, output checks and
quality figures.

Inputs are drawn by this module's own Mallows sampler, not by the library
under test, so that a change to the library's sampler cannot change what
the other workloads are fed.  Every input is a function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Input:
    """One operation's arguments, its output files and what it should show."""

    argv: List[str]
    outputs: List[str]
    rankings: int                  # rankings drawn, read or scored per operation
    sizes: dict
    sha256: str
    truth: dict = field(default_factory=dict)

    def read_outputs(self) -> List[bytes]:
        blobs = []
        for path in self.outputs:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        return blobs

    def remove_outputs(self) -> None:
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[np.random.Generator, str], List[Input]]
    check: Callable[[Input, List[bytes]], dict]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Generation: truncated-geometric inversion counts, then an O(k^2) decode
# ---------------------------------------------------------------------------


def _inv_expm1(x: float) -> float:
    """1 / (exp(x) - 1) for x > 0, without overflow."""
    return math.exp(-x) / -math.expm1(-x)


def expected_distance(n: int, k: int, theta: float) -> float:
    """E[d(sigma, sigma0)] of a top-k Mallows draw (sum of E[V_j])."""
    return sum(_inv_expm1(theta) - s * _inv_expm1(theta * s)
               for s in range(n, n - k, -1))


def theta_for_distance(n: int, k: int, target: float) -> float:
    lo, hi = 1e-9, 50.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if expected_distance(n, k, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def draw_topk(gen: np.random.Generator, sigma0_items: np.ndarray, k: int,
              theta: float, count: int) -> np.ndarray:
    """(count, k) 0-based item ids of top-k Mallows draws around sigma0."""
    n = len(sigma0_items)
    supports = n - np.arange(k)
    u = gen.random((count, k))
    v = np.floor(-np.log1p(-u * -np.expm1(-theta * supports)) / theta)
    v = np.minimum(v.astype(np.int64), supports - 1)
    codes = np.empty((count, k), dtype=np.int64)
    for j in range(k):
        code = v[:, j].copy()
        for earlier in np.sort(codes[:, :j], axis=1).T:
            code += earlier <= code
        codes[:, j] = code
    return sigma0_items[codes]


def _csv_text(n: int, rows: Sequence[Sequence[int]]) -> str:
    lines = [f"# n={n}"]
    lines.extend(",".join(str(i + 1) for i in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return _sha256(text.encode("utf-8"))


def _seeds(gen: np.random.Generator, count: int) -> List[int]:
    return [int(s) for s in gen.integers(0, 2**31 - 1, size=count)]


def _parse_rows(text: str, n: int) -> List[List[int]]:
    lines = text.splitlines()
    if not lines or lines[0] != f"# n={n}":
        raise CheckFailed("ranking file lacks the '# n=<N>' header")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise CheckFailed(f"malformed ranking row {ln!r}") from exc
    return rows


def _is_permutation(items: Sequence[int], n: int) -> bool:
    return sorted(items) == list(range(1, n + 1))


# Units of the quality figures that the checks return.
QUALITY_UNITS = {"distance_z": "sd", "misclass_pct": "%", "theta_abs_err": "theta",
                 "consensus_err": "pairs", "min_ll_gap": "nats"}

# Each workload draws a few distinct inputs and cycles through them, so that
# its quality figures average over more than one sample.
POOL = 3


# ---------------------------------------------------------------------------
# sample_wide: sample --n 1000 --k 10 --theta 0.3
# ---------------------------------------------------------------------------

WIDE_N, WIDE_K, WIDE_THETA, WIDE_COUNT = 1000, 10, 0.3, 4000


def _wide_inputs(gen: np.random.Generator, workdir: str) -> List[Input]:
    inputs = []
    for i, seed in enumerate(_seeds(gen, POOL)):
        argv = ["sample", "--n", str(WIDE_N), "--k", str(WIDE_K),
                "--theta", str(WIDE_THETA), "--count", str(WIDE_COUNT),
                "--seed", str(seed), "--out", os.path.join(workdir, f"wide{i}.csv")]
        sizes = {"n": WIDE_N, "k": WIDE_K, "theta": WIDE_THETA,
                 "count": WIDE_COUNT, "cli_seed": seed}
        inputs.append(Input(argv, [argv[-1]], WIDE_COUNT, sizes,
                            _sha256(json.dumps(argv[:-2]).encode())))
    return inputs


def topk_distances_to_identity(rows: np.ndarray) -> np.ndarray:
    """Kendall top-k distance of each 0-based row to the identity ranking:
    each listed item is discordant with the smaller ids not listed before it."""
    d = rows.sum(axis=1)
    for j in range(1, rows.shape[1]):
        d -= (rows[:, :j] < rows[:, j:j + 1]).sum(axis=1)
    return d


def _wide_check(inp: Input, outputs: List[bytes]) -> dict:
    from mallows_topk.model import expected_topk_distance, variance_topk_distance

    rows = _parse_rows(outputs[0].decode("utf-8"), WIDE_N)
    if len(rows) != WIDE_COUNT:
        raise CheckFailed(f"expected {WIDE_COUNT} rows, got {len(rows)}")
    if any(len(r) != WIDE_K or len(set(r)) != WIDE_K for r in rows):
        raise CheckFailed("a row is not a list of k distinct items")
    arr = np.array(rows, dtype=np.int64) - 1
    if arr.min() < 0 or arr.max() >= WIDE_N:
        raise CheckFailed("an item id is out of range")
    mean = float(topk_distances_to_identity(arr).mean())
    expected = expected_topk_distance(WIDE_N, WIDE_K, WIDE_THETA)
    se = math.sqrt(variance_topk_distance(WIDE_N, WIDE_K, WIDE_THETA) / WIDE_COUNT)
    z = (mean - expected) / se
    if abs(z) > 4.0:
        raise CheckFailed(f"mean distance {mean:.3f} is {z:.1f} standard errors "
                          f"from E[D] = {expected:.3f}")
    return {"distance_z": z}


# ---------------------------------------------------------------------------
# separate_mixture: concentric mixture, paper Fig. (b) settings
# ---------------------------------------------------------------------------

SEP_N, SEP_K, SEP_M, SEP_R, SEP_E_GAMMA, SEP_E_BETA = 30, 10, 800, 0.4, 10.0, 75.0


def _separate_inputs(gen: np.random.Generator, workdir: str) -> List[Input]:
    theta_g = theta_for_distance(SEP_N, SEP_K, SEP_E_GAMMA)
    theta_b = theta_for_distance(SEP_N, SEP_K, SEP_E_BETA)
    inputs = []
    for i in range(POOL):
        sigma0 = gen.permutation(SEP_N)
        expert = gen.random(SEP_M) < SEP_R
        rows = np.empty((SEP_M, SEP_K), dtype=np.int64)
        rows[expert] = draw_topk(gen, sigma0, SEP_K, theta_g, int(expert.sum()))
        rows[~expert] = draw_topk(gen, sigma0, SEP_K, theta_b, int((~expert).sum()))
        path = os.path.join(workdir, f"mixture{i}.csv")
        digest = _write(path, _csv_text(SEP_N, rows.tolist()))
        out = os.path.join(workdir, f"labels{i}.csv")
        argv = ["separate", "--in", path, "--out", out, "--json", out + ".json"]
        sizes = {"n": SEP_N, "k": SEP_K, "m": SEP_M, "r": SEP_R,
                 "e_gamma": SEP_E_GAMMA, "e_beta": SEP_E_BETA,
                 "experts": int(expert.sum())}
        inputs.append(Input(argv, [out, out + ".json"], SEP_M, sizes, digest,
                            {"expert": expert, "theta_g": theta_g}))
    return inputs


def _separate_check(inp: Input, outputs: List[bytes]) -> dict:
    lines = outputs[0].decode("utf-8").splitlines()
    if not lines or lines[0] != "index,delta,label":
        raise CheckFailed("labels file lacks its header")
    labels = []
    for pos, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != 3 or parts[0] != str(pos) or parts[2] not in ("expert", "nonexpert"):
            raise CheckFailed(f"malformed label row {ln!r}")
        labels.append(parts[2] == "expert")
    if len(labels) != SEP_M:
        raise CheckFailed(f"expected {SEP_M} labels, got {len(labels)}")
    fit = json.loads(outputs[1])
    theta_g_hat, r_hat = fit["theta_g_hat"], fit["r_hat"]
    if not math.isfinite(theta_g_hat) or not math.isfinite(fit["theta_b_hat"]):
        raise CheckFailed("a fitted dispersion is not finite")
    if not 0.0 <= r_hat <= 1.0:
        raise CheckFailed(f"r_hat = {r_hat} lies outside [0, 1]")
    if not _is_permutation(fit["consensus"], SEP_N):
        raise CheckFailed("the consensus is not a permutation")
    truth = inp.truth["expert"]
    wrong = int(np.count_nonzero(np.array(labels) != truth))
    return {"misclass_pct": 100.0 * min(wrong, SEP_M - wrong) / SEP_M,
            "theta_abs_err": abs(theta_g_hat - inp.truth["theta_g"])}


# ---------------------------------------------------------------------------
# aggregate_bulk: Borda on many rankings of mixed length
# ---------------------------------------------------------------------------

AGG_N, AGG_M, AGG_THETA, AGG_K_MAX = 50, 4000, 0.3, 15


def _aggregate_inputs(gen: np.random.Generator, workdir: str) -> List[Input]:
    inputs = []
    for i in range(POOL):
        sigma0 = gen.permutation(AGG_N)
        ks = gen.integers(1, AGG_K_MAX + 1, size=AGG_M)
        rows: List[Optional[list]] = [None] * AGG_M
        for k in range(1, AGG_K_MAX + 1):
            where = np.flatnonzero(ks == k)
            for pos, row in zip(where, draw_topk(gen, sigma0, k, AGG_THETA, len(where))):
                rows[pos] = row.tolist()
        path = os.path.join(workdir, f"bulk{i}.csv")
        digest = _write(path, _csv_text(AGG_N, rows))
        out = os.path.join(workdir, f"consensus{i}.json")
        argv = ["aggregate", "--in", path, "--method", "borda", "--out", out]
        sizes = {"n": AGG_N, "m": AGG_M, "theta": AGG_THETA,
                 "k_range": [1, AGG_K_MAX], "listed_items": int(ks.sum())}
        inputs.append(Input(argv, [out], AGG_M, sizes, digest,
                            {"sigma0": sigma0.tolist()}))
    return inputs


def _aggregate_check(inp: Input, outputs: List[bytes]) -> dict:
    from mallows_topk.estimation import ConsensusEstimate, partial_estimate_error
    from mallows_topk.rankings import Permutation, TopKRanking

    est = json.loads(outputs[0])
    order = est["ranking"]
    if not _is_permutation(order, AGG_N):
        raise CheckFailed("the consensus is not a permutation of 1..n")
    theta_hat = est["theta_hat"]
    if theta_hat is None or not math.isfinite(theta_hat):
        raise CheckFailed("theta_hat is not finite")
    completion = Permutation.from_items([i - 1 for i in order])
    k_prime = est["k_prime"]
    ranking = (completion if k_prime == AGG_N else
               TopKRanking(AGG_N, k_prime, completion.items_by_rank()[:k_prime]))
    estimate = ConsensusEstimate(ranking, k_prime, tuple(est["source_counts"]),
                                 completion)
    sigma0 = Permutation.from_items(inp.truth["sigma0"])
    return {"theta_abs_err": abs(theta_hat - AGG_THETA),
            "consensus_err": partial_estimate_error(estimate, sigma0)}


# ---------------------------------------------------------------------------
# loglik_sweep: the single-model vs mixture likelihood experiment
# ---------------------------------------------------------------------------

LL_M, LL_STEP = 98, 12
LL_IMPOSTORS = list(range(0, 2 * LL_M + 1, LL_STEP))


def _loglik_inputs(gen: np.random.Generator, workdir: str) -> List[Input]:
    inputs = []
    for i, seed in enumerate(_seeds(gen, POOL)):
        out = os.path.join(workdir, f"loglik{i}.csv")
        argv = ["experiment", "--name", "loglik", "--seeds", "1", "--m", str(LL_M),
                "--step", str(LL_STEP), "--seed", str(seed), "--out", out]
        scored = sum(LL_M + t for t in LL_IMPOSTORS)
        sizes = {"n": 5, "m": LL_M, "step": LL_STEP, "steps": len(LL_IMPOSTORS),
                 "cli_seed": seed}
        inputs.append(Input(argv, [out], scored, sizes,
                            _sha256(json.dumps(argv[:-2]).encode())))
    return inputs


def _loglik_check(inp: Input, outputs: List[bytes]) -> dict:
    lines = outputs[0].decode("utf-8").splitlines()
    if not lines or lines[0] != "impostors,seed,single_ll,mixture_ll":
        raise CheckFailed("experiment CSV lacks its header")
    if len(lines) - 1 != len(LL_IMPOSTORS):
        raise CheckFailed(f"expected {len(LL_IMPOSTORS)} rows, got {len(lines) - 1}")
    gaps = []
    for t, ln in zip(LL_IMPOSTORS, lines[1:]):
        parts = ln.split(",")
        if len(parts) != 4 or parts[0] != str(t):
            raise CheckFailed(f"unexpected experiment row {ln!r}")
        single, mixed = float(parts[2]), float(parts[3])
        if not (math.isfinite(single) and math.isfinite(mixed)):
            raise CheckFailed(f"a log-likelihood is not finite in {ln!r}")
        if mixed < single:
            raise CheckFailed(f"mixture fit loses to the single model in {ln!r}")
        gaps.append(mixed - single)
    return {"min_ll_gap": min(gaps)}


WORKLOADS = {w.name: w for w in (
    Workload("sample_wide",
             "sample with n=1000 and k=10: the sampler's O(k*n) decode is nearly "
             "all the time; mixture and estimation do no work",
             _wide_inputs, _wide_check),
    Workload("separate_mixture",
             "separate on a concentric mixture (n=30, k=10, m=800): all-pairs mean "
             "distances dominate; the sampler does no work",
             _separate_inputs, _separate_check),
    Workload("aggregate_bulk",
             "Borda on 4000 rankings of mixed k (n=50): per-ranking distances in "
             "the theta MLE and CSV parsing dominate; no mixture",
             _aggregate_inputs, _aggregate_check),
    Workload("loglik_sweep",
             "loglik experiment (n=5, m=98, step 12): per-ranking log-probabilities "
             "and many small mixture fits; the only likelihood path",
             _loglik_inputs, _loglik_check),
)}
