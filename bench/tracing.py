"""Outside-in tracing of the mallows_topk layers.

The tracer replaces every binding of the public functions of `rankings`,
`model`, `mixture`, `estimation` and `cli` with a wrapper that records a
span (name, start, end, parent).  `from .x import f` copies a name into the
importing module, so every module of the package is searched for the
wrapped function objects by identity.  Spans are kept in memory and reduced
to per-layer figures when an operation ends; nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("rankings", "model", "mixture", "estimation", "cli")
PACKAGE = "mallows_topk"
METHODS = (("model", "MallowsModel", "log_topk_probability"),
           ("model", "MallowsModel", "distance_to_consensus"))
# Span names that the per-layer metrics shorten.
ALIASES = {"rankings.parse_rankings_csv": "rankings.parse",
           "rankings.format_rankings_csv": "rankings.format",
           "model.MallowsModel.log_topk_probability": "model.log_topk_probability",
           "model.MallowsModel.distance_to_consensus": "model.distance_to_consensus"}
ALLOC_PROBED = "mixture.mean_distances"


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans must nest as a call tree does: a child lies inside its parent and
    the children of one parent do not overlap, so the covered time is the
    sum of the children's durations.  A parent index of -1 marks a root.
    """
    starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    duration = ends - starts
    child = parents >= 0
    p = parents[child]
    if np.any(starts[child] < starts[p]) or np.any(ends[child] > ends[p]):
        raise ValueError("a child span lies outside its parent")
    order = np.lexsort((starts[child], p))
    kid_parent, kid_start, kid_end = p[order], starts[child][order], ends[child][order]
    siblings = kid_parent[1:] == kid_parent[:-1]
    if np.any(kid_start[1:][siblings] < kid_end[:-1][siblings]):
        raise ValueError("two children of one span overlap")
    covered = np.bincount(p, weights=duration[child], minlength=len(duration))
    return duration - covered


class Tracer:
    """Records spans and work counters while `recording` is set."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.recording = False
        self.probing_alloc = False
        self.peak_alloc = 0
        self._patched: list = []
        self._consensus_type: type = type(None)
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counters recorded so far."""
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._scope: List[int] = []
        self.counters: Dict[str, float] = {}
        self._pairs: set = set()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def distance_evaluated(self, scope: int, ranking, consensus) -> None:
        """Count one distance-to-consensus evaluation.  Within one library
        call (the outermost span below `cli`), a repeated pair is waste."""
        self.add("distance_evaluations")
        self._pairs.add((scope, id(ranking), consensus))

    def _call(self, nid: int, is_cli: bool, fn: Callable, count, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        outer = self._scope[-1] if self._scope else -1
        self._scope.append(outer if outer >= 0 else (-1 if is_cli else idx))
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            scope = self._scope.pop()
        if count is not None:
            count(self, scope, args, result)
        return result

    def _probe(self, fn: Callable, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # -- installing --------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        tracer, nid, is_cli = self, self._id(name), name.startswith("cli.")
        count: Optional[Callable] = COUNTERS.get(name)
        probed = name == ALLOC_PROBED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                return tracer._call(nid, is_cli, fn, count, args, kwargs)
            if probed and tracer.probing_alloc:
                return tracer._probe(fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced layers, at every binding,
        and the two per-ranking methods of `MallowsModel` on the class."""
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        originals: Dict[int, Callable] = {}
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    originals[id(fn)] = fn
                    wrappers[id(fn)] = self._wrapper(name, fn)

        def is_original(value) -> bool:
            return originals.get(id(value)) is value

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if is_original(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrapper(ALIASES[f"{layer}.{cls_name}.{meth}"], fn))
        self._consensus_type = modules[f"{PACKAGE}.rankings"].Permutation
        missed = [f"{n}.{a}" for n, m in modules.items()
                  for a, v in vars(m).items() if is_original(v)]
        if missed:
            raise RuntimeError(f"bindings left unwrapped: {missed}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self seconds per span name for the spans recorded
        since the last reset, and the work counters."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=np.float64)
        ends = np.frombuffer(self.end, dtype=np.float64)
        selfs = self_times(starts, ends, np.frombuffer(self.parent, dtype=np.int64))
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        total = np.bincount(ids, weights=ends - starts, minlength=width)
        own = np.bincount(ids, weights=selfs, minlength=width)
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(own[i])}
                 for i, name in enumerate(self.names) if calls[i]}
        counters = dict(self.counters)
        counters["distinct_pairs"] = len(self._pairs)
        return {"spans": spans, "counters": counters}


def _count_sample(tracer: Tracer, scope: int, args, result) -> None:
    tracer.add("model.sample_topk.draws", len(result))


def _count_parse(tracer: Tracer, scope: int, args, result) -> None:
    tracer.add("rankings.parse.rows", len(result))


def _count_format(tracer: Tracer, scope: int, args, result) -> None:
    tracer.add("rankings.format.rows", result.count("\n") - 1)


def _count_mean_distances(tracer: Tracer, scope: int, args, result) -> None:
    tracer.add("mixture.mean_distances.rankings", len(args[0]))


def _count_mle(tracer: Tracer, scope: int, args, result) -> None:
    tracer.add("estimation.estimate_theta_mle.rankings", len(args[0]))


def _count_distance(tracer: Tracer, scope: int, args, result) -> None:
    tracer.distance_evaluated(scope, args[1], args[0].sigma0)


def _count_kendall(tracer: Tracer, scope: int, args, result) -> None:
    if isinstance(args[1], tracer._consensus_type):
        tracer.distance_evaluated(scope, args[0], args[1])


COUNTERS = {
    "model.sample_topk": _count_sample,
    "rankings.parse": _count_parse,
    "rankings.format": _count_format,
    "mixture.mean_distances": _count_mean_distances,
    "estimation.estimate_theta_mle": _count_mle,
    "model.distance_to_consensus": _count_distance,
    "rankings.kendall_topk": _count_kendall,
}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, the end-to-end figure it should move)
#
# Self times are given as a share of the traced operation's wall time, so a
# layer that a workload never enters reads 0 % rather than a constant time;
# trace.op_s.p50 turns a share back into seconds.
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("rankings.parse.self_pct", "%", "lower", "rankings_per_s on aggregate_bulk"),
    ("rankings.parse.rows", "count", "higher", "rankings_per_s on aggregate_bulk"),
    ("rankings.format.self_pct", "%", "lower", "rankings_per_s on sample_wide"),
    ("rankings.format.rows", "count", "higher", "rankings_per_s on sample_wide"),
    ("rankings.kendall_topk.calls", "count", "lower",
     "op_s.p50 on aggregate_bulk and separate_mixture"),
    ("rankings.kendall_topk.self_pct", "%", "lower",
     "op_s.p50 on aggregate_bulk and separate_mixture"),
    ("rankings.self_pct", "%", "lower", "op_s.p50 on aggregate_bulk"),
    ("model.sample_topk.self_pct", "%", "lower",
     "rankings_per_s and peak_rss_mb on sample_wide"),
    ("model.sample_topk.draws", "count", "higher", "rankings_per_s on sample_wide"),
    ("model.log_topk_probability.calls", "count", "lower", "op_s.p50 on loglik_sweep"),
    ("model.log_topk_probability.self_pct", "%", "lower", "op_s.p50 on loglik_sweep"),
    ("model.distance_to_consensus.calls", "count", "lower", "op_s.p50 on loglik_sweep"),
    ("model.distance_to_consensus.self_pct", "%", "lower", "op_s.p50 on loglik_sweep"),
    ("model.log_psi_total.calls", "count", "lower", "op_s.p50 on loglik_sweep"),
    ("model.psi_evals_per_logprob", "ratio", "lower", "op_s.p50 on loglik_sweep"),
    ("model.distance_useful_ratio", "ratio", "higher", "op_s.p50 on loglik_sweep"),
    ("model.expected_topk_distance.calls", "count", "lower",
     "op_s.p50 on aggregate_bulk and loglik_sweep"),
    ("model.self_pct", "%", "lower", "op_s.p50 on sample_wide and loglik_sweep"),
    ("mixture.mean_distances.self_pct", "%", "lower", "op_s.p50 on separate_mixture"),
    ("mixture.pairwise_topk_distances.self_pct", "%", "lower",
     "op_s.p50 and peak_rss_mb on separate_mixture"),
    ("mixture.mean_distances.rankings", "count", "higher", "op_s.p50 on separate_mixture"),
    ("mixture.mean_distances.peak_alloc_mb", "MB", "lower",
     "peak_rss_mb on separate_mixture"),
    ("mixture.separate.self_pct", "%", "lower", "op_s.p50 on loglik_sweep"),
    ("mixture.fit_mixture.calls", "count", "lower", "op_s.p50 on loglik_sweep"),
    ("mixture.mixture_log_likelihood.self_pct", "%", "lower", "op_s.p50 on loglik_sweep"),
    ("mixture.self_pct", "%", "lower", "op_s.p50 on separate_mixture and loglik_sweep"),
    ("estimation.borda.self_pct", "%", "lower",
     "op_s.p50 on aggregate_bulk and loglik_sweep"),
    ("estimation.estimate_theta_mle.calls", "count", "lower",
     "op_s.p50 on aggregate_bulk and loglik_sweep"),
    ("estimation.estimate_theta_mle.rankings", "count", "lower",
     "op_s.p50 on aggregate_bulk and loglik_sweep"),
    ("estimation.mle_rankings_per_input", "ratio", "lower",
     "op_s.p50 on aggregate_bulk and loglik_sweep"),
    ("estimation.self_pct", "%", "lower", "op_s.p50 on aggregate_bulk and loglik_sweep"),
    ("cli.self_pct", "%", "lower", "op_s.p50 on every workload"),
    ("trace.op_s.p50", "s", "lower", "op_s.p50 on every workload, with tracing on"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
)


def self_seconds(spans: dict, head: str) -> float:
    """Self time of one span name, or of a whole layer."""
    if head in LAYERS:
        return sum(s["self_s"] for n, s in spans.items() if n.startswith(head + "."))
    return spans.get(head, {}).get("self_s", 0.0)


def op_metrics(summary: dict, op_rankings: int) -> Dict[str, float]:
    """Per-layer figures of one traced operation (run-level ones excluded)."""
    spans, counters = summary["spans"], summary["counters"]
    op_s = spans["cli.main"]["total_s"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "self_pct":
            out[name] = 100.0 * self_seconds(spans, head) / op_s
        elif tail == "calls":
            out[name] = calls(head)
        else:
            out[name] = counters.get(name, 0)
    out.update({
        "trace.op_s.p50": op_s,
        "model.psi_evals_per_logprob": ratio(calls("model.log_psi_total"),
                                             calls("model.log_topk_probability")),
        "model.distance_useful_ratio": ratio(counters["distinct_pairs"],
                                             counters.get("distance_evaluations", 0)),
        "estimation.mle_rankings_per_input": ratio(
            counters.get("estimation.estimate_theta_mle.rankings", 0), op_rankings),
    })
    return out


def median_metrics(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
