"""Benchmark of the mallows-topk CLI pipeline.

Runs one workload through the public entry point `mallows_topk.cli.main(argv)`
in process: one client, one operation at a time (closed loop), for the given
number of seconds.  Usage, from the root of a checkout:

    python3 bench/run.py --workload separate_mixture --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed and are not timed.  One untimed warm-up
operation precedes the timed loop.  Every output is checked; an exception, a
non-zero exit or a failed check counts the operation as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with every layer function wrapped (see tracing.py), checks
that the traced outputs are byte-identical to the untraced ones, and prints
the per-layer metrics.  The last line of standard output is the result, one
JSON object; the line before it holds provenance and the figures that are
not gated (error rate, quality of the fits, the tail percentile used).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The tail is the highest percentile with at least this many operations
# beyond it, so a run needs one more operation than this to report one.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
SETUP_REPEATS = 5
# A run stops at this multiple of --seconds even short of MIN_OPS.
OVERRUN = 4

END_TO_END_UNITS = {"rankings_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mallows_topk", "cli.py")):
        sys.exit(f"error: {SRC} holds no mallows_topk package")
    sys.path.insert(0, SRC)
    import mallows_topk
    import mallows_topk.cli

    where = os.path.dirname(os.path.abspath(mallows_topk.__file__))
    if where != os.path.join(SRC, "mallows_topk"):
        sys.exit(f"error: mallows_topk was imported from {where}, not {SRC}")
    return mallows_topk.cli


class Runner:
    """Runs operations and checks their outputs.

    The first output for each input gets the workload's full check; every
    later output for that input must be byte-identical to it.
    """

    def __init__(self, cli, workload, inputs):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[int, str] = {}
        self.quality: Dict[int, dict] = {}
        self.tracer: Optional[tracing.Tracer] = None  # records cli.main when set

    def attempt(self, index: int) -> Optional[float]:
        """Run one operation; its wall time, or None when it failed."""
        inp = self.inputs[index]
        inp.remove_outputs()
        self.attempted += 1
        if self.tracer:
            self.tracer.reset()
            self.tracer.recording = True
        start = time.perf_counter()
        try:
            code = self.cli.main(inp.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            if self.tracer:
                self.tracer.recording = False
        elapsed = time.perf_counter() - start
        if code == 0 and self._verify(index):
            return elapsed
        print(f"{self.workload.name}: operation on input {index} failed "
              f"(exit {code})", file=sys.stderr)
        self.failed += 1
        return None

    def _verify(self, index: int) -> bool:
        inp = self.inputs[index]
        try:
            outputs = inp.read_outputs()
            digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
            if index not in self.digests:
                self.quality[index] = self.workload.check(inp, outputs)
                self.digests[index] = digest
            elif digest != self.digests[index]:
                raise workloads.CheckFailed("output differs from an earlier "
                                            "operation on the same input")
        except (OSError, ValueError, KeyError, TypeError, workloads.CheckFailed) as exc:
            print(f"{self.workload.name}: check failed on input {index}: {exc}",
                  file=sys.stderr)
            return False
        return True

    def loop(self, seconds: float, after=None) -> List[Tuple[int, float]]:
        """Closed loop over the inputs for `seconds`: (input, wall time) of
        each operation that succeeded."""
        done: List[Tuple[int, float]] = []
        start = time.perf_counter()
        i = 1
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= OVERRUN * seconds or (elapsed >= seconds and len(done) >= MIN_OPS):
                return done
            index = i % len(self.inputs)
            i += 1
            t = self.attempt(index)
            if after:
                after(index, t)
            if t is not None:
                done.append((index, t))


def tail(times: List[float]) -> tuple:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    operations above it, i.e. the (TAIL_BEYOND + 1)-th slowest operation."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports mallows_topk.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mallows_topk.cli"], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_commit() -> Optional[str]:
    """The checked-out commit, when the checkout is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _source_digest() -> str:
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(SRC)
                   for f in files if f.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, workload, inputs) -> dict:
    return {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": [{"sha256": i.sha256, "sizes": i.sizes,
                    "rankings_per_op": i.rankings} for i in inputs],
    }


def quality(runner: Runner) -> dict:
    """Each quality figure averaged over the inputs, and the error rate."""
    keys = sorted({k for q in runner.quality.values() for k in q})
    figures = {k: {"value": statistics.fmean(q[k] for q in runner.quality.values() if k in q),
                   "unit": workloads.QUALITY_UNITS[k]} for k in keys}
    figures["error_rate"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
    return figures


def run_untraced(args, runner: Runner) -> tuple:
    setup = setup_seconds()
    done = runner.loop(args.seconds)
    if not done:
        sys.exit("error: every timed operation failed")
    times = [t for _, t in done]
    value, pct = tail(times)
    metrics = {
        # Rankings per second of a median operation: the machine's speed
        # drifts over seconds, and a mean would follow its brief fast spells.
        "rankings_per_s": statistics.median(runner.inputs[i].rankings / t for i, t in done),
        "op_s.p50": statistics.median(times),
        "op_s.tail": value,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"op_s.tail_percentile": pct, "timed_ops": len(times)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, details


def run_traced(args, runner: Runner) -> tuple:
    untraced = [t for _, t in runner.loop(args.seconds / 2)]
    if not untraced:
        sys.exit("error: every timed operation failed")
    # Every input gets an untraced reference output, which the traced
    # operations must then reproduce byte for byte.
    for index in range(len(runner.inputs)):
        if index not in runner.digests:
            runner.attempt(index)
    failed_untraced = runner.failed
    tracer = tracing.Tracer()
    tracer.install()
    per_op, spans = [], []

    def after(index, t):
        if t is not None:
            summary = tracer.summary()
            spans.append(summary["spans"])
            per_op.append(tracing.op_metrics(summary, runner.inputs[index].rankings))

    try:
        runner.tracer = tracer
        traced = [t for _, t in runner.loop(args.seconds / 2, after)]
        runner.tracer = None
        tracer.probing_alloc = True
        runner.attempt(0)
    finally:
        runner.tracer = None
        tracer.probing_alloc = False
        tracer.uninstall()
    if not per_op:
        sys.exit("error: every traced operation failed")
    metrics = tracing.median_metrics(per_op)
    metrics["mixture.mean_distances.peak_alloc_mb"] = tracer.peak_alloc / 2**20
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    units = {name: unit for name, unit, *_ in tracing.PER_LAYER}
    layer_share = {layer: metrics[f"{layer}.self_pct"] for layer in tracing.LAYERS}
    names = sorted({n for s in spans for n in s})
    details = {
        "untraced_ops": len(untraced), "traced_ops": len(traced),
        "traced_outputs_identical": runner.failed == failed_untraced,
        "largest_self_time_layer": max(layer_share, key=layer_share.get),
        "layer_self_s": {layer: statistics.median(tracing.self_seconds(s, layer)
                                                  for s in spans)
                         for layer in tracing.LAYERS},
        "spans_per_op": {n: {k: statistics.median(s.get(n, {}).get(k, 0) for s in spans)
                             for k in ("calls", "total_s", "self_s")} for n in names},
        "targets": {name: target for name, _, _, target in tracing.PER_LAYER},
    }
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_package()
    workload = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        stream = zlib.crc32(workload.name.encode())
        inputs = workload.make_inputs(np.random.default_rng([args.seed, stream]), workdir)
        runner = Runner(cli, workload, inputs)
        runner.attempt(0)  # warm-up, untimed
        if args.trace:
            metrics, details = run_traced(args, runner)
        else:
            metrics, details = run_untraced(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    details["quality"] = quality(runner)
    print(json.dumps({"provenance": provenance(args, workload, inputs),
                      "details": details}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
