"""Tests of the benchmark's own machinery: self-time arithmetic, binding
coverage of the tracer, output checks and the metric tables."""

import json
import os

import numpy as np
import pytest

import run
import tracing
import workloads

cli = run._import_package()


def test_self_times_of_a_nested_trace():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_times_rejects_spans_that_do_not_nest():
    with pytest.raises(ValueError):
        tracing.self_times([0.0, 1.0, 2.0], [5.0, 3.0, 4.0], [-1, 0, 0])
    with pytest.raises(ValueError):
        tracing.self_times([0.0, 1.0], [5.0, 6.0], [-1, 0])


def _mixture_csv(path, seed=3):
    gen = np.random.default_rng(seed)
    sigma0 = gen.permutation(10)
    rows = np.vstack([workloads.draw_topk(gen, sigma0, 4, 2.0, 40),
                      workloads.draw_topk(gen, sigma0, 4, 0.05, 40)])
    path.write_text(workloads._csv_text(10, rows.tolist()))
    return str(path)


def test_tracer_wraps_every_binding(tmp_path):
    from mallows_topk import estimation, mixture, model

    originals = {(m.__name__, name): getattr(m, name) for m, name in (
        (cli, "sample_topk"), (mixture, "sample_topk"), (estimation, "kendall_topk"),
        (model, "kendall_topk"), (cli, "log_likelihood"), (mixture, "log_likelihood"))}
    source = _mixture_csv(tmp_path / "mix.csv")
    out = str(tmp_path / "labels.csv")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(__import__(mod, fromlist=[name]), name) is not fn
        tracer.recording = True
        assert cli.main(["separate", "--in", source, "--out", out]) == 0
        tracer.recording = False
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(__import__(mod, fromlist=[name]), name) is fn
    with open(out + ".json") as fh:
        assert not json.load(fh)["degenerate"]
    spans = tracer.summary()["spans"]
    assert spans["estimation.estimate_theta_mle"]["calls"] == 2
    assert spans["cli.main"]["calls"] == 1
    assert spans["mixture.mean_distances"]["calls"] == 1


@pytest.fixture
def wide_runner(tmp_path):
    wl = workloads.WORKLOADS["sample_wide"]
    inputs = wl.make_inputs(np.random.default_rng(0), str(tmp_path))
    return run.Runner(cli, wl, inputs)


def _duplicate_first_item(monkeypatch):
    original = cli.format_rankings_csv

    def corrupted(rankings):
        header, first, rest = original(rankings).split("\n", 2)
        items = first.split(",")
        items[1] = items[0]
        return "\n".join([header, ",".join(items), rest])

    monkeypatch.setattr(cli, "format_rankings_csv", corrupted)


def test_a_corrupted_output_counts_as_a_failed_operation(wide_runner, monkeypatch):
    with monkeypatch.context() as patch:
        _duplicate_first_item(patch)
        assert wide_runner.attempt(0) is None
    assert wide_runner.attempt(0) is not None
    with monkeypatch.context() as patch:
        _duplicate_first_item(patch)
        assert wide_runner.attempt(0) is None
    assert (wide_runner.attempted, wide_runner.failed) == (3, 2)


def test_a_non_zero_exit_counts_as_a_failed_operation(wide_runner, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 2)
    assert wide_runner.attempt(1) is None
    assert wide_runner.failed == 1


def test_generated_draws_are_top_k_lists_at_the_expected_distance():
    from mallows_topk.rankings import Permutation, TopKRanking, kendall_topk

    gen = np.random.default_rng(11)
    rows = workloads.draw_topk(gen, np.arange(40), 6, 0.4, 4000)
    assert all(len(set(r)) == 6 for r in rows.tolist())
    d = workloads.topk_distances_to_identity(rows)
    ident = Permutation.identity(40)
    assert [kendall_topk(TopKRanking(40, 6, tuple(r)), ident) for r in rows[:50].tolist()] \
        == d[:50].tolist()
    assert abs(d.mean() - workloads.expected_distance(40, 6, 0.4)) < 0.5


def test_tail_is_the_eleventh_slowest_operation():
    value, pct = run.tail([float(i) for i in range(30)])
    assert value == 19.0
    assert pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in tracing.PER_LAYER]
