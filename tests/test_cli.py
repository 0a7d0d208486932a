import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mallows_topk import cli, estimation, mixture, rankings
from mallows_topk.cli import main
from mallows_topk.model import MallowsModel, RandomSource, sample_topk
from mallows_topk.rankings import (Permutation, TopKRanking,
                                   format_rankings_csv, read_rankings_csv,
                                   write_rankings_csv)


def run(*argv):
    return main([str(a) for a in argv])


class TestSample:
    def test_shape_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert run("sample", "--n", 30, "--k", 10, "--theta", 0.8,
                       "--count", 100, "--seed", 7, "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rankings = read_rankings_csv(out1)
        assert len(rankings) == 100
        assert all(r.n == 30 and r.k == 10 for r in rankings)

    def test_seed_defaults_to_the_environment_on_every_call(self, tmp_path, monkeypatch):
        argv = ["sample", "--n", 30, "--k", 5, "--theta", 0.4, "--count", 50]
        texts = {}
        for seed in (11, 12):
            explicit, implicit = tmp_path / f"s{seed}.csv", tmp_path / f"e{seed}.csv"
            assert run(*argv, "--seed", seed, "--out", explicit) == 0
            monkeypatch.setenv("MALLOWS_TOPK_SEED", str(seed))
            assert run(*argv, "--out", implicit) == 0
            assert implicit.read_bytes() == explicit.read_bytes()
            texts[seed] = implicit.read_bytes()
        assert texts[11] != texts[12]

    def test_the_parser_is_built_once(self, tmp_path, monkeypatch):
        assert run("bounds", "--which", "borda", "--n", 8, "--k", 3, "--theta", 1,
                   "--i", 1, "--out", tmp_path / "b.json") == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        out = tmp_path / "s.csv"
        assert run("sample", "--n", 6, "--k", 2, "--theta", 1, "--count", 5,
                   "--out", out) == 0
        assert run("aggregate", "--in", out, "--out", tmp_path / "a.json") == 0
        assert built == []

    def test_uniform_prefix_balance(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run("sample", "--n", 4, "--k", 2, "--theta", 0, "--count",
                   120000, "--seed", 1, "--out", out) == 0
        counts = Counter(r.items for r in read_rankings_csv(out))
        assert len(counts) == 12
        for c in counts.values():
            assert abs(c - 10000) <= 200

    def test_custom_consensus(self, tmp_path):
        cons = tmp_path / "c.csv"
        write_rankings_csv(cons, [TopKRanking(5, 5, (4, 3, 2, 1, 0))])
        out = tmp_path / "s.csv"
        assert run("sample", "--n", 5, "--k", 2, "--theta", 30, "--count", 5,
                   "--sigma0", cons, "--seed", 0, "--out", out) == 0
        assert all(r.items == (4, 3) for r in read_rankings_csv(out))

    def test_n_beyond_the_id_range_exit_2(self, tmp_path, capsys, monkeypatch):
        # n is checked before anything of size n is built
        def identity(n):
            raise AssertionError(f"Permutation.identity({n}) was called")
        monkeypatch.setattr(cli.Permutation, "identity", identity)
        out = tmp_path / "s.csv"
        assert run("sample", "--n", 3000000000, "--k", 1, "--theta", 1,
                   "--count", 1, "--out", out) == 2
        assert capsys.readouterr().err == "error: n must be at most 2147483647\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", 3, "--k", 2, "--theta", 1, "--count", 2, "--seed", -1),
        ("experiment", "--name", "loglik", "--m", 5, "--seeds", 1, "--seed", -4),
    ])
    def test_negative_seed_exit_2(self, capsys, argv):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer\n"

    @pytest.mark.parametrize("value", ["", "-1", "abc", "1e3"])
    def test_bad_seed_environment_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MALLOWS_TOPK_SEED", value)
        assert run("sample", "--n", 3, "--k", 2, "--theta", 1, "--count", 2) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: MALLOWS_TOPK_SEED must be a non-negative "
                                f"integer, not {value!r}\n")

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", 30, "--k", 10, "--theta", 1, "--count", 10**19),
        ("experiment", "--name", "loglik", "--m", 10**19, "--seeds", 1),
    ])
    def test_count_beyond_the_id_range_exit_2(self, capsys, argv):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be at most 2147483647\n"

    def test_invalid_flags_exit_2(self, tmp_path):
        assert run("sample", "--n", 4, "--k", 9, "--theta", 1,
                   "--count", 1, "--seed", 0,
                   "--out", tmp_path / "x.csv") == 2


class TestSeparate:
    def _mixture_file(self, tmp_path):
        path = tmp_path / "mix.csv"
        a = [TopKRanking(6, 3, (0, 1, 2))] * 12
        b = [TopKRanking(6, 3, tuple(p)) for p in
             [(5, 4, 3), (4, 5, 3), (3, 5, 4), (5, 3, 4), (4, 3, 5)]]
        write_rankings_csv(path, a + b)
        return path

    def test_labels_and_sidecar(self, tmp_path):
        src = self._mixture_file(tmp_path)
        out = tmp_path / "labels.csv"
        assert run("separate", "--in", src, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 17
        assert {r["label"] for r in rows} == {"expert", "nonexpert"}
        sidecar = json.loads((tmp_path / "labels.csv.json").read_text())
        assert not sidecar["degenerate"]
        assert sidecar["theta_g_hat"] >= sidecar["theta_b_hat"]

    def test_degenerate_input_is_ok(self, tmp_path):
        src = tmp_path / "same.csv"
        write_rankings_csv(src, [TopKRanking(4, 2, (0, 1))] * 5)
        out = tmp_path / "labels.csv"
        assert run("separate", "--in", src, "--out", out) == 0
        sidecar = json.loads((tmp_path / "labels.csv.json").read_text())
        assert sidecar["degenerate"]

    def test_single_ranking_exit_2(self, tmp_path):
        src = tmp_path / "one.csv"
        write_rankings_csv(src, [TopKRanking(4, 2, (0, 1))])
        assert run("separate", "--in", src, "--out", tmp_path / "o.csv") == 2

    def test_parse_failure_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("not a ranking file\n")
        assert run("separate", "--in", src, "--out", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize("row", ["1,x", "1,,2"])
    def test_malformed_token_exit_2(self, tmp_path, capsys, row):
        src = tmp_path / "bad.csv"
        src.write_text(f"# n=4\n1,2\n{row}\n")
        assert run("separate", "--in", src, "--out", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAggregate:
    def test_unanimous(self, tmp_path):
        src = tmp_path / "u.csv"
        write_rankings_csv(src, [TopKRanking(4, 4, (2, 0, 3, 1))] * 5)
        out = tmp_path / "est.json"
        assert run("aggregate", "--in", src, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["ranking"] == [3, 1, 4, 2]
        assert payload["k_prime"] == 4

    def test_eborda_fallback_matches_borda(self, tmp_path):
        src = tmp_path / "experts.csv"
        write_rankings_csv(src, [TopKRanking(5, 3, (4, 2, 0))] * 6)
        b_out, e_out = tmp_path / "b.json", tmp_path / "e.json"
        assert run("aggregate", "--in", src, "--method", "borda",
                   "--out", b_out) == 0
        assert run("aggregate", "--in", src, "--method", "eborda",
                   "--out", e_out) == 0
        b = json.loads(b_out.read_text())
        e = json.loads(e_out.read_text())
        assert b["ranking"] == e["ranking"]
        assert e["fallback"]
        assert e["expert_indices"] == list(range(6))

    def test_borda_theta_hat_on_mixed_lengths(self, tmp_path, capsys):
        # 4000 rows with k in 1..15: theta_hat fits every row at its own length
        n, theta = 50, 0.3
        model = MallowsModel(n, Permutation.from_items(
            np.random.default_rng(8).permutation(n).tolist()), theta)
        counts = np.bincount(np.random.default_rng(9).integers(1, 16, 4000))
        batch = sample_topk(model, 1, int(counts[1]), RandomSource(1))
        for k in range(2, 16):
            batch = batch + sample_topk(model, k, int(counts[k]), RandomSource(k))
        src = tmp_path / "mixed.csv"
        write_rankings_csv(src, batch)
        assert run("aggregate", "--in", src, "--method", "borda") == 0
        assert abs(json.loads(capsys.readouterr().out)["theta_hat"] - theta) <= 0.02

    def test_parse_failure_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("# n=oops\n")
        assert run("aggregate", "--in", src) == 2


@pytest.mark.parametrize("argv", [
    ("separate", "--in", "{bad}", "--out", "{out}"),
    ("aggregate", "--in", "{bad}", "--out", "{out}"),
    ("sample", "--n", 3, "--k", 2, "--theta", 1, "--count", 2, "--sigma0", "{bad}",
     "--out", "{out}"),
    ("experiment", "--name", "loglik", "--data", "{bad}", "--seeds", 1, "--out", "{out}"),
])
def test_a_ranking_file_that_is_not_utf8_exit_2(tmp_path, capsys, argv):
    bad, out = tmp_path / "bad.csv", tmp_path / "out"
    bad.write_bytes(b"# n=3\n1,2\xff\n")
    assert run(*(str(a).format(bad=bad, out=out) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not UTF-8" in captured.err


def test_a_crlf_ranking_file_reads_as_its_lf_twin(tmp_path, monkeypatch):
    # text mode turns "\r\n" into "\n", so both files take the numpy reader
    monkeypatch.setattr(rankings, "_parse_int_tokens", None)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(b"# n=4\n2,1\n4,3,1\n")
    crlf.write_bytes(b"# n=4\r\n2,1\r\n4,3,1\r\n")
    assert read_rankings_csv(crlf) == read_rankings_csv(lf) \
        == [TopKRanking(4, 2, (1, 0)), TopKRanking(4, 3, (3, 2, 0))]


class TestBounds:
    def test_borda_bound_json(self, tmp_path, capsys):
        assert run("bounds", "--which", "borda", "--n", 8, "--k", 3,
                   "--theta", 1, "--i", 1, "--epsilon", 0.05) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 32
        assert payload["denominator"] > 0

    def test_separation_bound_fixture(self, capsys):
        assert run("bounds", "--which", "separation", "--n", 30, "--c", 9,
                   "--r", 0.4, "--e-gamma", 10, "--epsilon", 0.05) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 1781 and payload["gap"] == pytest.approx(28.0)

    def test_vacuous_borda_exit_3(self):
        assert run("bounds", "--which", "borda", "--n", 8, "--k", 2,
                   "--theta", 0.5, "--i", 5, "--epsilon", 0.05) == 3

    def test_vacuous_separation_exit_3(self):
        assert run("bounds", "--which", "separation", "--n", 30, "--c", 2,
                   "--r", 0.4, "--e-gamma", 10, "--epsilon", 0.05) == 3

    def test_epsilon_monotonicity(self, capsys):
        ms = []
        for eps in (0.05, 0.01):
            assert run("bounds", "--which", "borda", "--n", 8, "--k", 3,
                       "--theta", 1, "--i", 1, "--epsilon", eps) == 0
            ms.append(json.loads(capsys.readouterr().out)["m"])
        assert ms[1] > ms[0]

    def test_missing_parameter_exit_2(self):
        assert run("bounds", "--which", "borda", "--n", 8, "--k", 3,
                   "--i", 1) == 2

    @pytest.mark.parametrize("e_gamma", ["0", "nan", "-1", "inf"])
    def test_bad_expected_distance_exit_2(self, capsys, e_gamma):
        assert run("bounds", "--which", "separation", "--n", 5, "--c", 3,
                   "--r", 0.5, "--e-gamma", e_gamma) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # a vacuous c still exits 3 first
        assert run("bounds", "--which", "separation", "--n", 5, "--c", 2,
                   "--r", 0.5, "--e-gamma", e_gamma) == 3

    @pytest.mark.parametrize("argv", [
        ("separation", "--n", 5, "--c", "nan", "--r", 0.5, "--e-gamma", 3),
        ("separation", "--n", 5, "--c", "inf", "--r", 0.5, "--e-gamma", 3),
        ("separation", "--n", 5, "--c", 3, "--r", "nan", "--e-gamma", 3),
        ("separation", "--n", -1, "--c", 3, "--r", 0.5, "--e-gamma", 3),
        ("separation", "--n", 1, "--c", 3, "--r", 0.5, "--e-gamma", 3),
        ("borda", "--n", 8, "--k", 3, "--theta", "inf", "--i", 1),
        ("borda", "--n", 8, "--k", 3, "--theta", "nan", "--i", 1),
        ("separation", "--n", 5, "--c", 3, "--r", 1, "--e-gamma", "5e-324"),
        ("separation", "--n", 5, "--c", 3, "--r", 1, "--e-gamma", 3, "--epsilon", "5e-324"),
        ("separation", "--n", 10**189, "--c", 3, "--r", 1, "--e-gamma", 3),
        ("borda", "--n", 8, "--k", 3, "--theta", 1, "--i", 1, "--epsilon", "5e-324"),
        ("borda", "--n", 10**189, "--k", 3, "--theta", 1, "--i", 1),
        ("borda", "--n", 10**400, "--k", 3, "--theta", 1, "--i", 1),
        ("separation", "--n", 10**400, "--c", 3, "--r", 1, "--e-gamma", 3),
    ])
    def test_invalid_bound_argument_exit_2(self, capsys, argv):
        assert run("bounds", "--which", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(which=st.sampled_from(["borda", "separation"]),
           n=st.sampled_from([-1, 0, 1, 2, 8, 10**189, 10**400]),
           values=st.lists(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "5e-324",
                                            "1e308", "0.05", "0.5", "1", "3", "9"]),
                           min_size=5, max_size=5))
    def test_any_float_argument_exits_cleanly(self, which, n, values):
        argv = ["bounds", "--which", which, f"--n={n}", "--k=3", "--i=1"]
        argv += [f"--{name}={v}" for name, v in
                 zip(("theta", "c", "r", "e-gamma", "epsilon"), values)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            payload = json.loads(out.getvalue(), parse_constant=pytest.fail)
            assert payload["m"] >= 0
        else:
            assert code in (2, 3) and out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    def test_nan_separation_bound_exit_2(self, capsys):
        # the squared ratio underflows to 0 while log(2 / epsilon) overflows
        assert run("bounds", "--which", "separation", "--n", 2, "--c", "1e308", "--r",
                   "5e-324", "--e-gamma", "1e308", "--epsilon", "5e-324") == 2
        assert capsys.readouterr().err == \
            "error: the sample-size bound is out of float range\n"

    def test_separation_bound_is_at_least_one(self, capsys):
        assert run("bounds", "--which", "separation", "--n", 2, "--c", "1e200",
                   "--r", 1, "--e-gamma", "1e100") == 0
        assert json.loads(capsys.readouterr().out)["m"] == 1

    def test_zero_theta_borda_exit_2(self, capsys):
        assert run("bounds", "--which", "borda", "--n", 8, "--k", 3,
                   "--theta", 0, "--i", 1) == 2
        assert capsys.readouterr().err == "error: theta must be positive\n"


class TestExperiments:
    def test_separation_rows(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert run("experiment", "--name", "separation",
                   "--e-gamma-grid", "8", "--c-grid", "3,9", "--seeds", 3,
                   "--seed", 4, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["c"] for r in rows] == ["3", "9"]
        assert float(rows[1]["mean_error_pct"]) <= float(rows[0]["mean_error_pct"])

    def test_eborda_rows(self, tmp_path):
        out = tmp_path / "eb.csv"
        assert run("experiment", "--name", "eborda", "--seeds", 2,
                   "--seed", 4, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 44
        assert float(rows[0]["borda_min"]) <= float(rows[0]["borda_mean"]) \
            <= float(rows[0]["borda_max"])

    def test_loglik_mixture_dominates(self, tmp_path):
        out = tmp_path / "ll.csv"
        assert run("experiment", "--name", "loglik", "--m", 30, "--seeds", 1,
                   "--step", 10, "--seed", 4, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["impostors"] == "0"
        for r in rows:
            assert float(r["mixture_ll"]) >= float(r["single_ll"]) - 1e-9

    @pytest.mark.parametrize("argv", [
        ("--name", "eborda", "--seeds", 0),
        ("--name", "separation", "--seeds", 0),
        ("--name", "loglik", "--seeds", 0),
        ("--name", "loglik", "--step", 0),
        ("--name", "loglik", "--step", -1),
        ("--name", "eborda", "--seeds", -2),
        ("--name", "separation", "--seeds", 1, "--e-gamma-grid", "x", "--c-grid", 3),
        ("--name", "separation", "--seeds", 1, "--e-gamma-grid", 3, "--c-grid", "3,y"),
        ("--name", "separation", "--seeds", 1, "--k", 40),
        ("--name", "eborda", "--seeds", 1, "--k", 40),
    ])
    def test_non_positive_seeds_or_step_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run("experiment", *argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--name", "separation", "--n", 3000000000),
        ("--name", "eborda", "--n", 3000000000),
        ("--name", "loglik", "--loglik-n", 3000000000),
    ])
    def test_n_beyond_the_id_range_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # n is checked before anything of size n is built
        def identity(n):
            raise AssertionError(f"Permutation.identity({n}) was called")
        monkeypatch.setattr(cli.Permutation, "identity", identity)
        out = tmp_path / "x.csv"
        assert run("experiment", *argv, "--seeds", 1, "--out", out) == 2
        assert capsys.readouterr().err == "error: n must be at most 2147483647\n"
        assert not out.exists()

    def test_experiment_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("experiment", "--name", "separation",
                       "--e-gamma-grid", "8", "--c-grid", "9", "--seeds", 2,
                       "--seed", 11, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


def test_cli_paths_build_no_ranking_object_per_row(tmp_path, monkeypatch):
    # 2000 rankings of mixed k: sample, aggregate and separate must work on
    # the arrays, not on one checked TopKRanking per row.
    model = MallowsModel(30, Permutation.identity(30), 0.3)
    batch = sample_topk(model, 10, 200, RandomSource(10))
    for k in range(1, 10):
        batch = batch + sample_topk(model, k, 200, RandomSource(k))
    src = tmp_path / "mixed.csv"
    write_rankings_csv(src, batch)
    calls = []
    checked = TopKRanking.__post_init__

    def counting(self):
        calls.append(self)
        checked(self)

    monkeypatch.setattr(TopKRanking, "__post_init__", counting)
    runs = [("sample", "--n", 30, "--k", 10, "--theta", 0.3, "--count", 2000,
             "--seed", 3, "--out", tmp_path / "s.csv"),
            ("aggregate", "--in", src, "--out", tmp_path / "b.json"),
            ("aggregate", "--in", src, "--method", "eborda", "--out", tmp_path / "e.json"),
            ("separate", "--in", src, "--out", tmp_path / "l.csv")]
    for argv in runs:
        assert run(*argv) == 0
    assert len(read_rankings_csv(tmp_path / "s.csv")) == 2000
    assert len(calls) <= len(runs)  # at most a consensus prefix per command


# SHA-256 of outputs recorded before the likelihoods and the Borda orders were
# computed once each (separate and aggregate --method borda: before each
# Permutation kept its preference order; separation: before its cells were
# indexed by position in the grids); the input is the `sample` output below.
# The wide `sample` was recorded before the decode ran right to left.
GOLDEN_SAMPLE = ("036268fd5edae44c2d79a4ca81c5f884"
                 "6915852c39883db9d9539b050fd3f9d8")


@pytest.mark.parametrize("argv, sha256", [
    (("experiment", "--name", "loglik", "--m", 20, "--seeds", 2, "--step", 3, "--seed", 5),
     "aa70ecd0314af8421ee6d4a1f1d22c014ea1757c4a48bd494a68a80f9802f5d2"),
    (("experiment", "--name", "eborda", "--seeds", 2, "--seed", 4),
     "7b165a294ae219b9201baafebec1bce2dd06a65cf6b4029c872593fde9311421"),
    (("aggregate", "--method", "eborda"),
     "b72d39359f77fdea431092149f7b7565b32fdd330723d9f2db84ef6b13b18b61"),
    (("aggregate", "--method", "borda"),
     "227a8add0914104b3d6c7429e80ef7e68dffd062f42a00043bc02c0edde779e0"),
    (("separate",),
     "2a16309103de5a08ea1b061135a7589982902f64f9db5a1b55929f1b51884eed"),
    (("experiment", "--name", "separation", "--seeds", 2, "--seed", 3,
      "--e-gamma-grid", "3,8,48", "--c-grid", "3,6,39,0.5"),
     "53cf9b352c67a22bd815affedce8afc6ace38e21e5f6514f09ce7d58c4240fe6"),
    (("sample", "--n", 1000, "--k", 10, "--theta", 0.3, "--count", 200, "--seed", 7),
     "0c46d47bb64568317c39af7d7f138c7a3b76a3ea7c6f6bcaa6050a5784f29590"),
])
def test_outputs_match_the_recorded_hashes(tmp_path, argv, sha256):
    source, out = tmp_path / "s.csv", tmp_path / "out"
    assert run("sample", "--n", 25, "--k", 2, "--theta", 0.1, "--count", 40,
               "--seed", 0, "--out", source) == 0
    assert hashlib.sha256(source.read_bytes()).hexdigest() == GOLDEN_SAMPLE
    if argv[0] in ("aggregate", "separate"):
        argv += ("--in", source)
    assert run(*argv, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_a_loglik_step_computes_each_estimate_once(monkeypatch):
    # per step: mean_distances, the two cluster MLEs and fit_mixture's one
    # pass against the consensus; Borda runs once, inside separate
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((rankings, "_pair_sums"), (mixture, "_pair_sums"),
                         (estimation, "borda")):
        counted(module, name)
    text = cli.run_loglik_experiment(5, 1.43, 20, 1, 3, step=20)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert float(rows[-1]["mixture_ll"]) > float(rows[-1]["single_ll"])  # a split fit
    assert calls["_pair_sums"] <= 4 * len(rows)
    assert calls["borda"] == len(rows)


def _run_capped(*argv):
    """`python -m mallows_topk.cli` in a child process capped at 2 GiB of address
    space, so that a run which allocates without bound ends there, not in the
    machine running out of memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "mallows_topk.cli", *map(str, argv)],
                          preexec_fn=cap, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("argv", [
    ("--name", "eborda", "--mg", 2**31),
    ("--name", "eborda", "--mb", 2**31),
    ("--name", "separation", "--mg", 2**31),
    ("--name", "separation", "--mb", 2**31),
    ("--name", "separation", "--n", 3000000000),
    ("--name", "eborda", "--n", 3000000000),
    ("--name", "loglik", "--loglik-n", 3000000000),
])
def test_huge_experiment_sizes_exit_2_before_allocating(argv):
    # every size is checked before anything of that size is built
    done = _run_capped("experiment", *argv, "--seeds", 1)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("sample", "--n", 30, "--k", 10, "--theta", 1, "--count", 2147483647),
    ("experiment", "--name", "loglik", "--m", 1073741824, "--seeds", 1),
    ("experiment", "--name", "eborda", "--mg", 1073741824, "--mb", 1073741823,
     "--seeds", 1),
])
def test_sizes_that_do_not_fit_in_memory_exit_2(argv):
    # each passes the size checks, then asks numpy for more than the cap
    done = _run_capped(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert done.stderr.strip() != "error:"


def _assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


_SMALL = st.integers(1, 8) | st.integers(-2, 8)  # mostly valid, so that some runs succeed
_EXPERIMENT_FLAGS = ("--m", "--mg", "--mb", "--n", "--k", "--loglik-n", "--seeds",
                     "--step", "--seed", "--e-gamma", "--e-beta")


@st.composite
def _csv_texts(draw):
    """Text of up to 8 rows over n = 0..6, each row a prefix of a permutation
    of the ids or arbitrary ids in -1..n+1, or arbitrary characters."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="# n=0123456789,-+\n \r", max_size=60))
    n = draw(st.integers(0, 6))
    ids = st.lists(st.integers(-1, n + 1), max_size=n + 1)
    prefix = st.permutations(range(1, n + 1)).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: p[:k]))
    rows = draw(st.lists(st.one_of(prefix, ids), max_size=8))
    return f"# n={n}\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["separation", "eborda", "loglik"]),
           values=st.lists(_SMALL, min_size=len(_EXPERIMENT_FLAGS),
                           max_size=len(_EXPERIMENT_FLAGS)),
           grid=st.tuples(_SMALL, _SMALL))
    def test_experiment_integers_exit_cleanly(self, name, values, grid):
        argv = ["experiment", f"--name={name}", f"--e-gamma-grid={grid[0]}",
                f"--c-grid={grid[1]}"]
        argv += [f"{flag}={v}" for flag, v in zip(_EXPERIMENT_FLAGS, values)]
        _assert_clean_exit(argv)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_texts(),
           command=st.sampled_from([("separate",), ("separate", "--method", "gap"),
                                    ("aggregate",), ("aggregate", "--method", "eborda"),
                                    ("aggregate", "--method", "eborda",
                                     "--cluster-method", "2means")]))
    def test_csv_text_exits_cleanly(self, tmp_path, text, command):
        source = tmp_path / "in.csv"
        source.write_text(text, encoding="utf-8")
        _assert_clean_exit([*command, "--in", str(source)])
