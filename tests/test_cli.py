import csv
import json
from collections import Counter

import pytest

from mallows_topk.cli import main
from mallows_topk.rankings import (TopKRanking, format_rankings_csv,
                                   read_rankings_csv, write_rankings_csv)


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

    def test_parse_failure_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("# n=oops\n")
        assert run("aggregate", "--in", src) == 2


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

    def test_experiment_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("experiment", "--name", "separation",
                       "--e-gamma-grid", "8", "--c-grid", "9", "--seeds", 2,
                       "--seed", 11, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
