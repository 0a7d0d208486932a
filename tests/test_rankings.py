import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mallows_topk import rankings
from mallows_topk.errors import DimensionError, ValidationError
from mallows_topk.model import MallowsModel, RandomSource, sample_topk
from mallows_topk.oracle import topk_distance_oracle
from mallows_topk.rankings import (_BLOCK, Permutation, RankingBatch,
                                   TopKRanking, format_rankings_csv,
                                   kendall_full, kendall_topk,
                                   parse_rankings_csv)


def brute_kendall_full(a: Permutation, b: Permutation) -> int:
    return sum(1 for i in range(a.n) for j in range(i + 1, a.n)
               if (a.ranks[i] - a.ranks[j]) * (b.ranks[i] - b.ranks[j]) < 0)


perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation.from_items))


@st.composite
def topk_rankings(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    items = draw(st.permutations(list(range(n))))
    return TopKRanking(n, k, tuple(items[:k]))


class TestPermutation:
    def test_identity_and_reverse(self):
        assert Permutation.identity(4).ranks == (0, 1, 2, 3)
        assert Permutation.reverse(4).ranks == (3, 2, 1, 0)

    def test_from_items_round_trip(self):
        p = Permutation.from_items([2, 0, 3, 1])
        assert p.items_by_rank() == (2, 0, 3, 1)
        assert p.ranks == (1, 3, 0, 2)

    def test_inverse_involution(self):
        p = Permutation.from_items([3, 1, 0, 2])
        assert p.inverse().inverse() == p

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(n)))))
    @example([0])
    def test_from_items_matches_the_loop_construction(self, items):
        # the construction before the preference order was stored: a loop
        # inverts the items, and items_by_rank loops back on every call
        n = len(items)
        ranks = [0] * n
        for r, i in enumerate(items):
            ranks[i] = r
        old = Permutation(n, tuple(ranks))
        order = [0] * n
        for item, r in enumerate(old.ranks):
            order[r] = item
        p = Permutation.from_items(items)
        assert p == old and hash(p) == hash(old) and repr(p) == repr(old)
        assert p.ranks == old.ranks == tuple(ranks)
        assert p.items_by_rank() == tuple(order) == tuple(items)
        assert p.items_by_rank() is p.items_by_rank()
        assert p.inverse() == Permutation(n, items)
        for q in (p, pickle.loads(pickle.dumps(p)), dataclasses.replace(p),
                  dataclasses.replace(p.inverse(), ranks=p.ranks)):
            assert q == p and q.items_by_rank() == tuple(items)
            assert q.inverse() == Permutation(n, items)
            assert all(q.ranks[i] == r for r, i in enumerate(q.items_by_rank()))

    @pytest.mark.parametrize("items", [[0, 0, 1], [-1, 0, 1], [0, 5, 1], [0, 1.5, 2],
                                       [0, "1", 2]])
    def test_from_items_rejects_a_non_bijection(self, items):
        with pytest.raises(ValidationError, match="bijection"):
            Permutation.from_items(items)

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValidationError):
            Permutation(3, (0, 0, 2))

    def test_top_k(self):
        p = Permutation.from_items([2, 0, 3, 1])
        assert p.top_k(2).items == (2, 0)


class TestTopKRanking:
    def test_rank_array_sentinel(self):
        r = TopKRanking(5, 2, (3, 0))
        assert r.rank_array() == [1, 2, 2, 0, 2]

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValidationError):
            TopKRanking(4, 2, (1, 1))

    @pytest.mark.parametrize("k, items, message", [
        (0, (), "k must satisfy 1 <= k <= n"),
        (5, (0, 1, 2, 3, 0), "k must satisfy 1 <= k <= n"),
        (2, (1,), "items must have length k"),
        (2, (1, 2, 3), "items must have length k"),
        (3, (2, 0, 2), "items must be distinct ids in 0..n-1"),
        (2, (0, -1), "items must be distinct ids in 0..n-1"),
        (2, (4, 0), "items must be distinct ids in 0..n-1"),
    ])
    def test_each_invalid_input_keeps_its_message(self, k, items, message):
        with pytest.raises(ValidationError) as info:
            TopKRanking(4, k, items)
        assert str(info.value) == message

    def test_to_permutation_requires_full(self):
        with pytest.raises(ValidationError):
            TopKRanking(4, 2, (1, 0)).to_permutation()
        assert TopKRanking(2, 2, (1, 0)).to_permutation() == Permutation.reverse(2)


@st.composite
def ranking_pairs(draw, max_n=9):
    """Two item orders of one n, a k for each and whether each side is full."""
    n = draw(st.integers(1, max_n))
    orders = tuple(tuple(draw(st.permutations(list(range(n))))) for _ in range(2))
    ks = (draw(st.integers(1, n)), draw(st.integers(1, n)))
    return orders, ks, (draw(st.booleans()), draw(st.booleans()))


class TestKendall:
    def test_identity_to_reverse_is_max(self):
        n = 6
        assert kendall_full(Permutation.identity(n), Permutation.reverse(n)) \
            == n * (n - 1) // 2

    @given(perms, perms)
    def test_matches_brute_force(self, a, b):
        if a.n != b.n:
            b = Permutation.identity(a.n)
        assert kendall_full(a, b) == brute_kendall_full(a, b)

    @given(perms, perms)
    def test_symmetry(self, a, b):
        if a.n != b.n:
            b = Permutation.reverse(a.n)
        assert kendall_full(a, b) == kendall_full(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kendall_full(Permutation.identity(3), Permutation.identity(4))

    @given(topk_rankings())
    def test_topk_vs_self_is_zero(self, r):
        assert kendall_topk(r, r) == 0

    def test_topk_undetermined_pairs_free(self):
        # Listed-vs-listed and listed-vs-unlisted pairs count; the pair of
        # two unlisted items never does.
        a = TopKRanking(4, 1, (0,))
        b = TopKRanking(4, 1, (1,))
        assert kendall_topk(a, b) == 1  # only the (0, 1) pair is discordant

    @given(topk_rankings())
    def test_full_and_topk_agree_on_permutations(self, r):
        if r.k != r.n:
            return
        p = r.to_permutation()
        q = Permutation.identity(r.n)
        assert kendall_topk(p, q) == kendall_full(p, q)

    @settings(max_examples=300)
    @given(ranking_pairs())
    @example((((0,), (0,)), (1, 1), (False, True)))
    @example(((tuple(range(9)), tuple(range(8, -1, -1))), (1, 1), (False, False)))
    @example(((tuple(range(9)), tuple(range(8, -1, -1))), (9, 9), (False, False)))
    @example((((3, 8, 0, 5, 1, 7, 2, 6, 4), tuple(range(9))), (9, 1), (False, True)))
    @example((((3, 8, 0, 5, 1, 7, 2, 6, 4), (6, 2, 0, 8, 1, 3, 5, 4, 7)), (3, 1),
              (True, False)))
    def test_matches_the_oracle(self, case):
        orders, ks, full = case
        # each side is a top-k list of its own k, or the Permutation of its order
        n = len(orders[0])
        sigma, pi = (Permutation.from_items(o) if f else TopKRanking(n, k, o[:k])
                     for o, k, f in zip(orders, ks, full))
        assert kendall_topk(sigma, pi) == topk_distance_oracle(sigma, pi)
        p, q = map(Permutation.from_items, orders)
        assert kendall_full(p, q) == topk_distance_oracle(p, q)
        top = TopKRanking(n, ks[0], orders[0][:ks[0]])
        assert MallowsModel(n, q, 1.0).distance_to_consensus(top) \
            == topk_distance_oracle(top, q)


class TestCsv:
    def test_round_trip(self):
        rankings = [TopKRanking(4, 2, (3, 0)), TopKRanking(4, 3, (1, 2, 0))]
        text = format_rankings_csv(rankings)
        assert text.splitlines()[0] == "# n=4"
        assert parse_rankings_csv(text) == rankings

    def test_one_based_ids_on_disk(self):
        text = format_rankings_csv([TopKRanking(3, 2, (0, 2))])
        assert text.splitlines()[1] == "1,3"

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError):
            parse_rankings_csv("1,2,3\n")

    def test_comment_lines_skipped(self):
        rankings = parse_rankings_csv("# n=3\n# a comment\n2,1\n")
        assert rankings == [TopKRanking(3, 2, (1, 0))]


@st.composite
def ranking_lists(draw, max_n=7):
    """A non-empty list of top-k rankings of one n, k mixed."""
    n = draw(st.integers(1, max_n))
    return [TopKRanking(n, k, tuple(items[:k])) for items, k in draw(st.lists(
        st.tuples(st.permutations(list(range(n))), st.integers(1, n)),
        min_size=1, max_size=8))]


def _reference_parse(text):
    """The row-by-row CSV reader: one checked TopKRanking per row."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# n="):
        raise ValidationError("missing mandatory header line '# n=<N>'")
    n = int(lines[0][4:])
    rankings = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        try:
            ids = [int(tok) - 1 for tok in ln.split(",")]
        except ValueError as exc:
            raise ValidationError(f"malformed ranking line {ln!r}") from exc
        rankings.append(TopKRanking(n, len(ids), tuple(ids)))
    return rankings


def _outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


TOKENS = ["1", "2", "3", "4", "0", "5", "-1", "x", "", " 2", "+3", "1_0",
          "\u0663", "99999999999999999999", "2.0"]


class TestRankingBatch:
    @given(ranking_lists())
    @example([TopKRanking(1, 1, (0,))])
    @example([TopKRanking(5, 5, (4, 2, 0, 1, 3)), TopKRanking(5, 1, (2,))])
    def test_csv_round_trip(self, rankings):
        batch = parse_rankings_csv(format_rankings_csv(rankings))
        assert isinstance(batch, RankingBatch) and batch.n == rankings[0].n
        assert batch.items.dtype == np.int32
        assert batch.items.shape == (len(rankings), max(r.k for r in rankings))
        assert batch.ks.tolist() == [r.k for r in rankings]
        assert batch == rankings and rankings == batch
        assert parse_rankings_csv(format_rankings_csv(batch)) == batch
        assert format_rankings_csv(batch) == format_rankings_csv(rankings)

    @given(ranking_lists())
    def test_each_view_is_a_checked_ranking(self, rankings):
        batch = parse_rankings_csv(format_rankings_csv(rankings))
        assert len(batch) == len(rankings)
        for i, r in enumerate(rankings):
            for view in (batch[i], batch[i - len(rankings)]):
                assert type(view) is TopKRanking
                assert view == TopKRanking(r.n, r.k, r.items)
                assert hash(view) == hash(r)
                assert all(type(x) is int for x in (view.n, view.k) + view.items)
        assert list(batch) == rankings
        with pytest.raises(IndexError):
            batch[len(rankings)]

    @given(ranking_lists(), st.data())
    def test_slices_masks_and_concatenation(self, rankings, data):
        batch = parse_rankings_csv(format_rankings_csv(rankings))
        lo, hi = sorted(data.draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2)))
        for part in (slice(lo, hi), slice(None, None, -1), slice(lo, None, 2)):
            assert isinstance(batch[part], RankingBatch)
            assert batch[part] == rankings[part]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(rankings),
                                           max_size=len(rankings))))
        chosen = [r for r, keep in zip(rankings, mask) if keep]
        assert batch[mask] == chosen
        assert batch[mask] + batch[~mask] == chosen + [r for r, keep in zip(rankings, mask)
                                                       if not keep]
        assert batch[:1] + rankings[1:] == rankings
        assert batch != rankings[:-1]
        assert (batch == rankings[::-1]) == (rankings == rankings[::-1]) \
            == (batch == parse_rankings_csv(format_rankings_csv(rankings[::-1])))
        assert not batch[:0] and batch[:0] == []

    def test_concatenation_rejects_another_item_count(self):
        batch = parse_rankings_csv("# n=3\n1,2\n")
        with pytest.raises(DimensionError):
            batch + parse_rankings_csv("# n=4\n1,2\n")

    def test_constructor_checks_every_row(self):
        ok = RankingBatch(4, [[3, 0, -1], [1, 2, 0]], [2, 3])
        assert ok == [TopKRanking(4, 2, (3, 0)), TopKRanking(4, 3, (1, 2, 0))]
        for items, ks, message in [
            ([[0, 1], [1, 1]], [2, 2], "items must be distinct ids in 0..n-1"),
            ([[0, 1], [4, -1]], [2, 1], "items must be distinct ids in 0..n-1"),
            ([[0, 1], [2, 3]], [2, 1], "items must have length k"),
            ([[0, -1], [2, 3]], [3, 2], "items must have length k"),
            ([[0, 0], [2, 3]], [0, 2], "k must satisfy 1 <= k <= n"),
            ([[0, 1], [2, 3]], [1, 0], "items must have length k"),
            ([[0, 1], [2, 2]], [5, 2], "k must satisfy 1 <= k <= n"),
        ]:
            with pytest.raises(ValidationError) as info:
                RankingBatch(4, items, ks)
            assert str(info.value) == message

    @pytest.mark.parametrize("rows, message", [
        ("1,5\n1,x", "items must be distinct ids in 0..n-1"),
        ("1,x\n1,5", "malformed ranking line '1,x'"),
        ("1,2\n2,2", "items must be distinct ids in 0..n-1"),
        ("0,1", "items must be distinct ids in 0..n-1"),
        ("1\n5", "items must be distinct ids in 0..n-1"),
        ("1,2,3,4,1", "k must satisfy 1 <= k <= n"),
        ("1,2,3,4,5\n1,x", "k must satisfy 1 <= k <= n"),
        ("1,x,3,4,5\n1,2,3,4,5", "malformed ranking line '1,x,3,4,5'"),
        ("2,1\n99999999999999999999", "items must be distinct ids in 0..n-1"),
        ("2,1\n1,,2", "malformed ranking line '1,,2'"),
    ])
    def test_the_first_bad_row_names_the_error(self, rows, message):
        text = f"# n=4\n{rows}\n"
        with pytest.raises(ValidationError) as info:
            parse_rankings_csv(text)
        assert str(info.value) == message == _outcome(_reference_parse, text)

    def test_a_row_longer_than_n_is_rejected_before_padding(self):
        text = "# n=3\n" + "1,2\n" * 500 + ",".join(["1"] * 20000) + "\n"
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="k must satisfy"):
                parse_rankings_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # padding all 501 rows to 20000 ids: 80 MB

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), rows=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5)
        .map(",".join) | st.just("# comment"), max_size=6))
    def test_parse_agrees_with_the_row_by_row_reader(self, n, rows):
        text = "\n".join([f"# n={n}"] + rows) + "\n"
        assert _outcome(parse_rankings_csv, text) == _outcome(_reference_parse, text)


MAX_N = 2**31 - 1


def _reference_format(batch):
    """The row-by-row CSV writer: one str() per id and one join per row."""
    rows = [f"# n={batch.n}"] + [",".join(str(i + 1) for i in r.items) for r in batch]
    return "\n".join(rows) + "\n"


@st.composite
def random_batches(draw):
    """A batch of up to three blocks of rows, k mixed, n from 1 to 2^31 - 1."""
    n = draw(st.sampled_from([1, 2, 5, 30, 1000, MAX_N]) | st.integers(1, MAX_N))
    m = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1]) | st.integers(1, 3 * _BLOCK))
    k_max = draw(st.integers(1, min(n, 12)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = np.array([gen.choice(n, k_max, replace=False) for _ in range(m)])
    ks = gen.integers(1, k_max + 1, m)
    return RankingBatch(n, np.where(np.arange(k_max) < ks[:, None], items, -1), ks)


def _full_batch(n, m):
    gen = np.random.default_rng(n)
    return RankingBatch(n, [gen.permutation(n) for _ in range(m)], [n] * m)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPELLINGS = [str, lambda v: f" {v}", lambda v: f"+{v}", lambda v: f"0{v}",
             lambda v: f"{v} ", lambda v: "_".join(str(v)),
             lambda v: str(v).translate({ord("0") + d: 0x660 + d for d in range(10)})]


class TestCsvText:
    @settings(max_examples=40, deadline=None)
    @given(random_batches())
    @example(RankingBatch(1, [[0]], [1]))
    @example(_full_batch(1, _BLOCK + 1))
    @example(_full_batch(7, 2 * _BLOCK + 3))
    @example(RankingBatch(MAX_N, [[MAX_N - 1, 0, 9], [5, MAX_N - 1, -1], [MAX_N - 2, -1, -1]],
                          [3, 2, 1]))
    def test_format_equals_the_row_by_row_writer(self, batch):
        text = format_rankings_csv(batch)
        assert text == _reference_format(batch)
        assert parse_rankings_csv(text) == batch

    def test_format_memory_is_bounded_by_the_rows(self):
        wide = RankingBatch(MAX_N, [[MAX_N - 1, 0, 9], [5, MAX_N - 1, -1], [1, -1, -1]],
                            [3, 2, 1])
        assert _peak_bytes(format_rankings_csv, wide) < 64 * 2**10
        gen = np.random.default_rng(5)
        bulk = RankingBatch(30, np.argsort(gen.random((100_000, 30)), axis=1)[:, :10],
                            [10] * 100_000)
        # the row-by-row writer peaked at 22.4 MB here
        assert _peak_bytes(format_rankings_csv, bulk) < 22 * 2**20

    def test_memory_stays_bounded_when_ids_do_not_repeat(self):
        # 200k distinct ids: no table or cache may grow with the file
        gen = np.random.default_rng(6)
        batch = RankingBatch(MAX_N, gen.choice(MAX_N, (20_000, 10), replace=False),
                             [10] * 20_000)
        text = format_rankings_csv(batch)
        # the row-by-row writer peaked at 6.0x its text here, a file-wide table at 19x
        assert _peak_bytes(format_rankings_csv, batch) < 3 * len(text)
        # map(int) peaks at 46 bytes per id here, a file-wide token cache at 138
        assert _peak_bytes(parse_rankings_csv, text) < 64 * 200_000

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(1, 12), st.sampled_from(SPELLINGS)),
                             min_size=1, max_size=12, unique_by=lambda t: t[0]),
                    min_size=2, max_size=40))
    def test_parse_reads_every_spelling_as_int_does(self, rows):
        lines = [",".join(spell(v) for v, spell in row) for row in rows]
        lines += lines[::-1]  # every spelling appears again in a later row
        text = "\n".join(["# n=12"] + lines) + "\n"
        ids = [[int(tok) - 1 for tok in ln.split(",")] for ln in lines]
        assert parse_rankings_csv(text) == [TopKRanking(12, len(r), tuple(r)) for r in ids]


FOREIGN = [" ", "+", "_", "-", "#", "\t", "\r", "\x00", "\x0b", "\x0c", "\x1c", "\u0663",
           "\u2028"]
LONG_TOKENS = ["0" * 18, "0" * 17 + "1", "9" * 18, "0" * 18 + "1", "1" + "0" * 18, "9" * 19]


@st.composite
def digit_files(draw):
    """A ranking file whose body is ASCII digits, ',' and '\\n' only: rows of
    ids with leading zeros, 0, ids beyond n, 18- and 19-digit tokens, rows
    of k = n and longer, loose bytes; after up to two blocks of good rows."""
    n = draw(st.integers(1, 5))
    token = (st.integers(1, n).map(str)
             | st.tuples(st.integers(0, 17), st.integers(0, n + 1)).map(
                 lambda t: "0" * t[0] + str(t[1]))
             | st.sampled_from(LONG_TOKENS))
    row = (st.permutations([str(v) for v in range(1, n + 1)]).flatmap(
               lambda order: st.integers(1, n).map(lambda k: ",".join(order[:k])))
           | st.lists(token, min_size=1, max_size=n + 2).map(",".join)
           | st.text("0123456789,\n", max_size=8))
    good = draw(st.sampled_from([0, 0, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
    rows = [",".join(map(str, range(n, 0, -1)))] * good + draw(st.lists(row, max_size=5))
    return "\n".join([f"# n={n}"] + rows) + draw(st.sampled_from(["\n", ""]))


class TestDigitReader:
    @settings(max_examples=300, deadline=None)
    @given(digit_files())
    @example("# n=3")
    @example("# n=3\n")
    @example("# n=3\n3,1,2")
    @example("# n=3\n" + "1,2\n" * _BLOCK + "1,4\n")
    @example("# n=3\n" + "1\n" * (_BLOCK + 5) + "1,2,3,1\n")
    @example("# n=3\n" + "1\n" * _BLOCK + "\n2\n")
    @example("# n=2\n002,0001\n" + "0" * 17 + "2\n")
    @example("# n=2\n1," + "0" * 18 + "2\n")
    def test_digit_files_parse_as_the_row_by_row_reader_does(self, text):
        assert _outcome(parse_rankings_csv, text) == _outcome(_reference_parse, text)

    @settings(max_examples=200, deadline=None)
    @given(digit_files(), st.sampled_from(FOREIGN), st.data())
    def test_one_other_character_reads_as_int_does(self, text, char, data):
        body = text.find("\n") + 1
        assume(body > 0)
        at = data.draw(st.integers(body, len(text)))
        text = text[:at] + char + text[at:]
        assert _outcome(parse_rankings_csv, text) == _outcome(_reference_parse, text)

    @pytest.mark.parametrize("text", ["# n=3\x0c1,2\n", "# n=3\x1c2,1\n3\n", "# n=3\r\n1,2\n",
                                      "# n=3 \n1,2\n", "# n=03\n3\n", "\n# n=3\n1\n",
                                      "# n=3\n1_0\n", "# n=12\n1_0,2\n", "# n=3\n1\r2\n"])
    def test_other_characters_at_fixed_places(self, text):
        assert _outcome(parse_rankings_csv, text) == _outcome(_reference_parse, text)

    def test_a_file_of_digits_never_falls_back_to_int(self, monkeypatch):
        # a wrong alphabet check would pass every equality test and lose the gain
        def fail(text):
            raise AssertionError("read with int()")
        monkeypatch.setattr(rankings, "_parse_int_tokens", fail)
        model = MallowsModel(50, Permutation.identity(50), 0.3)
        batch = sample_topk(model, 1, 700, RandomSource(1))
        for k in (2, 7, 15):  # mixed k over three blocks, as the bench writes
            batch = batch + sample_topk(model, k, 700, RandomSource(k))
        text = format_rankings_csv(batch)
        assert parse_rankings_csv(text) == batch
        assert parse_rankings_csv(text[:-1]) == batch  # no final newline
        assert parse_rankings_csv("# n=50\n") == parse_rankings_csv("# n=50") == []
        with pytest.raises(ValidationError, match="distinct ids"):
            parse_rankings_csv(text + "1,51\n")
