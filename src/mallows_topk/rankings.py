"""Permutations, top-k rankings, the top-k Kendall distance, and the batched
kernels that serve a whole sample.

Items and ranks are 0-based internally (rank 0 = most preferred).  External
CSV files use 1-based item ids; the conversion happens only in the CSV
readers/writers at the bottom of this module.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, ValidationError


def _inverse(values: Iterable[int], size: int, fill: int) -> list:
    """out[v] = i for each position i holding value v; `fill` in every other slot."""
    out = [fill] * size
    for i, v in enumerate(values):
        out[v] = i
    return out


@dataclass(frozen=True)
class Permutation:
    """A full ranking of n items; ranks[i] is the rank of item i (0 = best).
    Its inverse, the preference order, is built once and is not a field."""

    n: int
    ranks: tuple

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("n must be positive")
        try:
            bijection = sorted(self.ranks) == list(range(self.n))
        except TypeError:  # values that do not compare with ints
            bijection = False
        if len(self.ranks) != self.n or not bijection:
            raise ValidationError("ranks must be a bijection on 0..n-1")
        ranks = tuple(map(int, self.ranks))
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "_order", tuple(_inverse(ranks, self.n, 0)))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n - 1, -1, -1)))

    @classmethod
    def from_items(cls, items: Sequence[int]) -> "Permutation":
        """Build from a preference-ordered item list (items[r] has rank r),
        which is valid exactly when it is valid as a rank vector."""
        return cls(len(items), items).inverse()

    def items_by_rank(self) -> tuple:
        """Item ids in preference order (inverse view of `ranks`)."""
        return self._order

    def inverse(self) -> "Permutation":
        """The inverse permutation: the two checked views swapped, O(1)."""
        return _unchecked(Permutation, n=self.n, ranks=self._order, _order=self.ranks)

    def top_k(self, k: int) -> "TopKRanking":
        return TopKRanking(self.n, k, self._order[:k])


@dataclass(frozen=True)
class TopKRanking:
    """The k most-preferred items of n, in preference order (items[0] = rank 0).

    Items not listed have rank >= k with unknown exact value.
    """

    n: int
    k: int
    items: tuple

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValidationError("k must satisfy 1 <= k <= n")
        items = tuple(map(int, self.items))
        if len(items) != self.k:
            raise ValidationError("items must have length k")
        if len(set(items)) != self.k or min(items) < 0 or max(items) >= self.n:
            raise ValidationError("items must be distinct ids in 0..n-1")
        object.__setattr__(self, "items", items)

    def rank_array(self) -> list:
        """Length-n rank vector with sentinel k for unlisted items.

        The sentinel preserves every determined pairwise comparison: any
        listed item has rank < k <= rank of any unlisted item.
        """
        return _inverse(self.items, self.n, self.k)

    def to_permutation(self) -> Permutation:
        if self.k != self.n:
            raise ValidationError("only a full (k = n) ranking converts to a Permutation")
        return Permutation.from_items(self.items)


RankingLike = Union[Permutation, TopKRanking]
_MAX_N = 2**31 - 1  # item ids are stored as int32


def _unchecked(cls, **fields):
    """A Permutation or TopKRanking of values already checked: no __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class RankingBatch(Sequence):
    """m top-k rankings of n items as arrays: `items` is (m, k_max) int32, the
    ids of each row in preference order padded with -1; `ks` holds each k.

    The constructor checks all rows at once and raises what `TopKRanking`
    raises for the first bad row.  An int index yields a `TopKRanking`, not
    checked again; slices and boolean masks yield batches; `+` concatenates;
    `==` compares ranking by ranking with any sequence of rankings.
    """

    __slots__ = ("n", "items", "ks")

    def __init__(self, n: int, items, ks):
        n = int(n)
        items, ks = np.asarray(items, dtype=np.int64), np.asarray(ks, dtype=np.int64)
        if n > _MAX_N:
            raise ValidationError(f"n must be at most {_MAX_N}")
        if items.ndim != 2 or ks.shape != items.shape[:1]:
            raise ValidationError("items must be an (m, k_max) array with one k per row")
        _check_rows(n, items, ks)
        self.n, self.items, self.ks = n, items.astype(np.int32), ks

    @classmethod
    def _trusted(cls, n: int, items: np.ndarray, ks: np.ndarray) -> "RankingBatch":
        """A batch of arrays that already hold valid rankings."""
        batch = object.__new__(cls)
        batch.n, batch.items, batch.ks = n, items, ks
        return batch

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            ks = self.ks[index]
            return RankingBatch._trusted(self.n, self.items[index, :ks.max(initial=0)], ks)
        k = int(self.ks[index])
        return _unchecked(TopKRanking, n=self.n, k=k,
                          items=tuple(self.items[index, :k].tolist()))

    def __iter__(self):
        for lo in range(0, len(self), _BLOCK):
            rows = self.items[lo:lo + _BLOCK].tolist()
            for k, row in zip(self.ks[lo:lo + _BLOCK].tolist(), rows):
                yield _unchecked(TopKRanking, n=self.n, k=k, items=tuple(row[:k]))

    def __add__(self, other) -> "RankingBatch":
        other = _as_batch(other, self.n)
        ks = np.concatenate([self.ks, other.ks])
        flat = np.concatenate([self._ids(), other._ids()])
        return RankingBatch._trusted(self.n, _pad(flat, ks), ks)

    def __eq__(self, other) -> bool:
        if isinstance(other, RankingBatch):
            return (self.n == other.n and np.array_equal(self.ks, other.ks)
                    and np.array_equal(self._ids(), other._ids()))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"RankingBatch(n={self.n}, m={len(self)}, k_max={self.items.shape[1]})"

    def _ids(self) -> np.ndarray:
        """The listed ids of all rows, row after row."""
        return self.items[self.items >= 0]


def _check_rows(n: int, items: np.ndarray, ks: np.ndarray) -> None:
    """Raise what `TopKRanking(n, k, row[:k])` raises for the first bad row, or
    the length error if its padding is not -1; whole-array checks, then only
    on failure per-row reductions and one TopKRanking of the first bad row."""
    listed = np.arange(items.shape[1]) < ks[:, None]
    ordered = np.sort(items, axis=1)  # padding first; equal neighbours >= 0 repeat an id
    bad_k = (ks < 1) | (ks > n) | (ks > items.shape[1])
    bad_cell = (listed & ((items < 0) | (items >= n))) | (~listed & (items != -1))
    repeat = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    if bad_k.any() or bad_cell.any() or repeat.any():
        row = int(np.argmax(bad_k | bad_cell.any(axis=1) | repeat.any(axis=1)))
        TopKRanking(n, int(ks[row]), tuple(items[row, :ks[row]].tolist()))
        raise ValidationError("items must have length k")


def _pad(flat: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(len(ks), max k) array whose row i holds the next ks[i] ids of `flat`,
    padded with -1."""
    items = np.full((len(ks), ks.max(initial=0)), -1, dtype=flat.dtype)
    items[np.arange(items.shape[1]) < ks[:, None]] = flat
    return items


def _as_batch(sample, n=None) -> RankingBatch:
    """`sample` as a RankingBatch, converting a sequence of TopKRankings once;
    every ranking must have n items (by default, as many as the first)."""
    if not isinstance(sample, RankingBatch):
        sample = list(sample)
        first = sample[0].n if sample else n or 0
        if any(s.n != first for s in sample):
            raise DimensionError("ranking has the wrong item count")
        ks = np.fromiter([s.k for s in sample], np.int64, len(sample))
        flat = np.fromiter(itertools.chain.from_iterable(s.items for s in sample),
                           np.int32, int(ks.sum()))
        sample = RankingBatch._trusted(first, _pad(flat, ks), ks)
    if n is not None and sample.n != n:
        raise DimensionError("ranking has the wrong item count")
    return sample


def kendall_full(sigma: Permutation, pi: Permutation) -> int:
    """Kendall's-tau distance: number of discordant item pairs."""
    return kendall_topk(sigma, pi)


def kendall_topk(sigma: RankingLike, pi: RankingLike) -> int:
    """Kendall's-tau distance for partial rankings (Fagin, Kumar & Sivakumar's
    K^(0)): the item pairs strictly discordant in both arguments.

    An item pi does not list ranks K, pi's list length, so it ties only with
    another unlisted item.  With c_j pi's rank of sigma's j-th listed item,
    the distance is sum_j c_j - #{i < j : c_i < c_j}, for any mix of top-k
    and full arguments; `_distances_to_full` is the same sum for a sample.
    The count bisects the sorted earlier codes: O(n + k log k) comparisons.
    """
    if sigma.n != pi.n:
        raise DimensionError("mismatched item counts")
    ranks = pi.ranks if isinstance(pi, Permutation) else pi.rank_array()
    listed = sigma.items_by_rank() if isinstance(sigma, Permutation) else sigma.items
    earlier, total = [], 0
    for item in listed:
        c = ranks[item]
        total += c - bisect.bisect_left(earlier, c)
        bisect.insort(earlier, c)
    return total


_BLOCK = 1024  # rows per block: bounds the batched kernels' transient arrays


def _pair_sums(items: np.ndarray, code: np.ndarray, weight: np.ndarray, pair) -> np.ndarray:
    """sum_j weight[c_j] - sum_{i<j} pair(c_i, c_j) for each row c of
    code[items], exact in int64.  Padding maps to code[-1], at which weight
    and pair must be 0.  O(k^2) per row, in blocks of `_BLOCK` rows laid out
    column by column, so each step is one contiguous op over the block."""
    out = np.empty(len(items), dtype=np.int64)
    for lo in range(0, len(items), _BLOCK):
        c = code[np.ascontiguousarray(items[lo:lo + _BLOCK].T)]  # (k, rows)
        t = np.add.reduce(weight[c], axis=0, dtype=np.int64)
        for j in range(1, len(c)):
            t -= np.add.reduce(pair(c[:j], c[j]), axis=0, dtype=np.int64)
        out[lo:lo + _BLOCK] = t
    return out


def _distances_to_full(sample, pi: RankingLike) -> np.ndarray:
    """`kendall_topk(s, pi)` for each ranking s, O(k^2), for a full or top-k
    pi: with c_j pi's rank of the j-th listed item (K, pi's list length, for
    an item pi does not list), the distance is sum_j c_j - #{i < j : c_i < c_j}."""
    ranks = pi.ranks if isinstance(pi, Permutation) else pi.rank_array()
    code = np.array([*ranks, -1], dtype=np.int32)
    weight = np.arange(pi.n + 1, dtype=np.int32)
    weight[-1] = 0
    return _pair_sums(_as_batch(sample, pi.n).items, code, weight, np.less)


def _decode_inversions(v: np.ndarray) -> np.ndarray:
    """out[:, j] = the v[:, j]-th smallest (0-based) value not in out[:, :j].

    Decoded right to left (Lehmer): before step j each later column holds its
    rank among the values left after position j, and adding 1 where it is at
    least out[:, j] makes it its rank among the values left after position
    j - 1.  O(k^2) per row with no sort, nothing of width n; each step is one
    contiguous op on the (k, rows) transpose, and the result is C-contiguous.
    """
    out = np.array(v.T, dtype=np.int64, order="C")  # a copy even of an F-ordered v
    for j in range(len(out) - 2, -1, -1):
        out[j + 1:] += out[j + 1:] >= out[j]
    return np.ascontiguousarray(out.T)


# ---------------------------------------------------------------------------
# CSV interface: one ranking per line, comma-separated 1-based item ids in
# preference order; lines may list k < n items.  Header `# n=<N>` mandatory.
# ---------------------------------------------------------------------------


def parse_rankings_csv(text: str) -> RankingBatch:
    """The rankings of a CSV text as one RankingBatch, checked at once; a bad
    file raises the ValidationError of its first bad row.  A text of ASCII
    digits, ',' and '\\n' under its header is read with numpy, any other
    with the token syntax of int(): both read the same numbers."""
    end = text.find("\n")
    head = text if end < 0 else text[:end]
    if text.isascii() and head.startswith("# n=") and head[4:].isdigit():
        n = _header_n(head)
        read = _read_digit_rows(text, len(head) + 1, n)
        if read is not None:
            ids, ks = read
            return RankingBatch(n, _pad(ids, ks), ks)
    return _parse_int_tokens(text)


def _header_n(line: str) -> int:
    """The item count n of the header line `# n=<N>`."""
    if not line.startswith("# n="):
        raise ValidationError("missing mandatory header line '# n=<N>'")
    try:
        n = int(line[4:])
    except ValueError as exc:
        raise ValidationError("malformed header line") from exc
    if n > _MAX_N:
        raise ValidationError(f"n must be at most {_MAX_N}")
    return n


def _read_digit_rows(text: str, offset: int, n: int):
    """(ids - 1, ks) of the ASCII text from `offset` on if its rows are 1 to n
    tokens of 1 to 18 digits joined by ',' and ended by '\\n' (the last
    '\\n' may be missing); None for any other text.  In blocks of `_BLOCK`
    rows, the separators give every token's start and width, and Horner
    over digit columns reads the values, each column on the tokens that wide."""
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[offset:]
    ends = np.flatnonzero(buf == 10)
    if len(buf) and buf[-1] != 10:
        ends = np.append(ends, len(buf))
    empty = np.zeros(0, dtype=np.int64)
    ids, ks, lo = [empty], [empty], 0
    for b in range(0, len(ends), _BLOCK):
        hi = int(ends[min(b + _BLOCK, len(ends)) - 1])
        chunk = buf[lo:hi]  # the block's rows, without their last newline
        digit = chunk - np.uint8(48)  # wraps round below '0'
        sep = np.flatnonzero(digit > 9)
        byte = chunk[sep]
        newline = byte == 10
        start = np.concatenate(([0], sep + 1))
        width = np.append(sep, len(chunk)) - start
        if ((byte != 44) & ~newline).any() or not 0 < width.min() <= width.max() <= 18:
            return None
        vals = digit[start].astype(np.int64)
        for i in range(1, int(width.max())):
            wide = width > i
            vals = np.where(wide, vals * 10 + digit[np.where(wide, start + i, 0)], vals)
        row_last = np.append(np.flatnonzero(newline), len(start) - 1)  # token indices
        ids.append(vals - 1)
        ks.append(np.diff(row_last, prepend=-1))
        lo = hi + 1
    ks = np.concatenate(ks)
    return None if ks.max(initial=0) > n else (np.concatenate(ids), ks)


def _parse_int_tokens(text: str) -> RankingBatch:
    """`parse_rankings_csv` for any text: blank and comment lines skipped,
    the ids of all rows read in one pass with the token syntax of int()."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    n = _header_n(lines[0] if lines else "")
    rows = [ln for ln in lines[1:] if ln[0] != "#"]
    ks = np.fromiter(map(str.count, rows, itertools.repeat(",")), np.int64, len(rows)) + 1
    try:
        ids = np.fromiter(map(int, itertools.chain.from_iterable(
            map(str.split, rows, itertools.repeat(",")))), np.int64)
    except (ValueError, OverflowError):
        ids = None
    if ids is None or ks.max(initial=0) > n:
        _raise_first_bad_row(rows, n)
    return RankingBatch(n, _pad(ids - 1, ks), ks)


def _raise_first_bad_row(rows: Sequence[str], n: int) -> None:
    """Read the rows one by one and raise the error of the first bad one: a
    token int() cannot read, an id beyond int64 or a row longer than n."""
    for ln in rows:
        try:
            ids = [int(tok) - 1 for tok in ln.split(",")]
        except ValueError as exc:
            raise ValidationError(f"malformed ranking line {ln!r}") from exc
        TopKRanking(n, len(ids), tuple(ids))


def format_rankings_csv(rankings: Iterable[TopKRanking]) -> str:
    batch = _as_batch(rankings)
    if not batch:
        raise ValidationError("cannot write an empty ranking file")
    blocks = [f"# n={batch.n}\n"]
    for lo in range(0, len(batch), _BLOCK):
        items = batch.items[lo:lo + _BLOCK]
        ids = items[items >= 0]
        # each distinct id of the block becomes text once; the block is one
        # gather of "<id>," tokens, each row's last token swapped for "<id>\n"
        table, code = np.unique(ids, return_inverse=True)
        tokens = np.array([f"{w}," for w in (table + 1).tolist()], dtype=object)[code]
        last = np.cumsum(batch.ks[lo:lo + _BLOCK]) - 1
        tokens[last] = [f"{w}\n" for w in (ids[last] + 1).tolist()]
        blocks.append("".join(tokens.tolist()))
    return "".join(blocks)


def read_rankings_csv(path) -> RankingBatch:
    """The rankings of a UTF-8 text file; each newline convention reads as '\\n'."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"ranking file {str(path)!r} is not UTF-8 text") from exc
    return parse_rankings_csv(text)


def write_rankings_csv(path, rankings: Iterable[TopKRanking]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_rankings_csv(rankings))
