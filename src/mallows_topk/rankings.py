"""Permutations, top-k rankings, Kendall distances, and the inversion-vector bijection.

Items and ranks are 0-based internally (rank 0 = most preferred).  External
CSV files use 1-based item ids; the conversion happens only in the CSV
readers/writers at the bottom of this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, ValidationError


class FenwickTree:
    """Binary indexed tree over integer counts with prefix-sum and k-th order select."""

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    @classmethod
    def ones(cls, size: int) -> "FenwickTree":
        bit = cls(size)
        for i in range(1, size + 1):
            bit.tree[i] += 1
            parent = i + (i & -i)
            if parent <= size:
                bit.tree[parent] += bit.tree[i]
        return bit

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self.size:
            self.tree[i] += delta
            i += i & -i

    def prefix_sum(self, count: int) -> int:
        """Sum of the first `count` slots (indices 0..count-1)."""
        total = 0
        i = count
        while i > 0:
            total += self.tree[i]
            i -= i & -i
        return total

    def select(self, k: int) -> int:
        """Index of the (k+1)-th nonzero slot (0-based k among present elements)."""
        pos = 0
        remaining = k + 1
        bit_mask = 1 << (self.size.bit_length())
        while bit_mask:
            nxt = pos + bit_mask
            if nxt <= self.size and self.tree[nxt] < remaining:
                pos = nxt
                remaining -= self.tree[nxt]
            bit_mask >>= 1
        return pos  # 0-based index


@dataclass(frozen=True)
class Permutation:
    """A full ranking of n items; ranks[i] is the rank of item i (0 = best)."""

    n: int
    ranks: tuple

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("n must be positive")
        if len(self.ranks) != self.n or sorted(self.ranks) != list(range(self.n)):
            raise ValidationError("ranks must be a bijection on 0..n-1")
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n - 1, -1, -1)))

    @classmethod
    def from_items(cls, items: Sequence[int]) -> "Permutation":
        """Build from a preference-ordered item list (items[r] has rank r)."""
        n = len(items)
        ranks = [0] * n
        for r, i in enumerate(items):
            ranks[i] = r
        return cls(n, tuple(ranks))

    def items_by_rank(self) -> tuple:
        """Item ids in preference order (inverse view of `ranks`)."""
        out = [0] * self.n
        for item, r in enumerate(self.ranks):
            out[r] = item
        return tuple(out)

    def inverse(self) -> "Permutation":
        return Permutation(self.n, self.items_by_rank())

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DimensionError("mismatched item counts")
        return Permutation(self.n, tuple(self.ranks[other.ranks[i]] for i in range(self.n)))

    def top_k(self, k: int) -> "TopKRanking":
        return TopKRanking(self.n, k, self.items_by_rank()[:k])


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
        items = tuple(int(i) for i in self.items)
        if len(items) != self.k:
            raise ValidationError("items must have length k")
        if len(set(items)) != self.k or any(not 0 <= i < self.n for i in items):
            raise ValidationError("items must be distinct ids in 0..n-1")
        object.__setattr__(self, "items", items)

    def rank_array(self) -> list:
        """Length-n rank vector with sentinel k for unlisted items.

        The sentinel preserves every determined pairwise comparison: any
        listed item has rank < k <= rank of any unlisted item.
        """
        ranks = [self.k] * self.n
        for r, i in enumerate(self.items):
            ranks[i] = r
        return ranks

    def to_permutation(self) -> Permutation:
        if self.k != self.n:
            raise ValidationError("only a full (k = n) ranking converts to a Permutation")
        return Permutation.from_items(self.items)


@dataclass(frozen=True)
class InversionVector:
    """Per-position discordance counts; v[j] in 0..n-j-1 (0-based j), sum(v) = Kendall distance to identity."""

    n: int
    k: int
    v: tuple

    def __post_init__(self):
        v = tuple(int(x) for x in self.v)
        if len(v) != self.k or not 1 <= self.k <= self.n:
            raise ValidationError("v must have length k with 1 <= k <= n")
        for j, x in enumerate(v):
            if not 0 <= x <= self.n - j - 1:
                raise ValidationError(f"v[{j}]={x} outside 0..{self.n - j - 1}")
        object.__setattr__(self, "v", v)


RankingLike = Union[Permutation, TopKRanking]


def _as_topk_rank_array(r: RankingLike) -> tuple:
    """(rank array with sentinel, k) for either ranking type."""
    if isinstance(r, Permutation):
        return list(r.ranks), r.n
    return r.rank_array(), r.k


def kendall_full(sigma: Permutation, pi: Permutation) -> int:
    """Kendall's-tau distance: number of discordant item pairs."""
    if sigma.n != pi.n:
        raise DimensionError("mismatched item counts")
    return int(_distances_to_full(_item_array([sigma.top_k(sigma.n)], sigma.n), pi)[0])


def kendall_topk(sigma: RankingLike, pi: RankingLike) -> int:
    """Kendall's-tau distance for partial rankings.

    A pair is determined in a top-k ranking when at least one of its items is
    listed; pairs undetermined in either argument do not add to the distance.
    With full arguments this coincides with `kendall_full`.
    """
    if sigma.n != pi.n:
        raise DimensionError("mismatched item counts")
    a, _ = _as_topk_rank_array(sigma)
    b, _ = _as_topk_rank_array(pi)
    n = sigma.n
    count = 0
    for i in range(n):
        ai, bi = a[i], b[i]
        for j in range(i + 1, n):
            if (ai - a[j]) * (bi - b[j]) < 0:
                count += 1
    return count


_BLOCK = 1024  # rows per block: bounds the batched kernels' transient arrays


def _item_array(sample: Sequence[TopKRanking], n: int) -> np.ndarray:
    """(m, k_max) int32 array of the listed items of each ranking, padded with -1."""
    if any(s.n != n for s in sample):
        raise DimensionError("ranking has the wrong item count")
    k_max = max((s.k for s in sample), default=0)
    pad = [(-1,) * (k_max - k) for k in range(k_max + 1)]
    flat = itertools.chain.from_iterable(s.items + pad[s.k] for s in sample)
    return np.fromiter(flat, dtype=np.int32, count=len(sample) * k_max).reshape(len(sample), k_max)


def _pair_sums(items: np.ndarray, code: np.ndarray, weight: np.ndarray, pair) -> np.ndarray:
    """sum_j weight[c_j] - sum_{i<j} pair(c_i, c_j) for each row c of
    code[items], exact in int64.  Padding maps to code[-1], at which weight
    and pair must be 0.  O(k^2) per row, in blocks of `_BLOCK` rows."""
    out = np.empty(len(items), dtype=np.int64)
    for lo in range(0, len(items), _BLOCK):
        c = code[items[lo:lo + _BLOCK]]
        t = weight[c].sum(axis=1, dtype=np.int64)
        for j in range(1, c.shape[1]):
            t -= pair(c[:, :j], c[:, j:j + 1]).sum(axis=1, dtype=np.int64)
        out[lo:lo + _BLOCK] = t
    return out


def _distances_to_full(items: np.ndarray, pi: Permutation) -> np.ndarray:
    """`kendall_topk(s, pi)` for each row, O(k^2): with c_j the pi-rank of the
    j-th listed item, the distance is sum_j c_j - #{i < j : c_i < c_j}."""
    ranks = np.array(pi.ranks + (-1,), dtype=np.int32)
    weight = np.append(np.arange(pi.n, dtype=np.int32), np.int32(0))
    return _pair_sums(items, ranks, weight, np.less)


def to_inversion_vector(r: RankingLike) -> InversionVector:
    """Discordance counts of a ranking relative to the identity.

    For a Permutation, v[j] counts later items that outrank item j.  For a
    TopKRanking, v[j] counts the not-yet-placed item ids smaller than the
    j-th listed item; both conventions sum to the Kendall distance to the
    identity and are inverted exactly by `from_inversion_vector`.
    """
    if isinstance(r, Permutation):
        n = r.n
        bit = FenwickTree(n)
        v = [0] * (n - 1) if n > 1 else []
        for j in range(n - 1, -1, -1):
            if j < n - 1:
                v[j] = bit.prefix_sum(r.ranks[j])
            bit.add(r.ranks[j], 1)
        return InversionVector(n, max(n - 1, 1), tuple(v) if v else (0,))
    bit = FenwickTree.ones(r.n)
    v = []
    for item in r.items:
        v.append(bit.prefix_sum(item))
        bit.add(item, -1)
    return InversionVector(r.n, r.k, tuple(v))


def _decode(n: int, v: Sequence[int]) -> list:
    """v[j]-th smallest unused value, for each j in turn (order-statistics tree)."""
    bit = FenwickTree.ones(n)
    out = []
    for x in v:
        value = bit.select(x)
        out.append(value)
        bit.add(value, -1)
    return out


def from_inversion_vector(v: InversionVector, form: str = "auto") -> RankingLike:
    """Exact inverse of `to_inversion_vector`.

    form: "permutation" (decode as ranks of items 0..n-1), "topk" (decode as
    a preference-ordered item list), or "auto" (permutation when the vector
    is full-length, top-k otherwise).
    """
    if form == "auto":
        form = "permutation" if v.k >= v.n - 1 else "topk"
    if form == "permutation":
        if v.k < v.n - 1:
            raise ValidationError("partial vector cannot decode to a full permutation")
        ranks = _decode(v.n, v.v[: v.n - 1])
        if len(ranks) < v.n:
            ranks.append(next(iter(set(range(v.n)) - set(ranks))))
        return Permutation(v.n, tuple(ranks))
    if form == "topk":
        return TopKRanking(v.n, v.k, tuple(_decode(v.n, v.v)))
    raise ValidationError(f"unknown form {form!r}")


def invert_topk(sigma: TopKRanking) -> TopKRanking:
    """Rank/item duality swap; preserves the Kendall distance to the identity.

    When the list determines a full permutation (n - k <= 1) this is the exact
    permutation inverse, censored back to k entries.  Otherwise the relative
    order pattern of the listed items is inverted within the same item set,
    which keeps every distance-to-identity contribution intact.
    """
    if sigma.n - sigma.k <= 1:
        items = list(sigma.items)
        items.extend(sorted(set(range(sigma.n)) - set(items)))
        full = Permutation.from_items(items)
        return TopKRanking(sigma.n, sigma.k, full.ranks[: sigma.k])
    listed = sorted(sigma.items)
    index_of = {item: pos for pos, item in enumerate(listed)}
    pattern = [index_of[item] for item in sigma.items]
    inv_pattern = [0] * sigma.k
    for pos, val in enumerate(pattern):
        inv_pattern[val] = pos
    return TopKRanking(sigma.n, sigma.k, tuple(listed[p] for p in inv_pattern))


# ---------------------------------------------------------------------------
# CSV interface: one ranking per line, comma-separated 1-based item ids in
# preference order; lines may list k < n items.  Header `# n=<N>` mandatory.
# ---------------------------------------------------------------------------


def parse_rankings_csv(text: str) -> list:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# n="):
        raise ValidationError("missing mandatory header line '# n=<N>'")
    try:
        n = int(lines[0][4:])
    except ValueError as exc:
        raise ValidationError("malformed header line") from exc
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


def format_rankings_csv(rankings: Iterable[TopKRanking]) -> str:
    rankings = list(rankings)
    if not rankings:
        raise ValidationError("cannot write an empty ranking file")
    n = rankings[0].n
    if any(r.n != n for r in rankings):
        raise DimensionError("mixed item counts in one file")
    rows = [f"# n={n}"]
    rows.extend(",".join(str(i + 1) for i in r.items) for r in rankings)
    return "\n".join(rows) + "\n"


def read_rankings_csv(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rankings_csv(fh.read())


def write_rankings_csv(path, rankings: Iterable[TopKRanking]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_rankings_csv(rankings))
