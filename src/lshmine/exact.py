"""Exact mining: the level format, the level-1 scan, the candidate join,
the next-level builder, and a brute-force enumerator.

`Level` is the one level format, arrays from the load to the output: item
rows, vectors packed into 64-bit words as the database's rows are (the
vertical bitmaps of MAFIA, Burdick et al., ICDE 2001) and supports.
`frequent_singletons` filters the database's rows into level 1 and
`build_level` makes every later one, in one array step (co-support,
threshold, sort, AND) from the unions of the join's ordered pairs a level
chose, one pair per union (`PairSweep.unions`): the frequent pairs on
exact and fallback levels, the pairs its screen found on an LSH level.
The output keeps the levels; iterating one gives its `ItemsetRecord`s.

The join is the only place that decides Apriori compatibility.  It runs
as whole-array steps, with no Python work per pair (see `join_level`).
Its `PairSweep` reads the ordered pairs off the join's filings, the only
code that numbers them (by the rule its docstring states), and decides
which are frequent, on their first word alone where a bound settles them.
None of it charges reads; the engine prices what it returns, the same
whatever words the sweep ANDs.
`apriori_mine` is the engine's exact variant.  The brute-force path
shares no logic with any of it, so the miners always have an independent
ground truth to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .dataset import BitVector, ItemsetRecord, TransactionDatabase, support_threshold

BRUTE_FORCE_MAX_ITEMS = 20
# the memory of 2^15 uint64 words (256 KiB) that one operand of a chunked
# per-pair or per-record step holds at once (`chunk_rows`): the bound on the
# transient memory of the join, the LSH screens and their index builds,
# whatever the level's size
PAIR_CHUNK_WORDS = 1 << 15


@dataclass
class FrequentItemsetSet:
    """Frequent itemsets grouped by level; level l holds the l-itemsets."""

    theta_count: int
    levels: list[Level] = field(default_factory=list)

    def max_level(self) -> int:
        return len(self.levels)

    def all_records(self):
        for level in self.levels:
            yield from level

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {tuple(items): support for level in self.levels
                for items, support in zip(level.items.tolist(), level.supports.tolist())}

    def item_tuples(self) -> set[tuple[int, ...]]:
        return set(self.as_dict())

    def count(self) -> int:
        return sum(len(level) for level in self.levels)

    def same_itemsets(self, other: "FrequentItemsetSet") -> bool:
        return self.as_dict() == other.as_dict()


@dataclass
class AprioriResult:
    itemsets: FrequentItemsetSet


@dataclass(eq=False)
class Level:
    """One level of l-itemsets as arrays, in item order: items, vectors as
    rows of little-endian uint64 words (bit j is transaction j; the bits
    past n are 0) and supports.  Iterating it gives its `ItemsetRecord`s."""

    items: np.ndarray      # (m_l, l) int64
    packed: np.ndarray     # (m_l, ceil(n/64)) "<u8"
    supports: np.ndarray   # (m_l,) int64
    n: int
    _records: list[ItemsetRecord] | None = field(default=None, repr=False)

    @classmethod
    def of(cls, records) -> "Level":
        """The level of `records`, l-itemsets in item order, which it keeps."""
        records = list(records)
        size, n = (len(records[0].items), records[0].vector.length) if records else (1, 0)
        words = (n + 63) // 64
        packed = b"".join(r.vector.value.to_bytes(8 * words, "little") for r in records)
        return cls(np.array([r.items for r in records], dtype=np.int64).reshape(-1, size),
                   np.frombuffer(packed, dtype="<u8").reshape(len(records), words),
                   np.array([r.support for r in records], dtype=np.int64), n, records)

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        """The level as `ItemsetRecord`s, built on the first pass."""
        if self._records is None:
            self._records = [ItemsetRecord(tuple(items), BitVector(self.n, int.from_bytes(
                row.tobytes(), "little")), support) for items, row, support in
                zip(self.items.tolist(), self.packed, self.supports.tolist())]
        return iter(self._records)


@dataclass
class PairSweep:
    """One level's candidate join: who is compatible with whom and which
    unions are frequent.  `filings` holds one column per (record, item left
    out), sorted by the (l-1)-subset that remains: the record, the item,
    and the end of the columns filed under the same subset.  Per unordered
    pair, in the join's pair order, `pair_union` numbers its union among
    the distinct candidates, in item order (None at l = 1, where every pair
    is its own union, numbered as the pair), and `pair_frequent` says
    whether the union meets the threshold.  It is decided from `pair_rows`
    (the pair's two records), `packed` and `supports` on first read, most
    pairs on their first word alone when the level's supports allow it; a
    level that never reads it (a lossless screen's, see `engine`) drops
    `pair_rows` unread.

    The ordered pairs are read off the filings by `members`, not kept:
    query record q, partner record a, and the item a adds to q.  A join
    group of g filings from filing f holds unordered pairs start[f] ..
    start[f] + g(g-1)/2 - 1, in the `np.triu_indices(g, 1)` order of its
    filings (`group_pairs`); pair p is at p as (i, j) and at
    p + candidate_pairs as (j, i).  `build_level` of `unions` of the
    frequent pairs is the exact next level."""

    candidate_pairs: int
    distinct_candidates: int
    filings: np.ndarray = field(repr=False)      # (3, m_l * l): record, item, group end
    # (candidate_pairs,) int32 unless `index_dtype` widens it; None at l = 1
    pair_union: np.ndarray | None = field(repr=False)
    # (i, j), each (candidate_pairs,) int32 unless `index_dtype` widens it: its records
    pair_rows: tuple | None = field(repr=False)
    packed: np.ndarray = field(repr=False)       # the level's packed vectors
    supports: np.ndarray = field(repr=False)     # the level's supports
    theta_count: int

    @cached_property
    def pair_frequent(self) -> np.ndarray:
        """(candidate_pairs,) bool: whether each pair's union meets the
        threshold, a chunk of pairs at a time (`pair_cosupport`).  Drops
        `pair_rows`, which nothing else reads.

        A pair's co-support is at most what its first words share, `part`,
        plus the fewer ones either record has past the first word, `rest`
        (support less the first word's popcount).  So when some record's
        `rest` is below the threshold (every record's at one word), a first
        pass ANDs only word 0 of every pair: a pair is frequent if `part`
        meets the threshold, infrequent if `part + min(rest_i, rest_j)` does
        not, and only the pairs left open read their other words.  Where no
        record's is, the bound settles no pair infrequent, and one pass
        reads every word: two passes would read nearly as many words and
        take longer (they do on the bench's `dense-deep` and `wide` levels).
        Either way the result is exact."""
        (i, j), theta, packed = self.pair_rows, self.theta_count, self.packed
        self.pair_rows = None
        head = packed[:, :1]
        rest = self.supports - np.bitwise_count(head).sum(axis=1, dtype=np.int64)
        rest = rest.astype(index_dtype(self.supports.max(initial=0)))   # as wide as a support
        if not (rest < theta).any():
            return pair_cosupport(packed, i, j) >= theta
        part = pair_cosupport(head, i, j)
        frequent = part >= theta
        bound = rest.take(i)                     # min(rest_i, rest_j) + part, in place
        np.minimum(bound, rest.take(j), out=bound)
        bound += part
        unsettled = np.flatnonzero(~frequent & (bound >= theta))
        frequent[unsettled] = (part[unsettled] + pair_cosupport(
            packed[:, 1:], i[unsettled], j[unsettled])) >= theta
        return frequent

    @property
    def frequent_pairs(self) -> int:
        return int(np.count_nonzero(self.pair_frequent))

    @cached_property
    def start(self) -> np.ndarray:
        """Per filing, its first pair as the earlier filing of the two."""
        later = self.filings[2] - np.arange(self.filings.shape[1]) - 1
        return np.cumsum(later) - later

    def __len__(self) -> int:
        return 2 * self.candidate_pairs

    def group_pairs(self, heads: np.ndarray) -> np.ndarray:
        """The unordered pairs of the join groups whose first filings are
        `heads`, group by group in the numbering order: ascending if they are."""
        counts = self.filings[2].take(heads) - heads
        counts = counts * (counts - 1) // 2
        return np.repeat(self.start.take(heads), counts) + run_positions(counts)

    def index(self, fq: np.ndarray, fa: np.ndarray) -> np.ndarray:
        """The pair whose query is filed at fq and whose partner at fa, two
        distinct filings of one group: pair start[lo] + (hi - lo - 1) of the
        join, in the second half when the query's filing is the later."""
        lo, hi = np.minimum(fq, fa), np.maximum(fq, fa)
        return self.start.take(lo) + (hi - lo - 1) + self.candidate_pairs * (fq > fa)

    def members(self, idx: np.ndarray):
        """q, a and y of the pairs `idx`, read off the filings: `index` inverted."""
        owner, item, _ = self.filings
        swapped = idx >= self.candidate_pairs
        unordered = idx - self.candidate_pairs * swapped
        first = np.searchsorted(self.start, unordered, side="right") - 1
        second = first + 1 + (unordered - self.start[first])
        fq, fa = np.where(swapped, second, first), np.where(swapped, first, second)
        return owner[fq], owner[fa], item[fa]

    def union(self, idx: np.ndarray) -> np.ndarray:
        """The distinct candidate that each pair of `idx` forms."""
        unordered = idx - self.candidate_pairs * (idx >= self.candidate_pairs)
        return unordered if self.pair_union is None else self.pair_union[unordered]

    def unions(self, idx: np.ndarray):
        """The distinct candidates the pairs `idx` form, in item order, as q,
        a and y of the first pair of `idx` that forms each: what
        `build_level` takes."""
        _, at = np.unique(self.union(idx), return_index=True)
        return self.members(idx[at])


def build_level(level: Level, i: np.ndarray, j: np.ndarray, y: np.ndarray,
                theta_count: int) -> Level:
    """The next level from distinct candidate unions, union u given by rows
    i[u] and j[u] of `level` and the item y[u] that j adds to i: the unions
    whose pair's AND meets theta_count, sorted by items."""
    if not len(i):   # no union: the steps below would cost more than the mine
        return Level(np.empty((0, level.items.shape[1] + 1), dtype=np.int64), level.packed[:0],
                     level.supports[:0], level.n)
    co = pair_cosupport(level.packed, i, j)
    kept = co >= theta_count
    items = np.sort(np.column_stack([level.items[i[kept]], y[kept]]), axis=1)
    order = np.lexsort(items.T[::-1])
    i, j = i[kept][order], j[kept][order]
    return Level(items[order], level.packed[i] & level.packed[j], co[kept][order], level.n)


def union_if_compatible(a: tuple[int, ...], b: tuple[int, ...]):
    """The pairwise join rule: the sorted union of two l-item tuples iff it
    has l+1 items, else None."""
    union = tuple(sorted(set(a) | set(b)))
    return union if len(union) == len(a) + 1 else None


def join_level(level: Level, theta_count: int) -> PairSweep:
    """The candidate join of Agrawal & Srikant (VLDB 1994), as whole-array
    steps over `level`.

    Every record is filed under its l subsets of size l-1 (one filing per
    item left out), the filings are grouped by subset with one lexsort, and
    every two filings of a group form a compatible pair.  The distinct
    unions are counted by sorting the pairs' union rows (at l = 1 every
    pair's union is its own); the same sort numbers every pair's union, in
    item order.  No co-support is read here: the sweep decides every pair
    when its `pair_frequent` is first read, from the level's supports and
    as few words as they allow."""
    items = level.items
    m, size = items.shape
    others = np.array([[c for c in range(size) if c != k] for k in range(size)],
                      dtype=np.intp).reshape(size, size - 1)   # row k: the columns but k
    keys = items[:, others].reshape(m * size, size - 1)
    owner = np.repeat(np.arange(m, dtype=index_dtype(m)), size)
    left_out = items.reshape(-1)
    if size == 1:   # every key is (): one group
        end = np.full(m, m)
    else:
        order = np.lexsort(keys.T[::-1])
        keys, owner, left_out = keys[order], owner[order], left_out[order]
        starts = np.flatnonzero(_run_starts(keys))
        ends = np.r_[starts[1:], m * size]
        end = np.repeat(ends, ends - starts)
    first, second = _filing_pairs(end)
    if size == 1:   # distinct singletons, each filed once in order: every pair forms its own
        i, j = first, second   # union, numbered as the pair
        distinct, union = len(i), None
    else:
        i, j = owner.take(first), owner.take(second)
        unions = np.sort(np.column_stack([items.take(i, axis=0), left_out.take(second)]), axis=1)
        order = np.lexsort(unions.T[::-1])
        runs = _run_starts(unions[order])
        distinct = int(runs.sum())
        union = np.empty(len(i), dtype=index_dtype(len(i)))
        union[order] = np.cumsum(runs) - 1
    return PairSweep(len(i), distinct, np.stack([owner, left_out, end]), union, (i, j),
                     level.packed, level.supports, theta_count)


def _filing_pairs(end: np.ndarray):
    """Every two filings of a group, as filing indices (first, second) with
    first < second: filing f pairs with every later filing of its group,
    f+1 .. end[f]-1, in filing order.  Both are `index_dtype` of the larger
    of the filing and pair counts."""
    f = np.arange(len(end))
    later = end - f - 1
    upto = np.cumsum(later)
    width = index_dtype(max(len(end), int(upto[-1]) if len(upto) else 0))
    first = np.repeat(f.astype(width), later)
    second = np.arange(len(first), dtype=width) + np.repeat((f + 1 - upto + later).astype(width),
                                                            later)
    return first, second


def index_dtype(limit: int):
    """The one width rule for the join's per-pair arrays: int32 when every
    value up to `limit` fits it, int64 otherwise.  Gather by them with
    `take`: numpy's `[]` casts int32 indices through a buffered iterator,
    three times slower than int64 ones, where `take` costs the same."""
    return np.int32 if limit <= np.iinfo(np.int32).max else np.int64


def run_positions(counts: np.ndarray) -> np.ndarray:
    """For runs of the given lengths laid end to end, each element's
    position in its run: 0 .. counts[r]-1 for run r."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def chunk_rows(words_per_row: int) -> int:
    """How many rows (pairs or records) a chunked step takes at once when
    its largest operand holds `words_per_row` uint64 words' worth per row."""
    return max(1, PAIR_CHUNK_WORDS // max(1, words_per_row))


def pair_cosupport(packed: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """popcount(row i AND row j) of `packed` for each pair (i[p], j[p]),
    PAIR_CHUNK_WORDS words of each operand at a time."""
    out = np.empty(len(i), dtype=np.int64)
    step = chunk_rows(packed.shape[1])
    for s in range(0, len(i), step):
        both = packed.take(i[s:s + step], axis=0) & packed.take(j[s:s + step], axis=0)
        out[s:s + step] = np.bitwise_count(both).sum(axis=1)
    return out


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Which rows differ from the row before (the first row does): in sorted
    rows, the first row of each run of equal ones."""
    return np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)][:len(rows)]


def frequent_singletons(db: TransactionDatabase, theta_count: int) -> Level:
    """The level-1 scan: one support count per occurring item."""
    supports = np.bitwise_count(db.packed).sum(axis=1, dtype=np.int64)
    kept = supports >= theta_count
    return Level(db.items[kept].reshape(-1, 1), db.packed[kept], supports[kept], db.n)


def apriori_mine(db: TransactionDatabase, theta: float) -> AprioriResult:
    """Level-wise Apriori: the itemsets of the engine's exact variant."""
    from .engine import MiningConfig, lsh_apriori_mine   # the engine imports this module
    return AprioriResult(itemsets=lsh_apriori_mine(db, MiningConfig(theta=theta)).itemsets)


def brute_force_mine(db: TransactionDatabase, theta: float) -> FrequentItemsetSet:
    """Enumerate every non-empty itemset over the occurring items and keep
    the ones meeting the threshold.  Deliberately has no shared logic with
    apriori_mine so it can act as an oracle."""
    if len(db.items) > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"item universe too large for brute force"
                         f" ({len(db.items)} occurring items > {BRUTE_FORCE_MAX_ITEMS})")
    theta_count = support_threshold(theta, db.n)
    fis = FrequentItemsetSet(theta_count=theta_count)
    columns = {item: int.from_bytes(row.tobytes(), "little")
               for item, row in zip(db.items.tolist(), db.packed)}
    full = (1 << db.n) - 1
    for size in range(1, len(columns) + 1):
        records = []
        for comb in combinations(columns, size):
            v = full
            for item in comb:
                v &= columns[item]
            support = v.bit_count()
            if support >= theta_count:
                records.append(ItemsetRecord(comb, BitVector(db.n, v), support))
        fis.levels.append(Level.of(records))
    while fis.levels and not fis.levels[-1]:
        fis.levels.pop()
    return fis
