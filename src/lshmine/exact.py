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
code that knows how they are numbered.
None of it charges reads; the engine prices what it returns.
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
    the distinct candidates, in item order, and `pair_frequent` says
    whether the union meets the threshold.

    The ordered pairs are read off the filings, not kept: query record q,
    partner record a, and the item a adds to q.  Unordered pair p is at p
    as (i, j) and at p + candidate_pairs as (j, i).  `q`, `a` and `y` list
    every pair, built on first access; the methods read only the pairs
    they are given.  `build_level` of `unions` of the frequent pairs is the
    exact next level."""

    candidate_pairs: int
    frequent_pairs: int
    distinct_candidates: int
    filings: np.ndarray = field(repr=False)         # (3, m_l * l): record, item, group end
    pair_union: np.ndarray = field(repr=False)      # (candidate_pairs,) in [0, distinct_candidates)
    pair_frequent: np.ndarray = field(repr=False)   # (candidate_pairs,) bool
    _every: np.ndarray | None = field(default=None, init=False, repr=False)

    @cached_property
    def start(self) -> np.ndarray:
        """Per filing, its first pair as the earlier filing of the two."""
        later = self.filings[2] - np.arange(self.filings.shape[1]) - 1
        return np.cumsum(later) - later

    def __len__(self) -> int:
        return 2 * self.candidate_pairs

    def every(self) -> np.ndarray:
        """q, a and y of every pair as (3, len) int32 (int64 if an item id
        needs it), built on first call by the join's own pairing step."""
        if self._every is None:
            owner, item, end = self.filings
            first, second = _filing_pairs(end)
            half = len(first)
            wide = item.max(initial=0) > np.iinfo(np.int32).max
            self._every = np.empty((3, 2 * half), dtype=np.int64 if wide else np.int32)
            self._every[0, :half], self._every[0, half:] = owner[first], owner[second]
            self._every[1, :half], self._every[1, half:] = owner[second], owner[first]
            self._every[2, :half], self._every[2, half:] = item[second], item[first]
        return self._every

    q = property(lambda self: self.every()[0])
    a = property(lambda self: self.every()[1])
    y = property(lambda self: self.every()[2])

    def index(self, fq: np.ndarray, fa: np.ndarray) -> np.ndarray:
        """The pair whose query is filed at fq and whose partner at fa, two
        distinct filings of one group: pair start[lo] + (hi - lo - 1) of the
        join, in the second half when the query's filing is the later."""
        lo, hi = np.minimum(fq, fa), np.maximum(fq, fa)
        return self.start[lo] + (hi - lo - 1) + self.candidate_pairs * (fq > fa)

    def members(self, idx: np.ndarray):
        """q, a and y of the pairs `idx`, the inverse of `index`: gathered
        if every pair is built already, else read off the filings."""
        if self._every is not None:
            return tuple(self._every.take(idx, axis=1))
        owner, item, _ = self.filings
        swapped = idx >= self.candidate_pairs
        unordered = idx - self.candidate_pairs * swapped
        first = np.searchsorted(self.start, unordered, side="right") - 1
        second = first + 1 + (unordered - self.start[first])
        fq, fa = np.where(swapped, second, first), np.where(swapped, first, second)
        return owner[fq], owner[fa], item[fa]

    def union(self, idx: np.ndarray) -> np.ndarray:
        """The distinct candidate that each pair of `idx` forms."""
        return self.pair_union[idx - self.candidate_pairs * (idx >= self.candidate_pairs)]

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
    """The candidate join of Agrawal & Srikant (VLDB 1994), with the support
    of every union counted on the way, as whole-array steps over `level`.

    Every record is filed under its l subsets of size l-1 (one filing per
    item left out), the filings are grouped by subset with one lexsort, and
    every two filings of a group form a compatible pair.  Co-support is the
    popcount of the two packed vectors' AND, a chunk of pairs at a time.
    The distinct unions are counted by sorting the pairs' union rows (at
    l = 1 every pair's union is its own); the same sort numbers every
    pair's union, in item order."""
    items = level.items
    m, size = items.shape
    others = np.array([[c for c in range(size) if c != k] for k in range(size)],
                      dtype=np.intp).reshape(size, size - 1)   # row k: the columns but k
    keys = items[:, others].reshape(m * size, size - 1)
    owner = np.repeat(np.arange(m), size)
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
    i, j, y = owner[first], owner[second], left_out[second]

    is_frequent = pair_cosupport(level.packed, i, j) >= theta_count

    if size == 1:   # distinct singletons: every pair forms its own union
        distinct, union = len(i), np.arange(len(i))
    else:
        unions = np.sort(np.column_stack([items[i], y]), axis=1)
        order = np.lexsort(unions.T[::-1])
        runs = _run_starts(unions[order])
        distinct = int(runs.sum())
        union = np.empty(len(i), dtype=np.intp)
        union[order] = np.cumsum(runs) - 1
    return PairSweep(len(i), int(is_frequent.sum()), distinct,
                     np.stack([owner, left_out, end]), union, is_frequent)


def _filing_pairs(end: np.ndarray):
    """Every two filings of a group, as filing indices (first, second) with
    first < second: filing f pairs with every later filing of its group,
    f+1 .. end[f]-1, in filing order."""
    f = np.arange(len(end))
    later = end - f - 1
    first = np.repeat(f, later)
    second = np.arange(len(first)) + np.repeat(f + 1 - (np.cumsum(later) - later), later)
    return first, second


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
        both = packed[i[s:s + step]] & packed[j[s:s + step]]
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
    if db.m > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"item universe too large for brute force (m={db.m} > {BRUTE_FORCE_MAX_ITEMS})")
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
