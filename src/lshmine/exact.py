"""Exact mining: the level-1 scan, the candidate join, the next-level
builder, and a brute-force enumerator.

The join is the only place that decides Apriori compatibility: it files
each l-itemset under its l subsets of size l-1, so two itemsets sharing
l-1 items meet in exactly one bucket, and each one's left-out item gives
their union (`add_item`).  `build_level` is the only place that turns
candidate unions into a level (AND vector, threshold, sort): the join's
frequent unions for the exact variant and every fallback level, the
unions an LSH level found for the others.  None of it charges reads; the
engine prices what it returns.  `apriori_mine` is the engine's exact
variant.  The brute-force path shares no logic with any of it, so the
miners always have an independent ground truth to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .dataset import BitVector, ItemsetRecord, TransactionDatabase, support_threshold

BRUTE_FORCE_MAX_ITEMS = 20


@dataclass
class FrequentItemsetSet:
    """Frequent itemsets grouped by level; level l holds l-item records."""

    theta_count: int
    levels: list[list[ItemsetRecord]] = field(default_factory=list)

    def max_level(self) -> int:
        return len(self.levels)

    def all_records(self):
        for records in self.levels:
            yield from records

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {r.items: r.support for r in self.all_records()}

    def item_tuples(self) -> set[tuple[int, ...]]:
        return {r.items for r in self.all_records()}

    def count(self) -> int:
        return sum(len(records) for records in self.levels)

    def same_itemsets(self, other: "FrequentItemsetSet") -> bool:
        return self.as_dict() == other.as_dict()


@dataclass
class AprioriResult:
    itemsets: FrequentItemsetSet


@dataclass
class PairSweep:
    """One level's candidate join: who is compatible with whom and which
    unions are frequent; `build_level` of `frequent` is the exact next level."""

    candidate_pairs: int
    frequent_pairs: int
    distinct_candidates: int
    records: list[ItemsetRecord]
    buckets: dict[tuple[int, ...], list[tuple[int, int]]]   # (l-1)-subset -> [(index, item left out)]
    positives: list[set[int]]   # per record index: compatible partners with frequent union
    frequent: dict[tuple[int, ...], tuple[int, int]]   # frequent union -> first pair of it

    def partners(self, i: int) -> dict[int, int]:
        """The records compatible with record i, each mapped to the item it
        adds to record i (its left-out item in the bucket the two share).
        Reads no co-support."""
        items = self.records[i].items
        return {j: y for k in range(len(items))
                for j, y in self.buckets[items[:k] + items[k + 1:]] if j != i}


def add_item(items: tuple[int, ...], item: int) -> tuple[int, ...]:
    """The union of a sorted itemset and the item its join partner adds."""
    return tuple(sorted((*items, item)))


def build_level(records: list[ItemsetRecord], unions: dict[tuple[int, ...], tuple[int, int]],
                theta_count: int) -> list[ItemsetRecord]:
    """The next level from candidate unions, each given with one pair of
    `records` indices that forms it: the pair's AND vector, kept iff it
    meets theta_count, sorted by items."""
    level = []
    for u, (i, j) in unions.items():
        vector = records[i].vector & records[j].vector
        if vector.popcount() >= theta_count:
            level.append(ItemsetRecord.from_vector(u, vector))
    level.sort(key=lambda r: r.items)
    return level


def union_if_compatible(a: tuple[int, ...], b: tuple[int, ...]):
    """The pairwise join rule: the sorted union of two l-item tuples iff it
    has l+1 items, else None."""
    union = tuple(sorted(set(a) | set(b)))
    return union if len(union) == len(a) + 1 else None


def join_level(records: list[ItemsetRecord], theta_count: int) -> PairSweep:
    """The candidate join of Agrawal & Srikant (VLDB 1994), with the support
    of every union counted on the way.  Each compatible pair meets in one
    bucket: the (l-1)-subset the two records share."""
    buckets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, r in enumerate(records):
        items = r.items
        for k, x in enumerate(items):
            buckets.setdefault(items[:k] + items[k + 1:], []).append((i, x))
    values = [r.vector.value for r in records]
    positives = [set() for _ in records]
    cpairs = fpairs = 0
    unions = set()
    frequent = {}
    for members in buckets.values():
        cpairs += len(members) * (len(members) - 1) // 2
        for s, (i, _) in enumerate(members):
            items, a = records[i].items, values[i]
            for j, y in members[s + 1:]:
                u = add_item(items, y)
                unions.add(u)
                if (a & values[j]).bit_count() >= theta_count:
                    fpairs += 1
                    positives[i].add(j)
                    positives[j].add(i)
                    frequent.setdefault(u, (i, j))
    return PairSweep(cpairs, fpairs, len(unions), records, buckets, positives, frequent)


def frequent_singletons(db: TransactionDatabase, theta_count: int) -> list[ItemsetRecord]:
    """The level-1 scan: one support count per occurring item."""
    columns = db.columns
    return [ItemsetRecord.from_vector((item,), columns[item]) for item in db.items()
            if columns[item].popcount() >= theta_count]


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
    items = db.items()
    full = (1 << db.n) - 1
    for size in range(1, len(items) + 1):
        records = []
        for comb in combinations(items, size):
            v = full
            for item in comb:
                v &= db.columns[item].value
            support = v.bit_count()
            if support >= theta_count:
                records.append(ItemsetRecord(comb, BitVector(db.n, v), support))
        fis.levels.append(records)
    while fis.levels and not fis.levels[-1]:
        fis.levels.pop()
    return fis
