"""Exact mining: the level-1 scan, the candidate join, the level-wise
Apriori built from the two, and a brute-force enumerator.

The join is the only place that decides Apriori compatibility: it files
each l-itemset under its l subsets of size l-1, so two itemsets sharing
l-1 items meet in exactly one bucket.  The exact variant and every
fallback level take its frequent unions as the next level; LSH levels read
their queries' compatible partners and TN/FP counts from it.  The
brute-force path shares no logic with it, so the miners always have an
independent ground truth to be checked against.
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

    def level(self, l: int) -> list[ItemsetRecord]:
        if l < 1 or l > len(self.levels):
            return []
        return self.levels[l - 1]

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
    unions are frequent.  `frequent` holds the exact next level."""

    candidate_pairs: int
    frequent_pairs: int
    distinct_candidates: int
    records: list[ItemsetRecord]
    buckets: dict[tuple[int, ...], list[tuple[int, int]]]   # (l-1)-subset -> [(index, item left out)]
    positives: list[set[int]]   # per record index: compatible partners with frequent union
    frequent: dict[tuple[int, ...], ItemsetRecord]   # union -> record with the AND vector

    def next_level(self) -> list[ItemsetRecord]:
        return [self.frequent[u] for u in sorted(self.frequent)]

    def partners(self, i: int) -> list[int]:
        """Indices of the records compatible with record i, each once: the
        other members of its l buckets.  Reads no co-support."""
        items = self.records[i].items
        return [j for k in range(len(items))
                for j, _ in self.buckets[items[:k] + items[k + 1:]] if j != i]


def union_if_compatible(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two sorted l-item tuples; return the union iff it has l+1 items."""
    target = len(a) + 1
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
        if len(out) > target:
            return None
    out.extend(a[i:])
    out.extend(b[j:])
    if len(out) != target:
        return None
    return tuple(out)


def join_level(records: list[ItemsetRecord], theta_count: int) -> PairSweep:
    """The candidate join of Agrawal & Srikant (VLDB 1994), with the support
    of every union counted on the way.  Each compatible pair meets in one
    bucket: the (l-1)-subset the two records share."""
    buckets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, r in enumerate(records):
        items = r.items
        for k, x in enumerate(items):
            buckets.setdefault(items[:k] + items[k + 1:], []).append((i, x))
    positives = [set() for _ in records]
    cpairs = fpairs = 0
    unions = set()
    frequent = {}
    for key, members in buckets.items():
        for s, (i, x) in enumerate(members):
            a = records[i].vector
            for j, y in members[s + 1:]:
                cpairs += 1
                u = tuple(sorted((*key, x, y)))
                unions.add(u)
                both = a.value & records[j].vector.value
                if both.bit_count() >= theta_count:
                    fpairs += 1
                    positives[i].add(j)
                    positives[j].add(i)
                    if u not in frequent:
                        frequent[u] = ItemsetRecord.from_vector(u, BitVector(a.length, both))
    return PairSweep(cpairs, fpairs, len(unions), records, buckets, positives, frequent)


def frequent_singletons(db: TransactionDatabase, theta_count: int) -> tuple[list[ItemsetRecord], int]:
    """The level-1 scan: one support count (n reads) per occurring item."""
    records = []
    reads = 0
    for item in db.items():
        col = db.columns[item]
        reads += db.n
        if col.popcount() >= theta_count:
            records.append(ItemsetRecord.from_vector((item,), col))
    return records, reads


def apriori_mine(db: TransactionDatabase, theta: float) -> AprioriResult:
    """Level-wise Apriori: join compatible pairs, verify support, repeat."""
    theta_count = support_threshold(theta, db.n)
    fis = FrequentItemsetSet(theta_count=theta_count)
    current, _ = frequent_singletons(db, theta_count)
    while current:
        fis.levels.append(current)
        current = join_level(current, theta_count).next_level()
    return AprioriResult(itemsets=fis)


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
