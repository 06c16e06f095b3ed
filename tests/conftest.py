from dataclasses import dataclass

import numpy as np
import pytest

from lshmine.dataset import BitVector, ItemsetRecord, TransactionDatabase, co_support
from lshmine.exact import add_item, join_level, union_if_compatible


def db_from_rows(rows, m=None):
    """Build a database straight from row lists (bypasses the file loader)."""
    n = len(rows)
    if m is None:
        m = 1 + max(max(row) for row in rows if row)
    values = {}
    for j, row in enumerate(rows):
        for item in set(row):
            values[item] = values.get(item, 0) | (1 << j)
    columns = {item: BitVector(n, v) for item, v in values.items()}
    return TransactionDatabase(n=n, m=m, columns=columns)


TOY_ROWS = [[1, 2, 3], [1, 2], [1, 3], [2, 3]]

# support >= 2 out of 4 transactions; {1,2,3} itself only appears once
TOY_FREQUENT = {
    (1,): 3, (2,): 3, (3,): 3,
    (1, 2): 2, (1, 3): 2, (2, 3): 2,
}


@pytest.fixture
def toy_db():
    return db_from_rows(TOY_ROWS)


def vector_from_positions(n, positions):
    return BitVector.from_indices(n, positions)


def random_vector(rng, n, weight):
    """BitVector with exactly `weight` ones at random positions."""
    positions = rng.choice(n, size=weight, replace=False)
    return BitVector.from_indices(n, positions.tolist())


def singleton_level(vectors):
    """Wrap raw vectors as a level of singleton records {0}, {1}, ...
    (all pairwise compatible)."""
    return [ItemsetRecord.from_vector((i,), v) for i, v in enumerate(vectors)]


def shared_item_level(vectors):
    """Wrap raw vectors as 2-itemsets {0, i+1} sharing item 0 (all pairwise
    compatible, union size 3)."""
    return [ItemsetRecord.from_vector((0, i + 1), v) for i, v in enumerate(vectors)]


@dataclass
class PairwiseSweep:
    """What `pairwise_join` returns: the fields of `exact.PairSweep`, plus
    the buckets its `partners` reads."""

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


def pairwise_join(records, theta_count):
    """The reference candidate join, one pair at a time: each compatible pair
    meets in one bucket, the (l-1)-subset the two records share, and its
    union and co-support are formed in Python.  `exact.join_level` must
    agree with it on every count, every frequent union, every partner and
    every positive."""
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
    return PairwiseSweep(cpairs, fpairs, len(unions), records, buckets, positives, frequent)


def assert_same_join(records, theta_count):
    """`exact.join_level` against `pairwise_join`: every count, the same
    frequent unions (each given by a pair that forms it and ANDs to the
    reference pair's vector), every positive and every partner."""
    sweep, ref = join_level(records, theta_count), pairwise_join(records, theta_count)
    assert (sweep.candidate_pairs, sweep.frequent_pairs, sweep.distinct_candidates) == \
        (ref.candidate_pairs, ref.frequent_pairs, ref.distinct_candidates)
    assert sweep.frequent.keys() == ref.frequent.keys()
    for u, (i, j) in sweep.frequent.items():
        a, b = ref.frequent[u]
        assert union_if_compatible(records[i].items, records[j].items) == u
        assert records[i].vector & records[j].vector == records[a].vector & records[b].vector
    assert sweep.positives == ref.positives
    for i in range(len(records)):
        assert sweep.partners(i) == ref.partners(i)
    return sweep


def compatible(level, i):
    """Indices of the records of `level` that join with level[i], by the
    reference pairwise rule: the compatible set a query takes."""
    return {j for j, r in enumerate(level)
            if union_if_compatible(level[i].items, r.items) is not None}


def direct_verify(level, q):
    """The `verify` callable a query on `level` takes: q's co-support with
    record j, read from the two vectors on every call (no memo)."""
    return lambda j: co_support(level[j].vector, q.vector)


def random_db(rng, n_max=64, m_max=12, density_range=(0.2, 0.7)):
    n = int(rng.integers(8, n_max + 1))
    m = int(rng.integers(3, m_max + 1))
    density = float(rng.uniform(*density_range))
    hits = rng.random((m, n)) < density
    columns = {}
    for item in range(m):
        bits = np.flatnonzero(hits[item])
        if len(bits):
            columns[item] = BitVector.from_indices(n, bits.tolist())
    if not columns:
        columns[0] = BitVector.from_indices(n, [0])
    return TransactionDatabase(n=n, m=m, columns=columns)


def downward_closed(fis):
    """Structural anti-monotonicity check on a FrequentItemsetSet."""
    have = fis.item_tuples()
    for record in fis.all_records():
        if len(record.items) == 1:
            continue
        for drop in range(len(record.items)):
            sub = record.items[:drop] + record.items[drop + 1:]
            if sub not in have:
                return False
    return True
