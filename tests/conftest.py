import numpy as np
import pytest

from lshmine.dataset import BitVector, ItemsetRecord, TransactionDatabase, co_support
from lshmine.exact import union_if_compatible


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
