from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

import numpy as np
import pytest

from lshmine.dataset import (
    BitVector,
    DatasetError,
    ItemsetRecord,
    TransactionDatabase,
    co_support,
)
from lshmine.covering_lsh import FINGERPRINT_SEED
from lshmine.exact import Level, join_level, union_if_compatible
from lshmine.transform import (
    PREPROCESS,
    QUERY,
    LevelContext,
    pad_preprocess,
    pad_query,
    padded_bits_array,
)


def record(items, vector):
    """The record of `items` with transaction vector `vector`."""
    return ItemsetRecord(tuple(items), vector, vector.popcount())


def add_item(items, item):
    """The union of a sorted itemset and the item its join partner adds."""
    return tuple(sorted((*items, item)))


class ColumnDatabase(TransactionDatabase):
    """A database given as one BitVector per occurring item, packed into the
    library's matrix.  It keeps the vectors as `columns`: the reference
    that tests check the packed rows and the mined vectors against."""

    def __init__(self, n, m, columns):
        items = sorted(columns)
        words = (n + 63) // 64
        packed = b"".join(columns[item].value.to_bytes(8 * words, "little") for item in items)
        super().__init__(n, m, np.array(items, dtype=np.int64),
                         np.frombuffer(packed, dtype="<u8").reshape(len(items), words))
        object.__setattr__(self, "columns", columns)


def column(db, item):
    """The transaction vector of `item`, read off the database's packed row."""
    k = int(np.searchsorted(db.items, item))
    assert k < len(db.items) and db.items[k] == item, f"item {item} does not occur"
    return BitVector(db.n, int.from_bytes(db.packed[k].tobytes(), "little"))


def same_database(a, b):
    return (a.n, a.m) == (b.n, b.m) and np.array_equal(a.items, b.items) \
        and np.array_equal(a.packed, b.packed)


def reference_load_transactions(path):
    """The per-item Python-int FIMI loader: every line parsed into a list of
    ints, then one bytearray per item.  The reference the packed loader is
    checked against, error messages included."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not an ASCII FIMI file: {exc}") from None

    rows: list[list[int]] = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        row = []
        for tok in tokens:
            if not all("0" <= c <= "9" for c in tok):   # int() also reads -0, +5 and 1_0
                raise DatasetError(f"{path}:{lineno}: non-integer token {tok!r}")
            item = int(tok)
            if item >= 1 << 63:
                raise DatasetError(f"{path}:{lineno}: item id {item} is 2**63 or above")
            row.append(item)
        rows.append(row)

    if not rows:
        raise DatasetError("empty database")

    n = len(rows)
    m = 1 + max(max(row) for row in rows if row)
    bits = defaultdict(lambda: bytearray((n + 7) // 8))   # row j: bit j % 8 of byte j // 8
    for j, row in enumerate(rows):
        byte, bit = j >> 3, 1 << (j & 7)
        for item in row:
            bits[item][byte] |= bit
    columns = {item: BitVector(n, int.from_bytes(b, "little")) for item, b in bits.items()}
    return ColumnDatabase(n=n, m=m, columns=columns)


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
    return ColumnDatabase(n=n, m=m, columns=columns)


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


def column_records(hits, itemsets):
    """Records for `itemsets` over a boolean (n, m) hit matrix: each vector
    is the AND of its items' columns."""
    n = hits.shape[0]
    records = []
    for items in itemsets:
        rows = hits[:, list(items)].all(axis=1)
        value = int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")
        records.append(record(tuple(items), BitVector(n, value)))
    return records


def singleton_level(vectors):
    """Wrap raw vectors as a level of singleton records {0}, {1}, ...
    (all pairwise compatible)."""
    return [record((i,), v) for i, v in enumerate(vectors)]


def shared_item_level(vectors):
    """Wrap raw vectors as 2-itemsets {0, i+1} sharing item 0 (all pairwise
    compatible, union size 3)."""
    return [record((0, i + 1), v) for i, v in enumerate(vectors)]


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


def partners_and_positives(sweep, m):
    """Per record of a join of m records, read off its ordered pairs: the
    compatible records, each mapped to the item it adds, and those whose
    union the join found frequent."""
    frequent = np.tile(sweep.pair_frequent, 2).tolist()
    partners = [{} for _ in range(m)]
    positives = [set() for _ in range(m)]
    for q, a, y, f in zip(*(v.tolist() for v in every_pair(sweep)), frequent):
        partners[q][a] = y
        if f:
            positives[q].add(a)
    return partners, positives


def assert_same_join(records, theta_count):
    """`exact.join_level` against `pairwise_join`: every count, the same
    frequent unions (each given by a pair that forms it and ANDs to the
    reference pair's vector), every positive and every partner."""
    sweep, ref = join_level(Level.of(records), theta_count), pairwise_join(records, theta_count)
    assert (sweep.candidate_pairs, sweep.frequent_pairs, sweep.distinct_candidates) == \
        (ref.candidate_pairs, ref.frequent_pairs, ref.distinct_candidates)
    unions = np.stack(sweep.unions(np.flatnonzero(sweep.pair_frequent)))
    frequent = {add_item(records[i].items, y): (i, j) for i, j, y in unions.T.tolist()}
    assert len(frequent) == unions.shape[1]
    assert frequent.keys() == ref.frequent.keys()
    for u, (i, j) in frequent.items():
        a, b = ref.frequent[u]
        assert union_if_compatible(records[i].items, records[j].items) == u
        assert records[i].vector & records[j].vector == records[a].vector & records[b].vector
    partners, positives = partners_and_positives(sweep, len(records))
    assert positives == ref.positives
    for i in range(len(records)):
        assert partners[i] == ref.partners(i)
    return sweep


def reference_build_level(records, unions, theta_count):
    """The next level one union at a time over Python-int vectors: each
    union (mapped to a pair of `records` indices that forms it) gets the
    pair's AND vector, kept iff it meets theta_count, sorted by items.
    `exact.build_level` must build the same records."""
    level = []
    for u, (i, j) in unions.items():
        vector = records[i].vector & records[j].vector
        if vector.popcount() >= theta_count:
            level.append(record(u, vector))
    level.sort(key=lambda r: r.items)
    return level


def direct_verify(level, q):
    """The `verify` callable a per-record probe of `level` takes: q's
    co-support with record j, read from the two vectors on every call (no
    memo)."""
    return lambda j: co_support(level[j].vector, q.vector)


def level_pairs(level):
    """The join's compatible ordered pairs of `level`, which a level screen takes."""
    return join_level(Level.of(level), 1)


def every_pair(sweep):
    """q, a and y of every ordered pair of the join `sweep`, in pair order:
    read off the sweep once, then kept on it (read-only) for later calls."""
    memo = vars(sweep)
    if "every_pair" not in memo:
        memo["every_pair"] = sweep.members(np.arange(len(sweep)))
        for v in memo["every_pair"]:
            v.flags.writeable = False
    return memo["every_pair"]


def pair_verify(level, pairs):
    """The batched `verify` a level screen takes: the co-support of each
    selected pair, read from the two vectors on every call (no memo)."""
    q, a, _ = every_pair(pairs)
    return lambda sel: np.array([co_support(level[i].vector, level[j].vector) for i, j in
                                 zip(q[sel].tolist(), a[sel].tolist())], dtype=np.int64)


@dataclass
class QueryView:
    """One query record's part of a level screen, in the per-record probe's
    terms: its found partners and its verified partners (each with its
    co-support) in visit order, its early exit, and the partners it
    collided with, each with its first colliding table."""

    partners: list[int]
    verified: dict[int, int]
    early_exit: bool
    collided: dict[int, int]

    @property
    def inspections(self) -> int:
        return len(self.verified)


def query_view(pairs, res, qi, tables):
    """Query record qi's part of a level screen result `res` over `pairs`,
    from an index with `tables` tables."""
    q, a, _ = every_pair(pairs)
    mine = q[res.verified] == qi
    verified = dict(zip(a[res.verified[mine]].tolist(), res.co[mine].tolist()))
    partners = a[res.partners[q[res.partners] == qi]].tolist()
    hit = (q == qi) & (res.first < tables)
    collided = dict(zip(a[hit].tolist(), res.first[hit].tolist()))
    return QueryView(partners, verified, bool(res.exited[qi]), collided)


@dataclass
class SketchView:
    """One query record's part of a MinHash level query: its approved and
    rejected partners, each with its estimated Jaccard similarity, by
    partner index."""

    approved: dict[int, float]
    rejected: dict[int, float]

    @property
    def partners(self) -> list[int]:
        return list(self.approved)


def sketch_view(pairs, res, qi, rows):
    """Query record qi's part of a MinHash level query result `res`."""
    q, a, _ = every_pair(pairs)
    views = []
    for chosen in (res.approved, res.rejected):
        mine = chosen[q[chosen] == qi]
        views.append(dict(sorted(zip(a[mine].tolist(), (res.matches[mine] / rows).tolist()))))
    return SketchView(*views)


# The per-record screen the level screen replaced, kept as its reference:
# dict tables keyed by P(a) & mask, one probe per query record that walks
# its buckets table by table, and the engine loop that ran it per record.

@dataclass
class ProbeResult:
    partners: list[int]                          # FI_q as record indices, in discovery order
    verified: dict[int, int] = field(default_factory=dict)   # idx -> co_support, as inspected
    collision_counts: dict[int, int] = field(default_factory=dict)  # compatible idx -> per-table hits
    early_exit: bool = False

    @property
    def inspections(self) -> int:   # support verifications: one per distinct partner
        return len(self.verified)


def projection_masks(projections):
    """Each row of sampled positions as the mask with those bits set, ORed
    so that a position sampled twice sets its bit once."""
    return [reduce(or_, (1 << p for p in row), 0) for row in np.asarray(projections).tolist()]


def reference_tables(level, masks, ctx: LevelContext):
    """One hash table per mask: record a sits in table t under P(a) & masks[t]."""
    padded = [pad_preprocess(r.vector, ctx).bits.value for r in level]
    tables = []
    for mask in masks:
        table: dict[int, list[int]] = {}
        for idx, p in enumerate(padded):
            table.setdefault(p & mask, []).append(idx)
        tables.append(table)
    return tables


def reference_covering_index(level: Level, family, ctx: LevelContext):
    """The covering keys built from the dense layout: both roles' padded
    vectors as (padded_length x records) bit rows, one column per record's
    `transform.padded_bits_array`, and each vector's fingerprints by one
    scatter of its ones into classes and mask_dim butterfly steps.  Returns
    p_keys and q_keys as `covering_lsh.build_index` lays them out."""
    r = np.random.default_rng(FINGERPRINT_SEED).integers(
        0, np.iinfo(np.uint64).max, size=ctx.padded_length, dtype=np.uint64, endpoint=True)
    keys = []
    for role in (PREPROCESS, QUERY):
        rows = np.array([padded_bits_array(rec.vector, ctx, role) for rec in level],
                        dtype=np.uint8).reshape(-1, ctx.padded_length).T
        keys.append(butterfly_fingerprints(rows, family.phi, family.mask_dim, r)[:, :, None])
    return keys


def butterfly_fingerprints(rows, phi, mask_dim, r):
    """(records, 2^mask_dim - 1): per column of the bit matrix `rows` and
    nonzero v, the XOR of r[i] over its ones with <phi(i), v> odd.  c[u],
    the XOR over the ones with phi(i) = u, is one scatter; the XOR of c[u]
    over the u with <u, v> odd is one butterfly step per bit of v."""
    records, size = rows.shape[1], 1 << mask_dim
    pos, rec = np.nonzero(rows)
    c = np.zeros((records, size), dtype=np.uint64)
    np.bitwise_xor.at(c.reshape(-1), rec * size + phi[pos], r[pos])
    even, odd = c, np.zeros_like(c)
    half = 1
    while half < size:   # index bit `half` turns from a bit of u into a bit of v
        e = even.reshape(records, -1, 2, half)
        o = odd.reshape(records, -1, 2, half)
        even = np.stack([e[:, :, 0] ^ e[:, :, 1], e[:, :, 0] ^ o[:, :, 1]], axis=2)
        odd = np.stack([o[:, :, 0] ^ o[:, :, 1], o[:, :, 0] ^ e[:, :, 1]], axis=2)
        even, odd = even.reshape(records, size), odd.reshape(records, size)
        half *= 2
    return odd[:, 1:]


def reference_probe(tables, masks, q, ctx, compatible, verify, early_exit_budget):
    """Verify the `compatible` records in Q(q)'s bucket of each table in
    turn, under the early-exit budget if one is given."""
    qval = pad_query(q.vector, ctx).bits.value
    buckets = (table.get(qval & mask) for table, mask in zip(tables, masks))
    return verify_collisions(buckets, compatible, verify, ctx, early_exit_budget)


def verify_collisions(buckets, compatible, verify, ctx: LevelContext,
                      early_exit_budget: int | None = None) -> ProbeResult:
    """Verify the compatible records colliding with a query, bucket by bucket.

    `buckets` yields the query's bucket (a list of record indices, or None)
    in each table, lazily, so an early exit skips the remaining keys.  Only
    collisions in `compatible` (the indices of the query's join partners)
    are verified, each once, by `verify(idx)`: the co-support of the query
    with record idx.  The rest cost nothing.  With a budget, the query
    stops once that many distinct verified candidates, counted across
    buckets, found nothing similar.
    """
    result = ProbeResult(partners=[])
    for bucket in buckets:
        if not bucket:
            continue
        for idx in bucket:
            if idx not in compatible:
                continue
            result.collision_counts[idx] = result.collision_counts.get(idx, 0) + 1
            if idx in result.verified:
                continue
            co = verify(idx)
            result.verified[idx] = co
            if co >= ctx.theta_count:
                result.partners.append(idx)
            if (early_exit_budget is not None and not result.partners
                    and len(result.verified) >= early_exit_budget):
                result.early_exit = True
                return result
    return result


def reference_minhash_query(sketch, qi, params, compatible) -> SketchView:
    """Sketch-only screening of query record qi's `compatible` indices, one
    query at a time."""
    result = SketchView(approved={}, rejected={})
    if not compatible:
        return result
    qcol = sketch.query_columns[:, qi]
    idx = sorted(compatible)
    matches = np.count_nonzero(sketch.columns[:, idx] == qcol[:, None], axis=0)
    # integer comparison against rows*threshold avoids float-boundary flapping
    need = params.accept_threshold * params.rows - 1e-9
    for i, hits in zip(idx, matches.tolist()):
        est = hits / params.rows
        if hits >= need:
            result.approved[i] = est
        else:
            result.rejected[i] = est
    return result


def reference_screen(current, ref, query):
    """The engine's per-record LSH level loop over `ref = pairwise_join(...)`:
    `query(i, q, compatible, verify)` per record, each distinct union read
    once per level.  Returns the found unions (each with its first pair),
    the distinct unions read, TN, FP and every query's result."""
    support: dict[int, int] = {}   # union as an item bitmask -> co-support, read once per level
    found: dict[int, tuple[tuple[int, ...], tuple[int, int]]] = {}   # bitmask -> (union, pair)
    tn = fp = 0
    results = []
    for i, q in enumerate(current):
        compatible = ref.partners(i)
        qmask = sum(1 << x for x in q.items)
        verified: set[int] = set()

        def verify(j):   # q's co-support with record j, read once per union per level
            verified.add(j)
            u = qmask | 1 << compatible[j]
            co = support.get(u)
            if co is None:
                co = support[u] = co_support(current[j].vector, q.vector)
            return co

        res = query(i, q, compatible, verify)
        results.append(res)
        for j in res.partners:
            verify(j)
            u = qmask | 1 << compatible[j]
            if u not in found:
                found[u] = add_item(q.items, compatible[j]), (i, j)
        negatives = compatible.keys() - ref.positives[i]
        hit = len(negatives & verified)
        fp += hit
        tn += len(negatives) - hit
    return dict(found.values()), len(support), tn, fp, results


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
    return ColumnDatabase(n=n, m=m, columns=columns)


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
