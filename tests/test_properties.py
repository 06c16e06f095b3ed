"""Property-based differential tests: the array join against the pairwise
reference rule and the per-pair reference join, the Hamming mask tables
against sampled-bit keys, the level-wide union memo against direct
verification, the one-pass MinHash columns against minima over the padded
positions, and every variant against the brute-force oracle."""

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lshmine import exact
from lshmine.dataset import BitVector, ItemsetRecord, co_support
from lshmine.engine import VARIANTS, MiningConfig, accounting_check, lsh_apriori_mine
from lshmine.exact import (
    add_item,
    brute_force_mine,
    build_level,
    join_level,
    union_if_compatible,
)
from lshmine.hamming_lsh import HammingLshParams, build_index, query, verify_collisions
from lshmine.minhash_lsh import MinhashParams, build_sketch, sketch_query_column
from lshmine.transform import (
    PREPROCESS,
    QUERY,
    LevelContext,
    padded_bits_array,
    padded_one_positions,
)

from conftest import assert_same_join, db_from_rows, direct_verify, downward_closed

# derandomized, so the suite sees the same examples on every run
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def anded_level(n, itemsets, columns, theta_count):
    """A level of the given itemsets over n transactions, each with the AND
    of its items' columns (ints, bit j = transaction j), and a threshold."""
    records = []
    for s in itemsets:
        value = (1 << n) - 1
        for item in s:
            value &= columns[item]
        records.append(ItemsetRecord.from_vector(tuple(sorted(s)), BitVector(n, value)))
    return records, theta_count


@st.composite
def levels(draw):
    """A level of distinct l-itemsets (l in 1..4) over at most 10 items, each
    with the AND of its items' random columns, plus a support threshold."""
    size = draw(st.integers(1, 4))
    universe = draw(st.integers(size, 10))
    itemsets = draw(st.lists(st.sets(st.integers(0, universe - 1), min_size=size, max_size=size),
                             max_size=25, unique_by=frozenset))
    n = draw(st.integers(1, 12))
    columns = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=universe, max_size=universe))
    return anded_level(n, itemsets, columns, draw(st.integers(1, n)))


PAIRS = [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)]
# bit 64 sits alone in the last word when n = 65
WORD_EDGE = [(1 << 65) - 1, 1 << 64 | 1 << 63 | 0b1011, 1 << 64 | 0b111, 1 << 64 | 1 << 62]
# levels at the packed join's edges: a partial or exactly full last word,
# all-zero vectors, a single record, a threshold above every support
JOIN_EDGES = [
    anded_level(1, [(0,), (1,), (2,)], [1, 1, 0], 1),
    *(anded_level(n, PAIRS, [c & ((1 << n) - 1) for c in WORD_EDGE], 2) for n in (63, 64, 65)),
    anded_level(65, PAIRS, WORD_EDGE, 1),
    anded_level(8, [(0, 1), (0, 2), (1, 2)], [0, 0, 0], 1),
    anded_level(5, [(0, 1, 2)], [31, 31, 31], 1),
    anded_level(10, [(0,), (1,), (2,), (3,)], [0b1111, 0b11110, 0b1010101, 1023], 11),
]


@SETTINGS
@given(levels())
@example(JOIN_EDGES[0])
@example(JOIN_EDGES[1])
@example(JOIN_EDGES[2])
@example(JOIN_EDGES[3])
@example(JOIN_EDGES[4])
@example(JOIN_EDGES[5])
@example(JOIN_EDGES[6])
@example(JOIN_EDGES[7])
def test_join_matches_all_pairs_reference(level):
    records, theta_count = level
    assert_same_join(records, theta_count)
    m = len(records)
    compatible = {i: set() for i in range(m)}
    unions, frequent = set(), {}
    frequent_pairs = 0
    for i in range(m):
        for j in range(i + 1, m):
            u = union_if_compatible(records[i].items, records[j].items)
            if u is None:
                continue
            compatible[i].add(j)
            compatible[j].add(i)
            unions.add(u)
            vec = records[i].vector & records[j].vector
            if vec.popcount() >= theta_count:
                frequent_pairs += 1
                frequent[u] = vec

    sweep = join_level(records, theta_count)
    assert sweep.candidate_pairs == sum(len(c) for c in compatible.values()) // 2
    assert sweep.frequent_pairs == frequent_pairs
    assert sweep.distinct_candidates == len(unions)
    assert [(r.items, r.vector) for r in build_level(records, sweep.frequent, theta_count)] \
        == sorted(frequent.items())
    for i in range(m):
        partners = sweep.partners(i)
        assert sorted(partners) == sorted(compatible[i])
        for j, y in partners.items():
            assert add_item(records[i].items, y) == \
                union_if_compatible(records[i].items, records[j].items)
        assert sweep.positives[i] == {j for j in compatible[i]
                                      if (records[i].vector & records[j].vector).popcount()
                                      >= theta_count}


def test_join_crosses_every_chunk_boundary(monkeypatch):
    # one pair per co-support chunk: every chunk boundary of the packed
    # join falls between two pairs
    monkeypatch.setattr(exact, "PAIR_CHUNK_WORDS", 1)
    rng = np.random.default_rng(9)
    columns = [int(c) for c in rng.integers(0, 1 << 62, size=6)]
    wide = [c | c << 62 | c << 124 for c in columns]   # n = 190: three words
    for records, theta_count in [*JOIN_EDGES,
                                 anded_level(190, combinations(range(6), 2), wide, 40),
                                 anded_level(190, combinations(range(6), 3), wide, 20)]:
        assert_same_join(records, theta_count)


@st.composite
def singleton_levels(draw):
    """Random singleton records (empty ones included) and a level context
    whose alpha_count is at least their heaviest weight."""
    n = draw(st.integers(1, 10))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    records = [ItemsetRecord.from_vector((i,), BitVector(n, v)) for i, v in enumerate(values)]
    alpha_count = draw(st.integers(max(1, *(v.bit_count() for v in values)), n))
    ctx = LevelContext(n=n, m_l=len(records), alpha_count=alpha_count,
                       theta_count=draw(st.integers(1, alpha_count)))
    return records, ctx


@st.composite
def sampled_levels(draw):
    """Random singleton records, a level context for them and (L, k)
    projection rows in which every row repeats at least one position."""
    records, ctx = draw(singleton_levels())
    k = draw(st.integers(2, 6))
    position = st.integers(0, ctx.padded_length - 1)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = draw(st.lists(position, min_size=1, max_size=k - 1))
        repeats = draw(st.lists(st.sampled_from(drawn), min_size=k - len(drawn),
                                max_size=k - len(drawn)))
        rows.append(draw(st.permutations(drawn + repeats)))
    return records, ctx, np.array(rows, dtype=np.int64)


@SETTINGS
@given(sampled_levels(), st.integers(1, 6))
def test_hamming_masks_group_as_sampled_bits(case, budget):
    # reference: a record's key in table t is the padded vector's bits at the
    # sampled positions, repeats included, as bytes
    records, ctx, projections = case
    L, k = projections.shape
    params = HammingLshParams(rho=0.5, k=k, L=L, early_exit_budget=budget)
    index = build_index(records, params, ctx, seed=0, projections=projections)
    reference = []
    for row in projections:
        table = {}
        for idx, r in enumerate(records):
            key = padded_bits_array(r.vector, ctx, PREPROCESS)[row].tobytes()
            table.setdefault(key, []).append(idx)
        reference.append(table)
    assert [list(t.values()) for t in index.tables] == [list(t.values()) for t in reference]
    for qi, q in enumerate(records):
        bits = padded_bits_array(q.vector, ctx, QUERY)
        buckets = [table.get(bits[row].tobytes()) for table, row in zip(reference, projections)]
        partners = set(range(len(records))) - {qi}
        verify = direct_verify(records, q)
        assert query(index, q, ctx, partners, verify) == \
            verify_collisions(buckets, partners, verify, ctx, budget)


@SETTINGS
@given(levels(), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_union_memo_changes_no_query(level, k, L, budget, early_exit, seed):
    # one verify shared across the level, reading each union's co-support
    # once as the engine does, gives every query the same result as a fresh
    # verify that reads every collision
    records, theta_count = level
    n = records[0].vector.length if records else theta_count
    ctx = LevelContext(n=n, m_l=len(records), theta_count=theta_count,
                       alpha_count=max([theta_count, *(r.support for r in records)]))
    index = build_index(records, HammingLshParams(rho=0.5, k=k, L=L, early_exit_budget=budget),
                        ctx, seed)
    sweep = join_level(records, theta_count)
    support = {}

    def shared(i):
        partners = sweep.partners(i)

        def verify(j):
            u = add_item(records[i].items, partners[j])
            if u not in support:
                support[u] = co_support(records[j].vector, records[i].vector)
            return support[u]
        return verify

    for i, q in enumerate(records):
        partners = sweep.partners(i)
        assert index.probe(q, ctx, partners, shared(i), early_exit) == \
            index.probe(q, ctx, partners, direct_verify(records, q), early_exit)


def sketch_level(patterns, alpha_count):
    """Singleton records from 0/1 strings and their level context."""
    records = [ItemsetRecord.from_vector((i,), BitVector.from01(p)) for i, p in enumerate(patterns)]
    return records, LevelContext(n=len(patterns[0]), m_l=len(records), alpha_count=alpha_count,
                                 theta_count=1)


@SETTINGS
@given(singleton_levels(), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(sketch_level(["1101"], 3), 1, 0)                    # one record, one row, |v| == alpha
@example(sketch_level(["1101", "0101", "0000"], 3), 1, 5)    # alpha, alpha-1, empty
@example(sketch_level(["110100", "100100", "111000"], 3), 64, 9)
def test_sketch_columns_are_padded_minima(level, rows, seed):
    # reference: each column is the minimum of the sketch's own permutations
    # over the padded vector's one positions
    records, ctx = level
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=0.5)
    sketch = build_sketch(records, params, ctx, seed)
    for i, r in enumerate(records):
        for role, columns in ((PREPROCESS, sketch.columns), (QUERY, sketch.query_columns)):
            expected = sketch.perms[:, padded_one_positions(r.vector, ctx, role)].min(axis=1)
            assert np.array_equal(columns[:, i], expected)
        assert np.array_equal(sketch_query_column(sketch, r), sketch.query_columns[:, i])


@st.composite
def databases(draw):
    n = draw(st.integers(4, 24))
    m = draw(st.integers(2, 7))
    rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=m),
                         min_size=n, max_size=n))
    return db_from_rows(rows), draw(st.sampled_from([0.2, 0.3, 0.5]))


def joined_from_level_below(fis):
    """Every emitted (l+1)-itemset is the union of two emitted l-itemsets."""
    have = fis.item_tuples()
    return all(sum(sub in have for sub in combinations(r.items, len(r.items) - 1)) >= 2
               for r in fis.all_records() if len(r.items) > 1)


@SETTINGS
@given(databases(), st.integers(0, 3))
def test_variants_against_oracle(case, seed):
    db, theta = case
    oracle = brute_force_mine(db, theta).as_dict()
    for variant in VARIANTS:
        lsh = variant != "exact"
        config = MiningConfig(theta=theta, variant=variant, epsilon=0.5 if lsh else None,
                              delta=0.1 if lsh else None, seed=seed, mask_dim_cap=12)
        report = lsh_apriori_mine(db, config)
        found = report.itemsets.as_dict()
        theta_count = report.itemsets.theta_count
        assert all(support >= theta_count and oracle.get(items) == support
                   for items, support in found.items())
        assert all(accounting_check(row, db.n) for row in report.levels)
        assert joined_from_level_below(report.itemsets)
        if variant in ("exact", "covering"):
            assert found == oracle
            assert downward_closed(report.itemsets)


@SETTINGS
@given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_ones_matches_bit_loop(case):
    n, value = case
    assert BitVector(n, value).ones() == [j for j in range(n) if (value >> j) & 1]


@SETTINGS
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, n), st.sampled_from([PREPROCESS, QUERY]))))
def test_padded_one_positions_match_layout(case):
    # the one positions of P(v) and Q(v) by the layout written out: v's own
    # bits, then alpha_count - |v| ones from offset n (P) or n + alpha_count (Q)
    n, value, extra, role = case
    w = value.bit_count()
    ctx = LevelContext(n=n, m_l=1, alpha_count=min(n, max(w, 1) + extra), theta_count=1)
    offset = n if role == PREPROCESS else n + ctx.alpha_count
    expected = [j for j in range(n) if (value >> j) & 1] + \
        list(range(offset, offset + ctx.alpha_count - w))
    assert padded_one_positions(BitVector(n, value), ctx, role).tolist() == expected


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=40))
def test_transactions_round_trip_rows(rows):
    assert db_from_rows(rows).transactions() == [sorted(set(row)) for row in rows]
