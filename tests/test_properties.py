"""Property-based differential tests: the array join against the pairwise
reference rule and the per-pair reference join, the array next-level
builder against the Python-int one, the closed-form pair
numbering against the join's own pairing step, the Hamming tables against
sampled-bit keys, the level screens of all three LSH variants against the
per-record probes they replaced, the sorted first-table screen against the
pairwise one, the level-wide union memo against direct verification, the
one-pass MinHash columns and the candidate own minima against minima over
the padded or own positions, the closed-form covering build against the
dense padded layout, the covering family's one size rule, every variant
against the brute-force oracle and against the database's columns, and
the packed loader against the per-item Python-int one."""

import copy
import math
import tempfile
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lshmine import covering_lsh, dataset, engine, exact, hamming_lsh, minhash_lsh, transform
from lshmine.dataset import BitVector, DatasetError, co_support, load_transactions
from lshmine.engine import VARIANTS, MiningConfig, accounting_check, lsh_apriori_mine
from lshmine.exact import (
    Level,
    brute_force_mine,
    build_level,
    join_level,
    union_if_compatible,
)
from lshmine.covering_lsh import CoveringParams, build_family
from lshmine.covering_lsh import build_index as covering_build_index
from lshmine.covering_lsh import query as covering_query
from lshmine.hamming_lsh import HammingLshParams, build_index, query
from lshmine.minhash_lsh import MinhashParams, build_sketch
from lshmine.minhash_lsh import query as minhash_query
from lshmine.transform import (
    PREPROCESS,
    QUERY,
    DegenerateLevel,
    LevelContext,
    padded_bits_array,
    padded_one_positions,
)

from conftest import (
    TOY_ROWS,
    ColumnDatabase,
    add_item,
    assert_same_join,
    db_from_rows,
    direct_verify,
    downward_closed,
    every_pair,
    level_pairs,
    pair_verify,
    pairwise_join,
    partners_and_positives,
    projection_masks,
    query_view,
    record,
    reference_build_level,
    reference_covering_index,
    reference_load_transactions,
    reference_minhash_query,
    reference_probe,
    reference_sketch,
    reference_tables,
    sketch_view,
    verify_collisions,
)

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
        records.append(record(tuple(sorted(s)), BitVector(n, value)))
    return records, theta_count


@st.composite
def levels(draw):
    """A level of distinct l-itemsets (l in 1..4) over at most 10 items, in
    item order, each with the AND of its items' random columns, plus a
    support threshold."""
    size = draw(st.integers(1, 4))
    universe = draw(st.integers(size, 10))
    itemsets = sorted(draw(st.lists(st.sets(st.integers(0, universe - 1), min_size=size,
                                            max_size=size),
                                    max_size=25, unique_by=frozenset)), key=sorted)
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
# a selection of ordered pairs, taken modulo the join's: latest first, so a
# union's second-half pair comes before its first-half one, and repeats
PICKS = [*range(19, -1, -1), 3, 3]


def band(start, width, span, offset=0):
    """`width` ones from bit offset + start on, wrapping round within bits
    offset .. offset + span - 1."""
    return sum(1 << (offset + (start + k) % span) for k in range(width))


# one word (ragged, then full), a one-bit ragged tail, two full words, many words
SWEEP_LENGTHS = (40, 64, 65, 130, 700)


@st.composite
def sweep_levels(draw):
    """A level of 1- or 2-itemsets over n in SWEEP_LENGTHS, in item order,
    whose supports sit within a few ones of the threshold.  Each record holds one band of
    ones in word 0 and one past it, of drawn widths and starts, so the
    first-word bound settles some pairs either way and leaves others open.
    The bands start a few bits apart, so that records share most of them.
    The vectors are drawn, not ANDed from item columns, so every 2-itemset
    holds item 0 (as in `banded_level`): each union then has one forming
    pair, whose AND is its vector, as every forming pair's is in a mined
    level."""
    n = draw(st.sampled_from(SWEEP_LENGTHS))
    size = draw(st.integers(1, 2))
    others = draw(st.lists(st.integers(0, 5 if size == 1 else 14), min_size=2, max_size=15,
                           unique=True))
    itemsets = [(x,) if size == 1 else (0, x + 1) for x in sorted(others)]
    head = min(n, 64)
    theta_count = draw(st.one_of(st.integers(1, head), st.integers(1, n)))
    starts = draw(st.integers(0, head - 1)), draw(st.integers(0, max(0, n - head - 1)))
    shift = st.integers(0, 8)
    records = []
    for items in itemsets:
        ones = min(n, max(0, theta_count + draw(st.integers(-2, 3))))
        first = draw(st.integers(max(0, ones - (n - head)), min(ones, head)))   # ones in word 0
        value = band(starts[0] + draw(shift), first, head)
        if n > head:
            value |= band(starts[1] + draw(shift), ones - first, n - head, head)
        records.append(record(tuple(sorted(items)), BitVector(n, value)))
    return records, theta_count


def banded_level(n, bands, theta_count, size=1):
    """A level over n transactions whose record r holds ones at the bit
    ranges bands[r], each (start, stop): item r at l = 1, items (0, r + 1)
    at l = 2, so every two records are compatible."""
    records = [record((r,) if size == 1 else (0, r + 1),
                      BitVector(n, sum(band(start, stop - start, n) for start, stop in ranges)))
               for r, ranges in enumerate(bands)]
    return records, theta_count


# at theta 40: records 0 and 1 hold their ones in word 0 alone and share 42
# of them; records 2..4 hold 14 ones in word 0 and 27, 29 and 30 past it,
# of which 2 and 3 share 27
EVERY_OUTCOME = [[(0, 45)], [(2, 44)], [(50, 91)], [(50, 93)], [(50, 64), (100, 130)]]
SWEEP_EDGES = [
    banded_level(130, EVERY_OUTCOME, 40),
    banded_level(130, EVERY_OUTCOME, 40, size=2),
    banded_level(65, [[(0, 3)], [(1, 4)], [(60, 65)], [(62, 65)]], 3),   # bit 64 decides
    banded_level(64, EVERY_OUTCOME[:3], 40),                              # one full word
    banded_level(40, [[(0, 30)], [(5, 35)], [(10, 40)]], 25),             # one ragged word
    banded_level(700, [[(0, 100)], [(50, 150)], [(600, 700)]], 30),      # every rest >= theta
]


@SETTINGS
@given(st.one_of(levels(), sweep_levels()), st.lists(st.integers(0, 1 << 20), max_size=40))
@example(JOIN_EDGES[0], PICKS)
@example(JOIN_EDGES[1], PICKS)
@example(JOIN_EDGES[2], PICKS)
@example(JOIN_EDGES[3], PICKS)
@example(JOIN_EDGES[4], PICKS)
@example(JOIN_EDGES[5], PICKS)
@example(JOIN_EDGES[6], PICKS)
@example(JOIN_EDGES[7], PICKS)
@example(SWEEP_EDGES[0], PICKS)
@example(SWEEP_EDGES[1], PICKS)
@example(SWEEP_EDGES[2], PICKS)
@example(SWEEP_EDGES[3], PICKS)
@example(SWEEP_EDGES[4], PICKS)
@example(SWEEP_EDGES[5], PICKS)
def test_join_matches_all_pairs_reference(level, picks):
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

    sweep = join_level(Level.of(records), theta_count)
    assert sweep.candidate_pairs == sum(len(c) for c in compatible.values()) // 2
    assert sweep.frequent_pairs == frequent_pairs
    assert sweep.distinct_candidates == len(unions)
    assert [(r.items, r.vector) for r in
            build_level(Level.of(records), *sweep.unions(np.flatnonzero(sweep.pair_frequent)),
                        theta_count)] \
        == sorted(frequent.items())
    # `unions` of a drawn selection, read off the filings, then gathered:
    # each distinct union once, in item order, by the first pair of the
    # selection that forms it
    sel = np.array(picks if len(sweep) else [], dtype=np.intp) % max(1, len(sweep))
    chosen = sweep.unions(sel)
    first = {}
    for q, a in zip(*(v[sel].tolist() for v in every_pair(sweep)[:2])):
        first.setdefault(union_if_compatible(records[q].items, records[a].items), (q, a))
    q, a, y = (v.tolist() for v in chosen)
    formed = [add_item(records[i].items, x) for i, x in zip(q, y)]
    assert formed == sorted(first)
    assert list(zip(q, a)) == [first[u] for u in formed]
    assert all(np.array_equal(u, v) for u, v in zip(sweep.unions(sel), chosen))
    all_partners, positives = partners_and_positives(sweep, m)
    for i in range(m):
        partners = all_partners[i]
        assert sorted(partners) == sorted(compatible[i])
        for j, y in partners.items():
            assert add_item(records[i].items, y) == \
                union_if_compatible(records[i].items, records[j].items)
        assert positives[i] == {j for j in compatible[i]
                                if (records[i].vector & records[j].vector).popcount()
                                >= theta_count}


@SETTINGS
@given(levels())
@example(JOIN_EDGES[0])
@example(JOIN_EDGES[4])
@example(JOIN_EDGES[6])
def test_pair_numbering_round_trips(level):
    # `members` reads every pair as the join's own pairing step lists it,
    # and `index` numbers each pair from its two filings, both ways round
    records, theta_count = level
    pairs = join_level(Level.of(records), theta_count)
    owner, item, end = pairs.filings
    first, second = exact._filing_pairs(end)
    half = pairs.candidate_pairs
    q, a, y = (v.tolist() for v in pairs.members(np.arange(len(pairs))))
    assert (q[:half], a[:half], y[:half]) == \
        (owner[first].tolist(), owner[second].tolist(), item[second].tolist())
    assert (q[half:], a[half:], y[half:]) == \
        (owner[second].tolist(), owner[first].tolist(), item[first].tolist())
    assert pairs.index(first, second).tolist() == list(range(half))
    assert pairs.index(second, first).tolist() == list(range(half, 2 * half))


def test_join_crosses_every_chunk_boundary(monkeypatch):
    # one pair per co-support chunk: every chunk boundary of the packed
    # join falls between two pairs
    monkeypatch.setattr(exact, "PAIR_CHUNK_WORDS", 1)
    rng = np.random.default_rng(9)
    columns = [int(c) for c in rng.integers(0, 1 << 62, size=6)]
    wide = [c | c << 62 | c << 124 for c in columns]   # n = 190: three words
    for records, theta_count in [*JOIN_EDGES, *SWEEP_EDGES,
                                 anded_level(190, combinations(range(6), 2), wide, 40),
                                 anded_level(190, combinations(range(6), 3), wide, 20)]:
        assert_same_join(records, theta_count)


def candidate_unions(records, picked):
    """(i, j, y) of the given ordered pairs of the join of `records`, the
    first pair of each union only: distinct candidate unions, as an LSH
    level hands them to `build_level`."""
    sweep = join_level(Level.of(records), 1)
    picked = np.asarray(picked, dtype=np.int64)
    _, at = np.unique(sweep.union(picked), return_index=True)
    return sweep.members(picked[np.sort(at)])


@st.composite
def build_cases(draw):
    """A level, a threshold, distinct candidate unions of it (each by a
    drawn ordered pair that forms it) and whether each chunk holds one
    word."""
    records, theta_count = draw(levels())
    pairs = len(level_pairs(records))
    picked = draw(st.lists(st.integers(0, pairs - 1), unique=True)) if pairs else []
    return records, theta_count, candidate_unions(records, picked), draw(st.booleans())


def reference_next_level(records, theta_count, i, j, y):
    """`conftest.reference_build_level` of the distinct unions (i, j, y)."""
    unions = {add_item(records[q].items, x): (q, a)
              for q, a, x in zip(i.tolist(), j.tolist(), y.tolist())}
    assert len(unions) == len(i)
    return reference_build_level(records, unions, theta_count)


def every_union(level, one_word_chunks=False):
    """A build case of every distinct union of `level`."""
    records, theta_count = level
    return (records, theta_count, candidate_unions(records, range(len(level_pairs(records)))),
            one_word_chunks)


WIDE_COLUMNS = [c | c << 62 | c << 124 for c in (0b1011 << 40 | 7, (1 << 62) - 1, 0b111 << 59)]
BUILD_EDGES = [
    *(every_union(JOIN_EDGES[k]) for k in range(4)),     # n = 1, 63, 64, 65
    every_union(JOIN_EDGES[6]),                           # one record: no candidate
    JOIN_EDGES[3] + (candidate_unions(JOIN_EDGES[3][0], []), False),   # none picked
    every_union(JOIN_EDGES[7]),                           # every union below threshold
    every_union(JOIN_EDGES[3], one_word_chunks=True),
    every_union(anded_level(190, [(0,), (1,), (2,)], WIDE_COLUMNS, 3), True),   # three words
]


@SETTINGS
@given(build_cases())
@example(BUILD_EDGES[0])
@example(BUILD_EDGES[1])
@example(BUILD_EDGES[2])
@example(BUILD_EDGES[3])
@example(BUILD_EDGES[4])
@example(BUILD_EDGES[5])
@example(BUILD_EDGES[6])
@example(BUILD_EDGES[7])
@example(BUILD_EDGES[8])
def test_build_level_matches_int_reference(case):
    # the array step against the Python-int one it replaced: the same
    # records in the same order, and the same packed words
    records, theta_count, (i, j, y), one_word_chunks = case
    level = Level.of(records)
    with pytest.MonkeyPatch.context() as patch:
        if one_word_chunks:   # one pair per co-support chunk
            patch.setattr(exact, "PAIR_CHUNK_WORDS", 1)
        nxt = build_level(level, i, j, y, theta_count)
    expected = reference_next_level(records, theta_count, i, j, y)
    assert list(nxt) == expected
    assert nxt.n == level.n and nxt.items.shape == (len(expected), level.items.shape[1] + 1)
    assert nxt.packed.shape == (len(expected), level.packed.shape[1])
    assert nxt.packed.tobytes() == Level.of(expected).packed.tobytes()
    assert nxt.supports.tolist() == [r.support for r in expected]


def test_build_edges_reach_what_they_name():
    # per edge, its candidate unions and how many of them meet the threshold
    assert [len(case[2][0]) for case in BUILD_EDGES] == [3, 4, 4, 4, 0, 0, 6, 4, 3]
    assert [len(reference_next_level(records, theta_count, *unions))
            for records, theta_count, unions, _ in BUILD_EDGES] == [1, 1, 1, 1, 0, 0, 0, 1, 2]


@st.composite
def singleton_levels(draw):
    """Random singleton records (empty ones included) and a level context
    whose alpha_count is at least their heaviest weight."""
    n = draw(st.integers(1, 10))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    records = [record((i,), BitVector(n, v)) for i, v in enumerate(values)]
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
    index = build_index(Level.of(records), params, ctx, seed=0, projections=projections)
    reference = []
    for row in projections:
        table = {}
        for idx, r in enumerate(records):
            key = padded_bits_array(r.vector, ctx, PREPROCESS)[row].tobytes()
            table.setdefault(key, []).append(idx)
        reference.append(table)
    for t, table in enumerate(reference):   # the records that share a P key, as grouped here
        keys = index.p_keys[:, t]
        assert [np.flatnonzero((keys == keys[group[0]]).all(axis=1)).tolist()
                for group in table.values()] == list(table.values())
    pairs = level_pairs(records)
    screened = query(index, pairs, ctx, pair_verify(records, pairs))
    for qi, q in enumerate(records):
        bits = padded_bits_array(q.vector, ctx, QUERY)
        buckets = [table.get(bits[row].tobytes()) for table, row in zip(reference, projections)]
        partners = set(range(len(records))) - {qi}
        verify = direct_verify(records, q)
        ref = verify_collisions(buckets, partners, verify, ctx, budget)
        assert_same_query(query_view(pairs, screened, qi, L), ref)
        counts = table_counts(index, pairs, qi)
        if not ref.early_exit:
            assert counts == ref.collision_counts
        # every table's Q key, past any early exit, against the probe without a budget
        assert counts == verify_collisions(buckets, partners, verify, ctx, None).collision_counts


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
    index = build_index(Level.of(records),
                        HammingLshParams(rho=0.5, k=k, L=L, early_exit_budget=budget), ctx, seed)
    pairs = join_level(Level.of(records), theta_count)
    support = {}

    def shared(sel):
        out = []
        for q, a, y in zip(*(v[sel].tolist() for v in every_pair(pairs))):
            u = add_item(records[q].items, y)
            if u not in support:
                support[u] = co_support(records[a].vector, records[q].vector)
            out.append(support[u])
        return np.array(out, dtype=np.int64)

    if not early_exit:
        index = replace(index, early_exit_budget=None)
    assert_same_screen(index.screen(pairs, ctx, shared),
                       index.screen(pairs, ctx, pair_verify(records, pairs)))


def sketch_level(patterns, alpha_count):
    """Singleton records from 0/1 strings and their level context."""
    records = [record((i,), BitVector.from01(p)) for i, p in enumerate(patterns)]
    return records, LevelContext(n=len(patterns[0]), m_l=len(records), alpha_count=alpha_count,
                                 theta_count=1)


def rejecting_generator():
    """A PCG64 bit generator whose first raw word is 0, set by stepping its
    LCG state back from one whose two 64-bit halves are equal (the output is
    their XOR, rotated): the first two 32-bit halves are 0, which Lemire's
    map rejects for every length that is not a power of two."""
    bits = np.random.PCG64(5)
    state = bits.state
    inc = state["state"]["inc"]
    multiplier = (2549297995355413924 << 64) + 4865540595714422341
    target = 12345 * ((1 << 64) + 1)
    state["state"]["state"] = (target - inc) * pow(multiplier, -1, 1 << 128) % (1 << 128)
    bits.state = state
    return bits


def test_rejecting_generator_starts_with_a_zero_word():
    assert rejecting_generator().random_raw(2)[0] == 0


@SETTINGS
@given(singleton_levels(), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(sketch_level(["1101"], 3), 1, 0)                    # one record, one row, |v| == alpha
@example(sketch_level(["1101", "0101", "0000"], 3), 1, 5)    # alpha, alpha-1, empty
@example(sketch_level(["110100", "100100", "111000"], 3), 64, 9)
@example(sketch_level(["1" * 120 + "0" * 80, "0" * 50 + "1" * 150, "1" * 200], 200), 64, 3)
@example(([], LevelContext(n=5, m_l=0, alpha_count=2, theta_count=1)), 3, 1)   # empty level
@example(sketch_level(["10110", "01100", "00000"], 3), 7, 2)   # odd n' = 11
@example(sketch_level(["10110", "01100"], 3), 1, rejecting_generator())   # samples 0 and 1 rejected
@example(sketch_level(["10110", "01100"], 3), 3, rejecting_generator())   # rows 0 and 1's first
@example(sketch_level([format(37 * i % 128, "07b") for i in range(70)], 7), 5, 11)   # 2 words
def test_sketch_columns_are_padded_minima(level, rows, seed):
    # reference: each value is the index of the first sample of its row's
    # stream, read off the seed's raw words, that the padded vector holds;
    # so each column is the minimum, over the padded vector's one positions,
    # of the index at which the row's stream first draws the position
    records, ctx = level
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=0.5)
    stream_seed = copy.deepcopy(seed)   # a bit generator is consumed by the build
    sketch = build_sketch(Level.of(records), params, ctx, seed)
    stream = reference_sketch(records, ctx, sketch, stream_seed)
    if isinstance(seed, np.random.BitGenerator):
        assert (stream.T.ravel()[:2] == ctx.padded_length).all()
    first = np.full((rows, ctx.padded_length + 1), stream.shape[1], dtype=np.int64)
    for t in range(stream.shape[1] - 1, -1, -1):   # the last write is the earliest draw
        first[np.arange(rows), stream[:, t]] = t
    for i, r in enumerate(records):
        for role, columns in ((PREPROCESS, sketch.columns), (QUERY, sketch.query_columns)):
            expected = first[:, padded_one_positions(r.vector, ctx, role)].min(axis=1)
            assert np.array_equal(columns[:, i], expected)
    # the level query compares each pair's P column with its query's own Q column
    pairs = level_pairs(records)
    matches = [np.count_nonzero(sketch.columns[:, a] == sketch.query_columns[:, q])
               for q, a in zip(*(v.tolist() for v in every_pair(pairs)[:2]))]
    assert minhash_query(sketch, pairs, params).matches.tolist() == matches


def assert_same_query(view, ref):
    """A query record's part of a level screen against the per-record probe:
    the same partners, the same verified partners in the same visit order
    with the same co-supports, the same early exit, and the same collisions
    (the probe counts them only up to its early exit)."""
    assert view.partners == ref.partners
    assert list(view.verified.items()) == list(ref.verified.items())
    assert view.early_exit == ref.early_exit
    if not ref.early_exit:
        assert view.collided.keys() == ref.collision_counts.keys()


def table_counts(index, pairs, qi):
    """Per partner that query record qi collides with, the number of
    tables in which they collide."""
    q, a, _ = every_pair(pairs)
    mine = q == qi
    counts = index.collisions(q[mine], a[mine]).sum(axis=1)
    return {j: c for j, c in zip(a[mine].tolist(), counts.tolist()) if c}


def assert_same_screen(a, b):
    for name in ("first", "verified", "co", "partners", "exited"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def level_context(records, theta_count):
    n = records[0].vector.length if records else theta_count
    return LevelContext(n=n, m_l=len(records), theta_count=theta_count,
                        alpha_count=max([theta_count, *(r.support for r in records)]))


def assert_screen_matches_probe(records, theta_count, index, screen, probe):
    """Every query record's part of `screen(pairs, verify)` against the
    per-record `probe(q, compatible, verify)` of the same tables."""
    pairs = level_pairs(records)
    res = screen(pairs, pair_verify(records, pairs))
    ref = pairwise_join(records, theta_count)
    for qi, q in enumerate(records):
        assert_same_query(query_view(pairs, res, qi, index.p_keys.shape[1]),
                          probe(q, ref.partners(qi), direct_verify(records, q)))
    return res


@st.composite
def screen_cases(draw):
    """A level, L projection rows of k positions over its padded length (k
    past 64 makes two-word keys) and an early-exit budget."""
    records, theta_count = draw(levels())
    length = level_context(records, theta_count).padded_length
    k = draw(st.one_of(st.integers(1, 6), st.integers(63, 70)))
    rows = draw(st.lists(st.lists(st.integers(0, length - 1), min_size=k, max_size=k),
                         min_size=1, max_size=4))
    return records, theta_count, np.array(rows, dtype=np.int64), draw(st.integers(1, 6))


def check_hamming_screen(case):
    records, theta_count, projections, budget = case
    ctx = level_context(records, theta_count)
    L, k = projections.shape
    index = build_index(Level.of(records),
                        HammingLshParams(rho=0.5, k=k, L=L, early_exit_budget=budget), ctx, 0,
                        projections=projections)
    masks = projection_masks(projections)
    tables = reference_tables(records, masks, ctx)
    res = assert_screen_matches_probe(
        records, theta_count, index, lambda pairs, verify: query(index, pairs, ctx, verify),
        lambda q, compatible, verify: reference_probe(tables, masks, q, ctx, compatible, verify,
                                                      budget))
    pairs, ref = level_pairs(records), pairwise_join(records, theta_count)
    for qi, q in enumerate(records):
        assert table_counts(index, pairs, qi) == reference_probe(
            tables, masks, q, ctx, ref.partners(qi), direct_verify(records, q),
            None).collision_counts
    return res


def bits_level(patterns, theta_count):
    """Singleton records from 0/1 strings, and a threshold."""
    return [record((i,), BitVector.from01(p))
            for i, p in enumerate(patterns)], theta_count


# query 0 meets every record in table 0 (position 11 is 0 in every padded
# vector) and visits them by index: two it is disjoint from, then its first
# partner at position 3, then another
FIRST_PARTNER_AT_3 = bits_level(["111000", "000111", "000111", "111000", "110000"], 2)
NO_PARTNER = anded_level(6, [(0, 1), (0, 2), (3, 4)], [0b111011, 0b101101, 0b110111, 63, 62], 2)
SCREEN_EDGES = [
    *(FIRST_PARTNER_AT_3 + (np.array([[11]]), budget) for budget in (1, 2, 3, 4)),
    # 70-bit keys over JOIN_EDGES[4], whose padded length is 65 + 2 * 3
    JOIN_EDGES[4] + (np.array([[(7 * j) % 71 for j in range(70)], [j % 71 for j in range(70)]]), 2),
    FIRST_PARTNER_AT_3 + (np.array([[3, 3, 11], [0, 6, 0]]), 1),   # repeated positions
    # keys whose first 64 bits agree for every pair (position 11 is always
    # 0), so only their second word tells the records apart
    FIRST_PARTNER_AT_3 + (np.array([[11] * 64 + [0, 1, 2, 3, 4, 5]]), 3),
    NO_PARTNER + (np.array([[0, 2], [5, 1]]), 1),
    anded_level(5, [(0, 1, 2)], [31, 31, 31], 1) + (np.array([[0, 9]]), 1),   # one record
    bits_level(["1100", "1110"], 2) + (np.array([[1], [6]]), 1),             # two records
]


@SETTINGS
@given(screen_cases())
@example(SCREEN_EDGES[0])
@example(SCREEN_EDGES[1])
@example(SCREEN_EDGES[2])
@example(SCREEN_EDGES[3])
@example(SCREEN_EDGES[4])
@example(SCREEN_EDGES[5])
@example(SCREEN_EDGES[6])
@example(SCREEN_EDGES[7])
@example(SCREEN_EDGES[8])
@example(SCREEN_EDGES[9])
def test_hamming_screen_matches_per_record_probe(case):
    check_hamming_screen(case)


def test_hamming_screen_budget_edges():
    # budget 2 stops query 0 before its first partner; 3 and 4 reach it and
    # then verify the rest; 1 stops it after one fruitless inspection
    inspected = {}
    for case in SCREEN_EDGES[:4]:
        res = check_hamming_screen(case)
        pairs = level_pairs(case[0])
        view = query_view(pairs, res, 0, 1)
        inspected[case[3]] = (view.inspections, view.early_exit)
    assert inspected == {1: (1, True), 2: (2, True), 3: (4, False), 4: (4, False)}


@st.composite
def covering_cases(draw):
    """A level, a covering map phi over its padded length, a budget and
    whether queries may exit early."""
    records, theta_count = draw(levels())
    length = level_context(records, theta_count).padded_length
    mask_dim = draw(st.integers(1, 4))
    phi = draw(st.lists(st.integers(0, (1 << mask_dim) - 1), min_size=length, max_size=length))
    return (records, theta_count, mask_dim, np.array(phi, dtype=np.int64),
            draw(st.integers(1, 6)), draw(st.booleans()))


def check_covering_screen(case):
    records, theta_count, mask_dim, phi, budget, early_exit = case
    ctx = level_context(records, theta_count)
    params = CoveringParams(n_prime=ctx.padded_length, theta_prime=mask_dim - 1, t=1, c=2.0,
                            eps_round=0.5, nu=0.75, mask_dim=mask_dim, psi_bound=8.0)
    family = build_family(params, 0, phi=phi)
    index = covering_build_index(Level.of(records), family, ctx)
    tables = reference_tables(records, family.masks, ctx)
    # the shared screen's budget, set on a covering index (which has none)
    screened = replace(index, early_exit_budget=budget) if early_exit else index
    assert_screen_matches_probe(
        records, theta_count, index,
        lambda pairs, verify: covering_query(screened, pairs, ctx, verify),
        lambda q, compatible, verify: reference_probe(tables, family.masks, q, ctx, compatible,
                                                      verify, budget if early_exit else None))
    return index


# the all-zero phi: every mask is 0, so every pair collides in every table
ZERO_PHI = [FIRST_PARTNER_AT_3 + (3, np.zeros(12, dtype=np.int64), 2, early_exit)
            for early_exit in (False, True)]


@SETTINGS
@given(covering_cases())
@example(ZERO_PHI[0])
@example(ZERO_PHI[1])
def test_covering_screen_matches_per_record_probe(case):
    check_covering_screen(case)


def test_covering_chance_collisions_cost_only_verifications(monkeypatch):
    # with every fingerprint 0, every pair's keys agree in every table, as
    # a chance fingerprint collision would make them: the screen verifies
    # every ordered pair and keeps exactly those at or above the threshold,
    # and the engine's level counts every pair as verified
    monkeypatch.setattr(covering_lsh, "_fingerprints", lambda bits, order, values, bounds: np.zeros(
        (bits.shape[1], len(bounds) - 2), dtype=np.uint64))
    rng = np.random.default_rng(11)
    for records, theta_count in (FIRST_PARTNER_AT_3, NO_PARTNER, JOIN_EDGES[4]):
        ctx, level = level_context(records, theta_count), Level.of(records)
        pairs = level_pairs(records)
        verify = pair_verify(records, pairs)
        co = verify(np.arange(len(pairs)))
        for mask_dim in (1, 3, 4):
            params = CoveringParams(n_prime=ctx.padded_length, theta_prime=mask_dim - 1, t=1,
                                    c=2.0, eps_round=0.5, nu=0.75, mask_dim=mask_dim,
                                    psi_bound=8.0)
            phi = rng.integers(0, 1 << mask_dim, ctx.padded_length)
            index = covering_build_index(level, build_family(params, 0, phi=phi), ctx)
            assert not index.p_keys.any() and not index.q_keys.any()
            res = covering_query(index, pairs, ctx, verify)
            assert res.inspections == len(pairs)
            assert np.array_equal(np.sort(res.partners), np.flatnonzero(co >= theta_count))
            _, _, tn, fp = engine._screen_level(
                engine._LSH_VARIANTS["covering"], level, ctx, params,
                np.random.SeedSequence([1, 2]), join_level(level, theta_count), "level2", {})
            assert tn == 0 and fp == np.count_nonzero(co < theta_count)


# The closed-form covering build against the dense layout it replaced.

@st.composite
def covering_builds(draw):
    """n at and around a word edge; record weights all equal, pairwise
    distinct or free (a weight-0 record has the longest run, the heaviest
    record an empty one); mask_dim 1-10 with phi over every class, over a
    few classes (most classes empty) or all zero; whether each chunk holds
    one word; and a seed for the records' ones and phi."""
    n = draw(st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 130)))
    shape = draw(st.sampled_from(["equal", "distinct", "free"]))
    if shape == "equal":
        weights = [draw(st.integers(1, n))] * draw(st.integers(1, 6))
    else:
        weights = draw(st.lists(st.integers(0, n), min_size=1, max_size=min(6, n + 1),
                                unique=shape == "distinct"))
    return (n, weights, draw(st.integers(1, 10)), draw(st.sampled_from(["any", "few", "zero"])),
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


def check_covering_build(case):
    n, weights, mask_dim, classes, one_word, seed = case
    rng = np.random.default_rng(seed)
    bits = np.zeros((len(weights), -(-n // 64) * 64), dtype=bool)
    for row, w in zip(bits, weights):
        row[rng.permutation(n)[:w]] = True
    level = Level(np.arange(len(weights))[:, None], np.packbits(
        bits, axis=1, bitorder="little").view("<u8"), np.array(weights), n)
    ctx = LevelContext(n=n, m_l=len(level), alpha_count=max(1, *weights), theta_count=1)
    size = 1 << mask_dim
    if classes == "any":
        phi = rng.integers(0, size, ctx.padded_length)
    else:
        phi = rng.choice(rng.integers(0, size, 3) if classes == "few" else [0], ctx.padded_length)
    params = CoveringParams(n_prime=ctx.padded_length, theta_prime=mask_dim - 1, t=1, c=2.0,
                            eps_round=0.5, nu=0.75, mask_dim=mask_dim, psi_bound=8.0)
    family = build_family(params, 0, phi=phi)
    with mock.patch.object(exact, "PAIR_CHUNK_WORDS", 1 if one_word else exact.PAIR_CHUNK_WORDS):
        index = covering_build_index(level, family, ctx)
    for name, a, b in zip(("p_keys", "q_keys"), (index.p_keys, index.q_keys),
                          reference_covering_index(level, family, ctx)):
        assert a.shape == b.shape and np.array_equal(a, b), name


@SETTINGS
@given(covering_builds())
@example((1, [1, 0], 1, "zero", True, 0))
@example((64, [64, 0, 5], 10, "few", True, 1))
@example((65, [3, 3, 3], 4, "any", False, 2))
@example((63, [0, 1, 2, 3, 4, 5], 10, "any", True, 3))
@example((65, [65, 0, 64], 7, "zero", False, 4))
def test_covering_build_matches_dense_layout(case):
    check_covering_build(case)


@st.composite
def covering_contexts(draw):
    """A level's constants with m_l in 1..400 and alpha - theta in 0..600."""
    theta_count = draw(st.integers(1, 200))
    alpha_count = theta_count + draw(st.integers(0, 600))
    return LevelContext(n=alpha_count + draw(st.integers(0, 50)), m_l=draw(st.integers(1, 400)),
                        alpha_count=alpha_count, theta_count=theta_count)


@SETTINGS
@given(covering_contexts(), st.floats(0.0, 1.0, exclude_min=True))
@example(LevelContext(n=100, m_l=3, alpha_count=40, theta_count=30), 0.5)    # 3 x (2^21 - 1)
@example(LevelContext(n=40, m_l=400, alpha_count=12, theta_count=10), 0.5)   # 400 x (2^5 - 1)
@example(LevelContext(n=50, m_l=7, alpha_count=20, theta_count=20), 1.0)
@example(LevelContext(n=700, m_l=2, alpha_count=610, theta_count=10), 0.5)    # theta' = 1200
def test_covering_size_rule_is_the_only_refusal(ctx, epsilon):
    # the byte budget, 16 B per table entry, alone refuses a family; the
    # other ends are a degenerate level and, while psi_bound is computed
    # before the size rule (ROADMAP item 1), its OverflowError past
    # theta' = 1023
    try:
        params = covering_lsh.derive_params(ctx, epsilon, 0.1)
    except covering_lsh.FamilyTooLarge:
        with mock.patch.object(transform, "MAX_INDEX_BYTES", math.inf):
            params = covering_lsh.derive_params(ctx, epsilon, 0.1)
        assert 16 * ((1 << params.mask_dim) - 1) * ctx.m_l > transform.MAX_INDEX_BYTES
    except DegenerateLevel:
        assert ctx.alpha_count == ctx.theta_count
        return
    except OverflowError:
        assert 2 * (ctx.alpha_count - ctx.theta_count) >= 1023
    else:
        assert 16 * ((1 << params.mask_dim) - 1) * ctx.m_l <= transform.MAX_INDEX_BYTES
    assert ctx.alpha_count != ctx.theta_count


# The two ways a mask index finds each pair's first colliding table, called
# directly: the sort path against the pairwise path it stands in for.

@st.composite
def path_cases(draw):
    """A level; a mask index spec over it, either Hamming's (L, k)
    projection rows (k past 64 makes two-word keys) or covering's
    (mask_dim, phi); an early-exit budget; and whether each chunk holds
    one word."""
    records, theta_count = draw(levels())
    length = level_context(records, theta_count).padded_length
    position = st.integers(0, length - 1)
    if draw(st.booleans()):
        k = draw(st.one_of(st.integers(1, 6), st.integers(63, 70)))
        spec = np.array(draw(st.lists(st.lists(position, min_size=k, max_size=k),
                                      min_size=1, max_size=4)), dtype=np.int64)
    else:
        mask_dim = draw(st.integers(1, 4))
        phi = draw(st.lists(st.integers(0, (1 << mask_dim) - 1), min_size=length,
                            max_size=length))
        spec = (mask_dim, np.array(phi, dtype=np.int64))
    return records, theta_count, spec, draw(st.integers(1, 6)), draw(st.booleans())


def path_index(records, ctx, spec, budget):
    if isinstance(spec, np.ndarray):   # Hamming's projection rows
        L, k = spec.shape
        params = HammingLshParams(rho=0.5, k=k, L=L, early_exit_budget=budget)
        return build_index(Level.of(records), params, ctx, 0, projections=spec)
    mask_dim, phi = spec
    params = CoveringParams(n_prime=ctx.padded_length, theta_prime=mask_dim - 1, t=1, c=2.0,
                            eps_round=0.5, nu=0.75, mask_dim=mask_dim, psi_bound=8.0)
    return covering_build_index(Level.of(records), build_family(params, 0, phi=phi), ctx)


def check_paths(case):
    records, theta_count, spec, budget, one_word_chunks = case
    ctx = level_context(records, theta_count)
    index = path_index(records, ctx, spec, budget)
    with pytest.MonkeyPatch.context() as patch:
        if one_word_chunks:   # a table chunk is one table, a meeting slice one query
            patch.setattr(exact, "PAIR_CHUNK_WORDS", 1)
        pairs = level_pairs(records)
        first = index.sorted_first_tables(pairs)
        assert first.dtype == np.int32
        assert np.array_equal(first, index.pairwise_first_tables(*every_pair(pairs)[:2]))
        for early_exit in (False, True):
            screened = replace(index, early_exit_budget=budget if early_exit else None)
            results = []
            for sort in (True, False):
                patch.setattr(hamming_lsh, "sort_pays", lambda *args, sort=sort: sort)
                results.append(screened.screen(pairs, ctx, pair_verify(records, pairs)))
            assert_same_screen(*results)
    return first


many_groups = [(1 << 12) - 1 - (1 << c) for c in range(7)]   # every row but one per item
PATH_EDGES = [
    FIRST_PARTNER_AT_3 + (np.array([[11]]), 2, False),                            # l = 1
    anded_level(12, combinations(range(6), 3), many_groups, 6) + (np.array([[0, 5, 13]]), 2, True),
    anded_level(12, combinations(range(7), 4), many_groups, 5) + (np.array([[1, 2], [3, 20]]), 3,
                                                                  False),
    anded_level(6, [(0, 1), (2, 3), (4, 5)], [63, 62, 61, 59, 55, 47], 2)         # no pair
    + (np.array([[0, 1]]), 1, False),
    anded_level(5, [(0, 1, 2)], [31, 31, 31], 1) + (np.array([[0, 9]]), 1, False),   # one record
    bits_level(["1100", "1110"], 2) + (np.array([[1], [6]]), 1, True),              # two records
    # 70-bit keys whose first word agrees for every pair (position 11 is 0)
    FIRST_PARTNER_AT_3 + (np.array([[11] * 64 + [0, 1, 2, 3, 4, 5]]), 3, False),
    FIRST_PARTNER_AT_3 + ((3, np.zeros(12, dtype=np.int64)), 2, True),      # zero phi
    anded_level(12, combinations(range(6), 3), many_groups, 6) + ((2, np.arange(30) % 4), 1, True),
]


@SETTINGS
@given(path_cases())
@example(PATH_EDGES[0])
@example(PATH_EDGES[1])
@example(PATH_EDGES[2])
@example(PATH_EDGES[3])
@example(PATH_EDGES[4])
@example(PATH_EDGES[5])
@example(PATH_EDGES[6])
@example(PATH_EDGES[7])
@example(PATH_EDGES[8])
def test_sort_path_matches_pairwise_path(case):
    check_paths(case)


def test_path_edges_collide_as_described():
    # the edges reach what they name: many groups, no pair, and every pair
    # colliding in every table
    assert len(set(exact.join_level(Level.of(PATH_EDGES[1][0]), 1).filings[2].tolist())) == 15
    assert len(check_paths(PATH_EDGES[3])) == 0
    assert (check_paths(PATH_EDGES[7]) == 0).all()


@st.composite
def sketch_cases(draw):
    """A level, a sketch size and seed, an accept threshold, and whether to
    move the threshold onto the first pair's match count."""
    records, theta_count = draw(levels())
    return (records, theta_count, draw(st.integers(1, 40)), draw(st.floats(0.0, 1.0)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


def check_minhash_screen(case):
    records, theta_count, rows, accept, seed, at_boundary = case
    ctx = level_context(records, theta_count)
    sketch = build_sketch(Level.of(records), MinhashParams(omega=0.3, eps_mh=0.2, rows=rows,
                                                 accept_threshold=accept), ctx, seed)
    pairs = level_pairs(records)
    q, a, _ = every_pair(pairs)
    if at_boundary and len(pairs):   # the first pair's hits are exactly rows * threshold
        accept = np.count_nonzero(sketch.columns[:, a[0]] == sketch.query_columns[:, q[0]]) / rows
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=accept)
    res = minhash_query(sketch, pairs, params)
    ref = pairwise_join(records, theta_count)
    for qi in range(len(records)):
        assert sketch_view(pairs, res, qi, rows) == \
            reference_minhash_query(sketch, qi, params, ref.partners(qi))
    if at_boundary and len(pairs):
        assert 0 in res.approved


def edges_with_degrees(degrees):
    """Distinct pairs of items in which item v < len(degrees) occurs in
    degrees[v] pairs (Havel-Hakimi: the item of the largest remaining
    degree pairs with those of the next largest), with a fresh item of one
    occurrence for each partner the items run out of."""
    need, edges, fresh = dict(enumerate(degrees)), [], len(degrees)
    while need:
        v = max(need, key=need.get)
        d = need.pop(v)
        partners = sorted(need, key=need.get, reverse=True)[:d]
        for u in partners:
            edges.append((min(u, v), max(u, v)))
            need[u] -= 1
            if not need[u]:
                del need[u]
        edges += [(v, fresh + k) for k in range(d - len(partners))]
        fresh += d - len(partners)
    return edges


SKETCH_EDGES = [
    # the first pair's hits at the threshold: 7 of 25 rows and 15 of 29,
    # where (hits / rows) * rows rounds above hits
    *(bits_level(["111000", "110100", "011100"], 2) + (rows, 0.5, seed, True)
      for rows, seed in ((25, 0), (29, 1))),
    # 70 random singletons over n = 12: one join group past the broadcast rule
    anded_level(12, [(i,) for i in range(70)],
                [int(c) for c in np.random.default_rng(12).integers(0, 1 << 12, 70)], 3)
    + (40, 0.3, 5, True),
    # l = 2: join groups of 2 and 3 records, the rest alone
    anded_level(10, [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)],
                [0b1111011110, 0b0111111011, 0b1101101111, 0b1111111100, 0b1011110111,
                 0b1110111101, 0b0111101111], 4) + (30, 0.4, 6, True),
    # 70 equal records at full weight, unpadded: every minimum agrees, on
    # all 256 rows, one more than an 8-bit sum holds
    anded_level(12, [(i,) for i in range(70)], [0b111111110000] * 70, 3) + (256, 0.5, 7, False),
    # l = 2: join groups of every size from 2 to BROADCAST_GROUP + 1, the
    # stacked sizes and the least two the broadcast takes
    anded_level(12, edges := edges_with_degrees(range(2, minhash_lsh.BROADCAST_GROUP + 2)),
                [int(c) for c in np.random.default_rng(13).integers(0, 1 << 12, 1 + max(
                    max(e) for e in edges))], 2) + (8, 0.4, 8, True),
]


@SETTINGS
@given(sketch_cases())
@example(SKETCH_EDGES[0])
@example(SKETCH_EDGES[1])
@example(SKETCH_EDGES[2])
@example(SKETCH_EDGES[3])
@example(SKETCH_EDGES[4])
@example(SKETCH_EDGES[5])
def test_minhash_screen_matches_per_record_query(case):
    check_minhash_screen(case)


@pytest.mark.parametrize("group", [2, 3, minhash_lsh.BROADCAST_GROUP])
def test_minhash_broadcast_matches_per_record_query(monkeypatch, group):
    # every join group broadcast, only the larger of the l = 2 edge's, or
    # as the rule picks: the same matches as the per-record query
    monkeypatch.setattr(minhash_lsh, "BROADCAST_GROUP", group)
    for case in SKETCH_EDGES:
        check_minhash_screen(case)


def test_sketch_edges_take_the_ways_they_name():
    # the edges reach what they name: a group past the rule, groups of 2 and
    # 3 records, every pair matching on every row, and every group size
    sizes = []
    for records, *_ in SKETCH_EDGES[2:4]:
        end = join_level(Level.of(records), 1).filings[2]
        sizes.append(sorted(np.unique(end, return_counts=True)[1].tolist()))
    assert sizes[0] == [70] and 70 >= minhash_lsh.BROADCAST_GROUP and sizes[1][-2:] == [2, 3]
    records = SKETCH_EDGES[5][0]
    end = join_level(Level.of(records), 1).filings[2]
    assert set(range(2, minhash_lsh.BROADCAST_GROUP + 2)) <= set(
        np.unique(end, return_counts=True)[1].tolist())
    records, theta_count, rows, *_ = SKETCH_EDGES[4]
    sketch = build_sketch(Level.of(records), MinhashParams(0.3, 0.2, rows, 0.5),
                          level_context(records, theta_count), 7)
    pairs = level_pairs(records)
    assert (minhash_query(sketch, pairs, MinhashParams(0.3, 0.2, rows, 0.5)).matches
            == rows).all()


@pytest.mark.parametrize("level", [*JOIN_EDGES, *(case[:2] for case in SKETCH_EDGES[2:4])])
def test_group_pairs_follow_the_numbering_rule(level):
    # a join group's pairs run from its first filing's `start` in the
    # `np.triu_indices` order of its filings, both ways round, and the
    # groups' pairs, laid end to end, are every pair once
    records, theta_count = level
    sweep = join_level(Level.of(records), theta_count)
    owner, item, end = sweep.filings
    heads = np.flatnonzero(np.diff(end, prepend=-1))
    listed = []
    for h in heads.tolist():
        x, y = np.triu_indices(end[h] - h, 1)
        pairs = sweep.start[h] + np.arange(len(x))
        q, a, z = sweep.members(pairs)
        assert (q.tolist(), a.tolist(), z.tolist()) == \
            (owner[h + x].tolist(), owner[h + y].tolist(), item[h + y].tolist())
        q, a, z = sweep.members(pairs + sweep.candidate_pairs)
        assert (q.tolist(), a.tolist(), z.tolist()) == \
            (owner[h + y].tolist(), owner[h + x].tolist(), item[h + x].tolist())
        listed += pairs.tolist()
    assert listed == list(range(sweep.candidate_pairs))


def test_screen_crosses_every_chunk_boundary(monkeypatch):
    # one pair (or record) per chunk in every chunked step of the screens
    # and their index builds
    monkeypatch.setattr(exact, "PAIR_CHUNK_WORDS", 1)
    for case in SCREEN_EDGES:
        check_hamming_screen(case)
    for case in ZERO_PHI:
        check_covering_screen(case)
    for case in SKETCH_EDGES:
        check_minhash_screen(case)
    rng = np.random.default_rng(10)
    columns = [int(c) for c in rng.integers(0, 1 << 62, size=6)]
    wide = [c | c << 62 | c << 124 for c in columns]   # n = 190: three words
    records, theta_count = anded_level(190, combinations(range(6), 2), wide, 40)
    length = level_context(records, theta_count).padded_length
    check_hamming_screen((records, theta_count, rng.integers(0, length, (5, 66)), 3))
    check_covering_screen((records, theta_count, 3, rng.integers(0, 8, length), 2, True))
    check_minhash_screen((records, theta_count, 16, 0.3, 4, True))


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
                              delta=0.1 if lsh else None, seed=seed)
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
@given(databases(), st.integers(0, 3))
@example((db_from_rows(TOY_ROWS * 2), 0.2), 0)   # frequent pairs at both LSH levels
def test_lossless_counters_match_all_pairs_co_support(case, seed):
    # covering reads no all-pairs co-support, yet its
    # TN, FP and frequent pairs are what the per-pair reference join counts
    # against the pairs the level verified
    db, theta = case
    query, screened = covering_lsh.query, []

    def recording(index, sweep, ctx, verify):
        seen = np.zeros(len(sweep), dtype=bool)
        screened.append((sweep, seen))

        def marking(sel):
            seen[sel] = True
            return verify(sel)
        return query(index, sweep, ctx, marking)
    config = MiningConfig(theta=theta, variant="covering", epsilon=0.5, delta=0.1, seed=seed)
    with mock.patch.object(covering_lsh, "query", recording):
        report = lsh_apriori_mine(db, config)
    rows = [row for row in report.levels if row.lsh_active]
    assert len(rows) == len(screened)
    for row, (sweep, seen) in zip(rows, screened):
        ref = pairwise_join(list(report.itemsets.levels[row.level - 2]),
                            report.itemsets.theta_count)
        negative = np.array([a not in ref.positives[q]
                             for q, a in zip(*(v.tolist() for v in every_pair(sweep)[:2]))],
                            dtype=bool)
        assert (row.true_negatives, row.false_positives, row.frequent_pairs) == \
            (np.count_nonzero(negative & ~seen), np.count_nonzero(negative & seen),
             ref.frequent_pairs)


@st.composite
def column_databases(draw):
    """A database straight from random columns over n in 1..150, so the
    vectors span one to three words, and a threshold."""
    n = draw(st.integers(1, 150))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=7))
    columns = {item: BitVector(n, v) for item, v in enumerate(values) if v}
    return ColumnDatabase(n=n, m=len(values), columns=columns), \
        draw(st.sampled_from([0.1, 0.3, 0.5]))


@SETTINGS
@given(column_databases(), st.integers(0, 3))
@example((ColumnDatabase(n=65, m=3, columns={0: BitVector(65, (1 << 65) - 1),
                                            1: BitVector(65, 1 << 64 | 0b1111),
                                            2: BitVector(65, 1 << 64 | 1 << 63 | 0b11)}),
          0.02), 0)
def test_output_vectors_are_anded_columns(case, seed):
    # every variant's every output record carries the AND of its items'
    # columns: the word order and tail bits of the packed levels
    db, theta = case
    for variant in VARIANTS:
        lsh = variant != "exact"
        config = MiningConfig(theta=theta, variant=variant, epsilon=0.5 if lsh else None,
                              delta=0.1 if lsh else None, seed=seed)
        for r in lsh_apriori_mine(db, config).itemsets.all_records():
            value = (1 << db.n) - 1
            for item in r.items:
                value &= db.columns[item].value
            assert r.vector == BitVector(db.n, value) and r.support == value.bit_count()


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


# tokens that a loader reads as an id (007, 2**63 - 1), that int() reads as
# one but a loader may not (-0, +5, 1_0), or that neither reads
ODD_TOKENS = ["x", "-3", "-0", "+5", "1_0", "007", "1.5", "0x10", str(2**63 - 1), str(2**63),
              "99999999999999999999999"]


# what str.split() splits on: tab, line feed, vertical tab, form feed,
# carriage return, bytes 28-31 and space
ASCII_WHITESPACE = "".join(c for c in map(chr, range(128)) if c.isspace())


@st.composite
def fimi_texts(draw):
    """A FIMI text over a few ids, small or sparse and large, n in 1..70
    transactions (63, 64 and 65 drawn often), ids repeated within a line,
    blank and whitespace-only lines, any runs of spaces and tabs (now and
    then of any ASCII whitespace), lines ended by "\n" (or by "\r\n" or
    "\r"), and now and then one odd token."""
    n = draw(st.one_of(st.sampled_from([63, 64, 65]), st.integers(1, 70)))
    pool = draw(st.lists(st.one_of(st.integers(0, 70), st.integers(0, 2**63 - 1)),
                         min_size=1, max_size=10))
    blanks = draw(st.sampled_from([" \t", " \t", ASCII_WHITESPACE]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    space, gap = st.text(blanks, max_size=2), st.text(blanks, min_size=1, max_size=3)
    lines = []
    for _ in range(n):
        lines += draw(st.lists(space, max_size=2))   # blank lines, skipped
        row = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        lines.append(draw(space) + "".join(str(i) + draw(gap) for i in row))
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += " " + draw(st.sampled_from(ODD_TOKENS))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@SETTINGS
@given(fimi_texts(), st.sampled_from([1, 3, 64, dataset.LOAD_CHUNK_TOKENS]))
@example("1 2 3\n1 2\n1 3\n2 3\n", 1)
@example("7\n" * 63, 3)
@example("0 5 5\n" * 64, 64)
@example("\n".join(str(j % 3) for j in range(65)), 1)
@example(f"1 {10**11}\n\n{10**11}\n", 1)
@example("\n \n\t\n", 1)                       # empty database
@example("1 2\n3 x\n-4 7\n", 1)                 # the first bad token wins
@example("1 2\n-4 7\n3 x\n", 1)
@example("5 -0 +6 1_0\n", 1)                      # int() reads all four, a loader one
@example(f"1 {2**63 - 1}\n{2**63}\n", 1)
@example("1 2\n3 \xe9\n", 1)                    # not ASCII
@example("1 2\r\n3 4\r\n", 1)                    # CRLF and lone CR line ends
@example("1 2\r3 4\n", 3)
@example("1\x0b2\x0c3\n4\x1c5\n", 1)               # whitespace other than space and tab
@example(f"{7:022d} 3\n{0:022d}\n", 1)           # zero-padded past 19 digits
@example(f"{2**63 - 1} 1\n", 1)
@example("9" * 20 + "\n", 1)
@example(" ".join(map(str, range(20000))) + "\n5\n", dataset.LOAD_CHUNK_TOKENS)   # one long line
@example("7\n" * 70000, dataset.LOAD_CHUNK_TOKENS)
def test_loader_matches_reference(text, chunk):
    # the packed loader gives the per-item reference's n, m, ids and vectors,
    # or raises its error message, at any parse block and scatter chunk size
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.dat"
        path.write_bytes(text.encode("latin-1"))
        try:
            want = reference_load_transactions(path)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as got, \
                    mock.patch.object(dataset, "LOAD_CHUNK_TOKENS", chunk):
                load_transactions(path)
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(dataset, "LOAD_CHUNK_TOKENS", chunk):
            db = load_transactions(path)
    assert (db.n, db.m) == (want.n, want.m)
    assert db.items.tolist() == sorted(want.columns)
    assert db.packed.dtype == np.dtype("<u8") and db.packed.shape == (len(db.items), (db.n + 63) // 64)
    assert [int.from_bytes(row.tobytes(), "little") for row in db.packed] == \
        [want.columns[item].value for item in db.items.tolist()]
