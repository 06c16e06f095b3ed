from itertools import combinations

import numpy as np
import pytest

from lshmine import exact
from lshmine.dataset import BitVector, ItemsetRecord
from lshmine.engine import MiningConfig, lsh_apriori_mine
from lshmine.exact import (
    Level,
    apriori_mine,
    brute_force_mine,
    build_level,
    join_level,
    union_if_compatible,
)

from conftest import (
    TOY_FREQUENT,
    assert_same_join,
    column_records,
    db_from_rows,
    downward_closed,
    random_db,
)


def record(items, bits01):
    vector = BitVector.from01(bits01)
    return ItemsetRecord(tuple(items), vector, vector.popcount())


def test_apriori_toy(toy_db):
    res = apriori_mine(toy_db, 0.5)
    assert res.itemsets.as_dict() == TOY_FREQUENT
    assert (1, 2, 3) not in res.itemsets.item_tuples()  # support 1 < 2


def test_apriori_toy_tallies(toy_db):
    rows = lsh_apriori_mine(toy_db, MiningConfig(theta=0.5)).levels
    assert [(r.level, r.candidates, r.frequent_count) for r in rows] == [
        (1, 3, 3), (2, 3, 3), (3, 1, 0),
    ]
    assert [r.transactions_read for r in rows] == [12, 12, 4]


def test_apriori_unattainable_threshold():
    db = db_from_rows([[0], [1], [0], [1]])
    res = apriori_mine(db, 0.9)  # threshold 4, max support 2
    assert res.itemsets.count() == 0


def test_apriori_saturated_item():
    db = db_from_rows([[0, 1], [0], [0], [0]])
    res = apriori_mine(db, 0.5)
    assert (0,) in res.itemsets.item_tuples()
    assert res.itemsets.as_dict()[(0,)] == 4


def test_apriori_theta_validation(toy_db):
    with pytest.raises(ValueError):
        apriori_mine(toy_db, 0.0)
    with pytest.raises(ValueError):
        apriori_mine(toy_db, 1.0)


def joined_unions(level):
    """Every distinct union of the join (theta_count 1 keeps them all frequent)."""
    level = Level.of(level)
    sweep = join_level(level, theta_count=1)
    unions = sweep.unions(np.flatnonzero(sweep.pair_frequent))
    assert sweep.distinct_candidates == len(unions[0])
    return [r.items for r in build_level(level, *unions, 1)]


def test_join_triangle():
    level = [record([1, 2], "10"), record([1, 3], "10"), record([2, 3], "10")]
    assert joined_unions(level) == [(1, 2, 3)]


def test_join_singletons():
    level = [record([1], "10"), record([2], "10")]
    assert joined_unions(level) == [(1, 2)]


def test_join_incompatible():
    level = [record([1, 2], "10"), record([3, 4], "10")]
    assert joined_unions(level) == []
    assert joined_unions([]) == []


def test_join_matches_pairwise_at_negatives_size():
    # shaped like the benchmark's `negatives`: 400 singletons over n = 2000,
    # each item in 601..604 random rows; at 600 no pair is frequent, at 180
    # more than half are
    rng = np.random.default_rng(31)
    n, m = 2000, 400
    hits = np.zeros((n, m), dtype=bool)
    for item in range(m):
        hits[rng.choice(n, size=601 + int(rng.integers(0, 4)), replace=False), item] = True
    level = column_records(hits, [(item,) for item in range(m)])
    for theta_count in (600, 180):
        sweep = assert_same_join(level, theta_count)
        assert sweep.candidate_pairs == sweep.distinct_candidates == m * (m - 1) // 2
    assert sweep.frequent_pairs > 0


def test_join_matches_pairwise_on_a_planted_deep_level():
    # three 7-item patterns planted in 300 rows each over noise: level 4 is
    # every frequent 4-itemset, and most 5-unions come from several pairs
    rng = np.random.default_rng(32)
    n, m = 2000, 12
    hits = rng.random((n, m)) < 0.15
    for pattern in (range(0, 7), range(3, 10), (0, 2, 4, 6, 8, 10, 11)):
        hits[np.ix_(rng.choice(n, size=300, replace=False), list(pattern))] = True
    theta_count = 150
    level = [r for r in column_records(hits, combinations(range(m), 4))
             if r.support >= theta_count]
    sweep = assert_same_join(level, theta_count)
    assert len(level) > 50 and sweep.frequent_pairs > 0
    assert sweep.distinct_candidates < sweep.candidate_pairs


def test_pair_arrays_are_int32_up_to_int32_max():
    # one width rule for the join's per-pair arrays, decided at its edge
    # without allocating, and the arrays a small join hands out under it
    assert exact.index_dtype(2**31 - 1) == np.int32
    assert exact.index_dtype(2**31) == np.int64
    level = [record([1, 2], "110"), record([1, 3], "011"), record([2, 3], "111")]
    sweep = join_level(Level.of(level), 1)
    arrays = (*sweep.pair_rows, *exact._filing_pairs(sweep.filings[2]), sweep.pair_union)
    assert [a.dtype for a in arrays] == [np.int32] * len(arrays)


def test_union_if_compatible():
    assert union_if_compatible((1, 2), (1, 3)) == (1, 2, 3)
    assert union_if_compatible((1, 2), (3, 4)) is None
    assert union_if_compatible((1, 2), (1, 2)) is None
    assert union_if_compatible((1,), (2,)) == (1, 2)


def test_brute_force_toy(toy_db):
    assert brute_force_mine(toy_db, 0.5).as_dict() == TOY_FREQUENT


def test_brute_force_guard():
    db = db_from_rows([list(range(21))])
    with pytest.raises(ValueError, match="too large"):
        brute_force_mine(db, 0.5)


def test_brute_force_minimum_threshold(toy_db):
    # theta_count == 1: everything contained in some transaction comes out
    fis = brute_force_mine(toy_db, 0.1)
    expected = set()
    for row in ([1, 2, 3], [1, 2], [1, 3], [2, 3]):
        for size in range(1, len(row) + 1):
            expected.update(combinations(sorted(row), size))
    assert fis.item_tuples() == expected


def test_brute_force_single_transaction_powerset():
    db = db_from_rows([[1, 3, 5]])
    fis = brute_force_mine(db, 0.9)
    assert fis.item_tuples() == {
        (1,), (3,), (5,), (1, 3), (1, 5), (3, 5), (1, 3, 5),
    }


def test_apriori_matches_brute_force_random():
    rng = np.random.default_rng(2024)
    thetas = (0.2, 0.5, 0.8)
    for trial in range(30):
        db = random_db(rng, n_max=48, m_max=10)
        theta = thetas[trial % 3]
        res = apriori_mine(db, theta)
        oracle = brute_force_mine(db, theta)
        assert res.itemsets.same_itemsets(oracle), f"trial {trial}"
        assert downward_closed(res.itemsets)
