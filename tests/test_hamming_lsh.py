import math

import numpy as np
import pytest

from lshmine import transform
from lshmine.dataset import BitVector, co_support
from lshmine.exact import Level
from lshmine.hamming_lsh import HammingLshParams, build_index, derive_params, query, sort_pays
from lshmine.transform import (
    PREPROCESS,
    QUERY,
    DegenerateLevel,
    FamilyTooLarge,
    LevelContext,
    padded_bits_array,
)

from conftest import (
    level_pairs,
    pair_verify,
    query_view,
    random_vector,
    shared_item_level,
    singleton_level,
)


def screen(index, level, ctx, qi):
    """Query record qi's part of the Hamming screen of `level`."""
    pairs = level_pairs(level)
    res = query(index, pairs, ctx, pair_verify(level, pairs))
    return query_view(pairs, res, qi, index.p_keys.shape[1])


def test_derive_params_reference_values():
    # alpha=0.8, theta=0.5, eps=0.2, delta=0.1, m_l=1000:
    # rho = 0.3/0.4, k = ceil(ln 1000 / ln(2.6/1.8)) = 19,
    # L = ceil(1000^0.75 * ln 10) = 410
    ctx = LevelContext(n=10, m_l=1000, alpha_count=8, theta_count=5)
    p = derive_params(ctx, epsilon=0.2, delta=0.1)
    assert abs(p.rho - 0.75) < 1e-12
    assert p.k == 19
    assert p.L == 410
    assert p.early_exit_budget == 4100


def test_derive_params_degenerate():
    ctx = LevelContext(n=10, m_l=5, alpha_count=5, theta_count=5)
    with pytest.raises(DegenerateLevel):
        derive_params(ctx, epsilon=0.2, delta=0.1)


def test_derive_params_saturated_epsilon():
    # (1-eps)*theta -> 0 gives the smallest k for a given m_l
    ctx = LevelContext(n=10, m_l=100, alpha_count=8, theta_count=5)
    p = derive_params(ctx, epsilon=1.0, delta=0.1)
    assert p.k == int(np.ceil(np.log(100) / np.log(1 + 2 * 0.8) - 1e-12))
    assert abs(p.rho - (0.8 - 0.5) / 0.8) < 1e-12
    for eps in (0.2, 0.5, 0.9):
        assert derive_params(ctx, eps, 0.1).k >= p.k


def test_derive_params_validation():
    ctx = LevelContext(n=10, m_l=10, alpha_count=8, theta_count=5)
    with pytest.raises(ValueError):
        derive_params(ctx, epsilon=0.2, delta=1.5)
    with pytest.raises(ValueError):
        derive_params(ctx, epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError):
        derive_params(LevelContext(n=10, m_l=1, alpha_count=8, theta_count=5), 0.2, 0.1)


def test_derive_params_byte_budget_boundary(monkeypatch):
    # the index keeps L tables of m_l keys of ceil(k/64) words per role,
    # 16 x m_l x L x words bytes with L before rounding up: refused one byte
    # over the budget, accepted exactly at it
    ctx = LevelContext(n=10, m_l=1000, alpha_count=8, theta_count=5)
    p = derive_params(ctx, epsilon=0.2, delta=0.1)
    nbytes = 16 * ctx.m_l * (ctx.m_l**p.rho * math.log(1.0 / 0.1)) * ((p.k + 63) // 64)
    assert 16 * ctx.m_l * (p.L - 1) < nbytes <= 16 * ctx.m_l * p.L
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", nbytes)
    assert derive_params(ctx, epsilon=0.2, delta=0.1) == p
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", nbytes - 1)
    with pytest.raises(FamilyTooLarge, match="Hamming index too large: "):
        derive_params(ctx, epsilon=0.2, delta=0.1)


def test_derive_params_at_vanishing_delta():
    # L / delta overflows: its limit, no early exit, where L is finite; where
    # 1/delta overflows too, L is infinite and the index over the budget
    ctx = LevelContext(n=10, m_l=10, alpha_count=8, theta_count=5)
    p = derive_params(ctx, epsilon=0.2, delta=1e-308)
    assert p.L == math.ceil(10**p.rho * math.log(1e308) - 1e-12)
    assert p.early_exit_budget is None
    with pytest.raises(FamilyTooLarge, match="too large: inf bytes"):
        derive_params(ctx, epsilon=0.2, delta=1e-320)


def test_tables_monotone_in_delta():
    ctx = LevelContext(n=10, m_l=100, alpha_count=8, theta_count=5)
    tighter = derive_params(ctx, 0.2, 0.05)
    looser = derive_params(ctx, 0.2, 0.2)
    assert tighter.L >= looser.L


def test_build_single_itemset():
    ctx = LevelContext(n=8, m_l=1, alpha_count=4, theta_count=2)
    params = HammingLshParams(rho=0.5, k=3, L=5, early_exit_budget=50)
    level = singleton_level([BitVector.from01("11000000")])
    index = build_index(Level.of(level), params, ctx, seed=0)
    assert index.p_keys.shape == index.q_keys.shape == (1, params.L, 1)


def test_build_identical_vectors_share_buckets():
    ctx = LevelContext(n=8, m_l=2, alpha_count=4, theta_count=2)
    params = HammingLshParams(rho=0.5, k=4, L=6, early_exit_budget=60)
    v = BitVector.from01("10100000")
    index = build_index(Level.of(singleton_level([v, v])), params, ctx, seed=1)
    assert np.array_equal(index.p_keys[0], index.p_keys[1])


def test_identity_projection_partitions_by_vector():
    # sampling every position makes the bucket key the exact padded vector
    ctx = LevelContext(n=6, m_l=3, alpha_count=3, theta_count=2)
    nprime = ctx.padded_length
    params = HammingLshParams(rho=1.0, k=nprime, L=1, early_exit_budget=10)
    vectors = [BitVector.from01("110000"), BitVector.from01("110000"), BitVector.from01("001100")]
    proj = np.arange(nprime, dtype=np.int64).reshape(1, nprime)
    index = build_index(Level.of(singleton_level(vectors)), params, ctx, seed=0, projections=proj)
    keys = index.p_keys[:, 0].tolist()
    assert keys[0] == keys[1] != keys[2]


def test_build_rejects_projections_outside_the_padded_length():
    ctx = LevelContext(n=6, m_l=2, alpha_count=3, theta_count=2)
    params = HammingLshParams(rho=1.0, k=2, L=1, early_exit_budget=10)
    level = Level.of(singleton_level([BitVector.from01("111000"), BitVector.from01("100000")]))
    for bad in (-1, ctx.padded_length):
        with pytest.raises(ValueError, match="projections must lie in"):
            build_index(level, params, ctx, seed=0, projections=[[0, bad]])


def test_keys_at_the_padding_boundaries_match_the_padded_vectors():
    # the first and last own bits, the first and last position of P's run,
    # the first position of Q's run and the last padded position, for a
    # record of weight alpha (no run), the empty record (the longest runs)
    # and one between
    n, alpha = 8, 3
    ctx = LevelContext(n=n, m_l=3, alpha_count=alpha, theta_count=1)
    vectors = [BitVector.from01("10000101"), BitVector.from01("00000000"),
               BitVector.from01("10000001")]
    boundaries = [0, n - 1, n, n + alpha - 1, n + alpha, ctx.padded_length - 1]
    proj = np.array([boundaries, boundaries[::-1]], dtype=np.int64)
    params = HammingLshParams(rho=1.0, k=len(boundaries), L=2, early_exit_budget=10)
    index = build_index(Level.of(singleton_level(vectors)), params, ctx, seed=0, projections=proj)
    for keys, role in ((index.p_keys, PREPROCESS), (index.q_keys, QUERY)):
        for a, v in enumerate(vectors):
            bits = padded_bits_array(v, ctx, role)[proj]
            expected = [sum(int(b) << j for j, b in enumerate(row)) for row in bits]
            assert keys[a, :, 0].tolist() == expected, (role, a)


def test_per_bit_collision_bounds():
    # count matching positions exactly over the whole padded dimension
    n, alpha_count, theta_count = 20, 12, 10
    ctx = LevelContext(n=n, m_l=10, alpha_count=alpha_count, theta_count=theta_count)
    nprime = ctx.padded_length
    p1_bound = (1 + 2 * ctx.theta) / (1 + 2 * ctx.alpha)
    p2_bound = (1 + 2 * (1 - 0.5) * ctx.theta) / (1 + 2 * ctx.alpha)

    x = BitVector.from_indices(n, range(12))
    similar = BitVector.from_indices(n, [*range(10), 18, 19])     # co = 10 == theta_count
    far = BitVector.from_indices(n, [*range(5), *range(12, 19)])  # co = 5 == 0.5*theta_count

    def match_fraction(a, b):
        pa = padded_bits_array(a, ctx, PREPROCESS)
        qb = padded_bits_array(b, ctx, QUERY)
        return np.count_nonzero(pa == qb) / nprime

    assert co_support(x, similar) >= theta_count
    assert match_fraction(x, similar) >= p1_bound - 1e-12
    assert co_support(x, far) <= (1 - 0.5) * theta_count
    assert match_fraction(x, far) <= p2_bound + 1e-12


def test_query_recall_monte_carlo():
    # an indexed twin of the query must be found with probability >= 1-delta
    rng = np.random.default_rng(99)
    n, weight = 60, 30
    v = random_vector(rng, n, weight)
    others = [random_vector(rng, n, 20) for _ in range(8)]
    level = shared_item_level([v, v, *others])
    alpha = max(r.support for r in level)
    ctx = LevelContext(n=n, m_l=len(level), alpha_count=alpha, theta_count=25)
    params = derive_params(ctx, epsilon=0.2, delta=0.1)
    misses = 0
    trials = 200
    for t in range(trials):
        index = build_index(Level.of(level), params, ctx, seed=t)
        res = screen(index, level, ctx, 0)
        if 1 not in res.partners:
            misses += 1
    assert misses / trials <= 0.1 + 3 * np.sqrt(0.1 * 0.9 / trials)


def test_query_single_record_level():
    ctx = LevelContext(n=8, m_l=1, alpha_count=4, theta_count=2)
    params = HammingLshParams(rho=0.5, k=2, L=3, early_exit_budget=30)
    level = singleton_level([BitVector.from01("11110000")])
    index = build_index(Level.of(level), params, ctx, seed=5)
    res = screen(index, level, ctx, 0)
    assert res.partners == [] and res.inspections == 0


def test_query_verification_filters_disjoint():
    # force everyone into one bucket, then let the support filter reject all
    n = 8
    vectors = [BitVector.from01("11000000"), BitVector.from01("00110000"),
               BitVector.from01("00001100")]
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=3, alpha_count=2, theta_count=1)
    params = HammingLshParams(rho=0.5, k=1, L=2, early_exit_budget=20)
    proj = np.full((2, 1), n - 1, dtype=np.int64)  # all vectors have bit n-1 == 0
    index = build_index(Level.of(level), params, ctx, seed=0, projections=proj)
    res = screen(index, level, ctx, 0)
    assert res.partners == []
    assert res.inspections == 2          # both partners verified...
    assert res.verified == {1: 0, 2: 0}  # ...and found disjoint


def test_early_exit_budget():
    n = 12
    rng = np.random.default_rng(4)
    q = random_vector(rng, n, 4)
    partners = [random_vector(rng, n, 4) for _ in range(8)]
    level = singleton_level([q, *partners])
    ctx = LevelContext(n=n, m_l=len(level), alpha_count=4, theta_count=4)

    # every padded vector has bit 0 of the query block equal to 0 at a
    # position where P-padding is also 0: use an always-zero position to
    # force total collisions (queries probe; nothing is ever similar)
    always_zero = None
    for pos in range(ctx.padded_length):
        if all(padded_bits_array(r.vector, ctx, PREPROCESS)[pos] == 0 for r in level) and \
           all(padded_bits_array(r.vector, ctx, QUERY)[pos] == 0 for r in level):
            always_zero = pos
            break
    assert always_zero is not None
    params = HammingLshParams(rho=0.5, k=1, L=1, early_exit_budget=3)
    proj = np.full((1, 1), always_zero, dtype=np.int64)
    index = build_index(Level.of(level), params, ctx, seed=0, projections=proj)

    assert all(co_support(q, p.vector) < 4 for p in level[1:])  # seed keeps them dissimilar
    res = screen(index, level, ctx, 0)
    assert res.early_exit
    assert res.inspections == 3

    # once something similar is found the budget stops applying
    level2 = singleton_level([q, q, *partners])
    ctx2 = LevelContext(n=n, m_l=len(level2), alpha_count=4, theta_count=4)
    index2 = build_index(Level.of(level2), params, ctx2, seed=0,
                         projections=np.full((1, 1), always_zero, dtype=np.int64))
    res2 = screen(index2, level2, ctx2, 0)
    assert not res2.early_exit
    assert res2.inspections == len(level2) - 1


def test_determinism():
    rng = np.random.default_rng(8)
    level = shared_item_level([random_vector(rng, 30, 12) for _ in range(10)])
    ctx = LevelContext(n=30, m_l=10, alpha_count=12, theta_count=6)
    params = derive_params(ctx, 0.3, 0.1)
    a = build_index(Level.of(level), params, ctx, seed=123)
    b = build_index(Level.of(level), params, ctx, seed=123)
    assert np.array_equal(a.p_keys, b.p_keys) and np.array_equal(a.q_keys, b.q_keys)
    for qi, q in enumerate(level):
        ra, rb = screen(a, level, ctx, qi), screen(b, level, ctx, qi)
        assert ra.partners == rb.partners
        assert ra.verified == rb.verified


def test_sort_pays_on_the_benchmark_shapes():
    # negatives' level 2: 400 singletons, 159,600 ordered pairs, one key
    # word per table for Hamming (k = 29) and for covering (a fingerprint)
    ctx = LevelContext(n=2000, m_l=400, alpha_count=604, theta_count=600)
    assert derive_params(ctx, 0.5, 0.1).k <= 64
    assert sort_pays(159_600, 1, 400)
    # wide's level 2: 40 singletons, 1,560 ordered pairs
    assert not sort_pays(1_560, 1, 40)
    # dense-deep's levels 2-9 (seed 1): (records, items each, ordered pairs)
    for m_l, size, pairs in ((11, 1, 110), (49, 2, 790), (119, 3, 2306), (175, 4, 3530),
                             (161, 5, 3010), (91, 6, 1370), (29, 7, 270), (4, 8, 6)):
        assert not sort_pays(pairs, 1, m_l * size), m_l
    # a level with no pair, or no record, never sorts
    assert not sort_pays(0, 1, 1) and not sort_pays(0, 1, 0)
