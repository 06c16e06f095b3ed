from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from lshmine import transform
from lshmine.covering_lsh import (
    CoveringParams,
    FamilyTooLarge,
    build_family,
    build_index,
    derive_params,
    query,
    verify_covering,
)
from lshmine.dataset import BitVector, co_support
from lshmine.exact import Level
from lshmine.transform import DegenerateLevel, LevelContext, pad_preprocess

from conftest import level_pairs, pair_verify, query_view, random_vector, singleton_level


def screen(index, level, ctx, qi):
    """Query record qi's part of the covering screen of `level`."""
    pairs = level_pairs(level)
    res = query(index, pairs, ctx, pair_verify(level, pairs))
    return query_view(pairs, res, qi, index.p_keys.shape[1])


def screen_all(index, level, ctx):
    """Every query record's part of the covering screen of `level`."""
    pairs = level_pairs(level)
    res = query(index, pairs, ctx, pair_verify(level, pairs))
    return [query_view(pairs, res, qi, index.p_keys.shape[1]) for qi in range(len(level))]


def small_params(n_prime, mask_dim, theta_prime=None):
    """Hand-rolled parameter block for family-level tests."""
    return CoveringParams(
        n_prime=n_prime, theta_prime=theta_prime or (mask_dim - 1), t=1, c=2.0,
        eps_round=0.5, nu=0.75, mask_dim=mask_dim, psi_bound=8.0,
    )


def test_derive_params_reference_values():
    # n=20, m_l=100, alpha=0.6, theta=0.5, eps=0.5
    ctx = LevelContext(n=20, m_l=100, alpha_count=12, theta_count=10)
    p = derive_params(ctx, epsilon=0.5, delta=0.1)
    assert p.n_prime == 44
    assert p.theta_prime == 4
    assert p.t == 1
    assert abs(p.eps_round - 0.671059272429422) < 1e-12
    assert abs(p.c - 3.5) < 1e-12
    assert abs(p.nu - 0.4774455064084063) < 1e-12
    assert p.mask_dim == 5
    assert abs(p.psi_bound - 47.917532553820514) < 1e-9


def test_derive_params_single_itemset_floors_t():
    ctx = LevelContext(n=20, m_l=1, alpha_count=12, theta_count=10)
    assert derive_params(ctx, 0.5, 0.1).t == 1


def test_derive_params_degenerate():
    ctx = LevelContext(n=20, m_l=10, alpha_count=10, theta_count=10)
    with pytest.raises(DegenerateLevel):
        derive_params(ctx, 0.5, 0.1)


def test_derive_params_cap():
    # theta' = 40 would need 2^41 masks
    ctx = LevelContext(n=100, m_l=50, alpha_count=70, theta_count=50)
    with pytest.raises(FamilyTooLarge, match="covering family too large"):
        derive_params(ctx, 0.5, 0.1)


def test_derive_params_table_entry_cap():
    # 3 itemsets at mask_dim 21: 3 x (2^21 - 1) table entries of 16 B
    # exceed MAX_INDEX_BYTES, which is 2^20 entries: at mask_dim 19,
    # 2 x (2^19 - 1) entries fit and 3 x (2^19 - 1) do not
    ctx = LevelContext(n=100, m_l=3, alpha_count=40, theta_count=30)
    with pytest.raises(FamilyTooLarge, match="covering family too large: 100,663,248 bytes"
                                             " > budget 16,777,216"):
        derive_params(ctx, 0.5, 0.1)
    assert transform.MAX_INDEX_BYTES == 16 * (1 << 20)
    assert derive_params(replace(ctx, m_l=2, alpha_count=39), 0.5, 0.1).mask_dim == 19
    with pytest.raises(FamilyTooLarge, match=" 25,165,776 bytes "):
        derive_params(replace(ctx, alpha_count=39), 0.5, 0.1)


def test_derive_params_byte_budget_boundary(monkeypatch):
    # the family's bytes are 16 x (2^mask_dim - 1) x m_l: refused one byte
    # over the budget, accepted exactly at it
    ctx = LevelContext(n=100, m_l=2, alpha_count=39, theta_count=30)
    nbytes = 16 * ((1 << derive_params(ctx, 0.5, 0.1).mask_dim) - 1) * ctx.m_l
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", nbytes)
    assert derive_params(ctx, 0.5, 0.1).mask_dim == 19
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", nbytes - 1)
    with pytest.raises(FamilyTooLarge):
        derive_params(ctx, 0.5, 0.1)


def test_family_size_and_determinism():
    params = small_params(n_prime=10, mask_dim=4)
    fam1 = build_family(params, seed=3)
    fam2 = build_family(params, seed=3)
    assert len(fam1.masks) == 2**4 - 1
    assert fam1.masks == fam2.masks
    assert np.array_equal(fam1.phi, fam2.phi)
    assert all(0 <= m < (1 << 10) for m in fam1.masks)


def test_family_linearity():
    # masks are linear in v over GF(2): a(v1) xor a(v2) == a(v1 xor v2)
    for dim in (2, 3, 5):
        params = small_params(n_prime=12, mask_dim=dim)
        fam = build_family(params, seed=dim)
        size = (1 << dim) - 1
        for v1 in range(1, size + 1):
            for v2 in range(v1 + 1, size + 1):
                v3 = v1 ^ v2
                if v3 == 0:
                    continue
                assert fam.masks[v1 - 1] ^ fam.masks[v2 - 1] == fam.masks[v3 - 1]


def test_family_masks_match_definition():
    # linearity alone holds for any map phi; check every mask bit against
    # a(v)_i = parity(phi(i) & v), including injected maps with high bits set
    for dim in range(2, 7):
        params = small_params(n_prime=13, mask_dim=dim)
        phis = [build_family(params, seed=10 + dim).phi,
                np.arange(13, dtype=np.int64) * 37 + 1000]
        for phi in phis:
            fam = build_family(params, seed=0, phi=phi)
            assert len(fam.masks) == 2**dim - 1
            for v in range(1, 2**dim):
                expected = sum((int(phi[i]) & v).bit_count() % 2 << i for i in range(13))
                assert fam.masks[v - 1] == expected, (dim, v)


def test_family_mask_dim_one_is_phi():
    params = small_params(n_prime=9, mask_dim=1, theta_prime=0)
    fam = build_family(params, seed=5)
    expected = sum(int(fam.phi[i]) << i for i in range(9))
    assert fam.masks == [expected]


def test_family_forced_zero_phi():
    params = small_params(n_prime=8, mask_dim=3)
    fam = build_family(params, seed=0, phi=np.zeros(8, dtype=np.int64))
    assert fam.masks == [0] * 7


def test_index_zero_mask_single_bucket():
    # pathological phi == 0 puts every record into one bucket per mask;
    # the query-side verification still rejects everything dissimilar
    n = 8
    rng = np.random.default_rng(7)
    vectors = [random_vector(rng, n, 3) for _ in range(5)]
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=5, alpha_count=3, theta_count=3)
    params = small_params(n_prime=ctx.padded_length, mask_dim=3)
    fam = build_family(params, seed=0, phi=np.zeros(ctx.padded_length, dtype=np.int64))
    index = build_index(Level.of(level), fam, ctx)
    assert len(index.tables) == 7
    for table in index.tables:
        assert list(table.values()) == [[0, 1, 2, 3, 4]]
    res = screen(index, level, ctx, 0)
    truth = {i for i in range(1, 5) if co_support(vectors[0], vectors[i]) >= 3}
    assert set(res.partners) == truth
    assert res.inspections == 4  # everything collided and got verified


def test_index_all_ones_mask_partitions_by_vector():
    n = 6
    vectors = [BitVector.from01("110000"), BitVector.from01("110000"), BitVector.from01("001100")]
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=3, alpha_count=2, theta_count=1)
    params = small_params(n_prime=ctx.padded_length, mask_dim=1, theta_prime=0)
    fam = build_family(params, seed=0, phi=np.ones(ctx.padded_length, dtype=np.int64))
    assert fam.masks == [(1 << ctx.padded_length) - 1]
    index = build_index(Level.of(level), fam, ctx)
    # the one table groups the records by their whole padded vector
    assert len(index.tables) == 1
    assert sorted(index.tables[0].values()) == [[0, 1], [2]]


def test_close_pairs_always_share_a_bucket():
    # records within the padded radius collide under some mask, every time
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(8, 16))
        theta_count = int(rng.integers(2, 5))
        weights = rng.integers(theta_count, min(n, theta_count + 3) + 1, size=5)
        vectors = [random_vector(rng, n, int(w)) for w in weights]
        level = singleton_level(vectors)
        alpha = max(v.popcount() for v in vectors)
        if alpha == theta_count:
            continue
        ctx = LevelContext(n=n, m_l=5, alpha_count=alpha, theta_count=theta_count)
        params = derive_params(ctx, epsilon=0.5, delta=0.1)
        fam = build_family(params, seed=trial)
        index = build_index(Level.of(level), fam, ctx)
        padded = [pad_preprocess(v, ctx).bits.value for v in vectors]
        res = screen_all(index, level, ctx)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                if co_support(vectors[i], vectors[j]) >= theta_count:
                    assert j in res[i].collided, (trial, i, j, padded)


def test_query_no_misses_on_random_levels():
    # zero false negatives across random levels, deterministically
    rng = np.random.default_rng(33)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(10, 25))
        m_l = int(rng.integers(3, 16))
        theta_count = int(rng.integers(2, max(3, n // 3)))
        vectors = [random_vector(rng, n, int(rng.integers(theta_count, min(n, theta_count + 4) + 1)))
                   for _ in range(m_l)]
        alpha = max(v.popcount() for v in vectors)
        if alpha == theta_count:
            continue
        level = singleton_level(vectors)
        ctx = LevelContext(n=n, m_l=m_l, alpha_count=alpha, theta_count=theta_count)
        try:
            params = derive_params(ctx, epsilon=0.5, delta=0.1)
        except FamilyTooLarge:
            continue
        fam = build_family(params, seed=1000 + trial)
        index = build_index(Level.of(level), fam, ctx)
        for qi, res in enumerate(screen_all(index, level, ctx)):
            expected = {i for i in range(m_l)
                        if i != qi and co_support(vectors[qi], vectors[i]) >= theta_count}
            assert set(res.partners) == expected, (trial, qi)
        checked += 1
    assert checked >= 40


def test_query_disjoint_level_empty():
    n = 12
    vectors = [BitVector.from_indices(n, range(i * 3, i * 3 + 3)) for i in range(4)]
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=4, alpha_count=3, theta_count=2)
    params = derive_params(ctx, 0.5, 0.1)
    fam = build_family(params, seed=2)
    index = build_index(Level.of(level), fam, ctx)
    for res in screen_all(index, level, ctx):
        assert res.partners == []


def test_false_positive_load_within_bound():
    # mean verified-but-dissimilar count per query stays under psi_bound
    rng = np.random.default_rng(50)
    n, theta_count = 14, 4
    vectors = [random_vector(rng, n, 5) for _ in range(12)]
    alpha = max(v.popcount() for v in vectors)
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=12, alpha_count=alpha, theta_count=theta_count)
    params = derive_params(ctx, 0.5, 0.1)
    totals = []
    for seed in range(30):
        fam = build_family(params, seed=seed)
        index = build_index(Level.of(level), fam, ctx)
        for res in screen_all(index, level, ctx):
            fp = sum(1 for idx, co in res.verified.items() if co < theta_count)
            totals.append(fp)
    assert np.mean(totals) <= params.psi_bound


def test_early_exit_flag():
    # a covering index has no budget; the shared screen applies one set on it
    n = 10
    rng = np.random.default_rng(60)
    vectors = [random_vector(rng, n, 3) for _ in range(8)]
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=8, alpha_count=3, theta_count=3)
    params = small_params(n_prime=ctx.padded_length, mask_dim=3)
    fam = build_family(params, seed=0, phi=np.zeros(ctx.padded_length, dtype=np.int64))
    index = build_index(Level.of(level), fam, ctx)
    q = level[0]
    assert all(co_support(q.vector, v) < 3 for v in vectors[1:])
    assert index.early_exit_budget is None
    res_off = screen(index, level, ctx, 0)
    assert not res_off.early_exit and res_off.inspections == 7
    res_on = screen(replace(index, early_exit_budget=2), level, ctx, 0)
    assert res_on.early_exit and res_on.inspections == 2


def test_verify_covering_trivial_cases():
    params = small_params(n_prime=10, mask_dim=4)
    fam = build_family(params, seed=8)
    assert verify_covering(fam, [])
    for i in range(10):
        assert verify_covering(fam, [i])
    with pytest.raises(ValueError, match="out of range"):
        verify_covering(fam, [10])


def brute_force_orthogonal_exists(fam, positions):
    """Independent oracle: enumerate every nonzero v."""
    for v in range(1, 1 << fam.mask_dim):
        if all(bin(int(fam.phi[i]) & v).count("1") % 2 == 0 for i in positions):
            return True
    return False


def test_verify_covering_exhaustive_small():
    params = small_params(n_prime=12, mask_dim=4, theta_prime=3)
    for seed in range(5):
        fam = build_family(params, seed=seed)
        for size in range(4):
            for positions in combinations(range(12), size):
                assert verify_covering(fam, positions)
                assert brute_force_orthogonal_exists(fam, positions)


def test_verify_covering_matches_oracle_beyond_radius():
    # past the radius the rank argument no longer guarantees True, but the
    # implementation must still agree with brute force either way
    rng = np.random.default_rng(77)
    params = small_params(n_prime=16, mask_dim=3, theta_prime=2)
    for seed in range(5):
        fam = build_family(params, seed=seed)
        for _ in range(100):
            size = int(rng.integers(0, 7))
            positions = rng.choice(16, size=size, replace=False).tolist()
            assert verify_covering(fam, positions) == brute_force_orthogonal_exists(fam, positions)
