from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from lshmine.dataset import BitVector
from lshmine.exact import Level
from lshmine.minhash_lsh import (
    MinhashParams,
    build_sketch,
    derive_params,
    estimate_js,
    query,
)
from lshmine.transform import (
    PREPROCESS,
    QUERY,
    LevelContext,
    pad_preprocess,
    pad_query,
    padded_jaccard,
    padded_one_positions,
)

from conftest import level_pairs, random_vector, shared_item_level, singleton_level, sketch_view


def screen(sketch, level, params, qi):
    """Query record qi's part of the MinHash query of `level`."""
    pairs = level_pairs(level)
    return sketch_view(pairs, query(sketch, pairs, params), qi, params.rows)


def test_derive_params_reference_values():
    # alpha=0.8, theta=0.5, eps=0.2, delta=0.1:
    # omega = 0.4/1.2, eps_mh = 0.16/1.04, rows = ceil(2/(omega*eps_mh^2) * ln 10)
    ctx = LevelContext(n=10, m_l=50, alpha_count=8, theta_count=5)
    p = derive_params(ctx, epsilon=0.2, delta=0.1)
    assert abs(p.omega - 1 / 3) < 1e-12
    assert abs(p.eps_mh - 0.16 / 1.04) < 1e-12
    assert p.rows == 584
    assert abs(p.accept_threshold - 0.5 / 1.3) < 1e-12


def test_derive_params_tiny_epsilon_guard():
    ctx = LevelContext(n=10, m_l=50, alpha_count=8, theta_count=5)
    with pytest.raises(ValueError, match="tolerance too small"):
        derive_params(ctx, epsilon=1e-6, delta=0.1)


def test_derive_params_alpha_equals_theta():
    ctx = LevelContext(n=10, m_l=50, alpha_count=5, theta_count=5)
    p = derive_params(ctx, epsilon=0.3, delta=0.1)
    assert abs(p.eps_mh - 0.3) < 1e-12


def test_separation_condition_grid():
    # accept threshold never dips below (1+eps_mh)*omega
    for ac, tc, n in ((8, 5, 10), (6, 5, 10), (9, 3, 12), (7, 7, 14)):
        for eps in (0.1, 0.3, 0.5, 0.9):
            ctx = LevelContext(n=n, m_l=20, alpha_count=ac, theta_count=tc)
            p = derive_params(ctx, eps, 0.1)
            assert p.accept_threshold >= (1 + p.eps_mh) * p.omega - 1e-12


def test_rows_independent_of_n():
    a = derive_params(LevelContext(n=100, m_l=30, alpha_count=80, theta_count=50), 0.2, 0.1)
    b = derive_params(LevelContext(n=200, m_l=30, alpha_count=160, theta_count=100), 0.2, 0.1)
    assert a.rows == b.rows == 584


def test_identical_vectors_identical_columns():
    v = BitVector.from01("110100")
    level = singleton_level([v, v])
    ctx = LevelContext(n=6, m_l=2, alpha_count=3, theta_count=2)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=32, accept_threshold=0.5)
    sketch = build_sketch(Level.of(level), params, ctx, seed=9)
    assert np.array_equal(sketch.columns[:, 0], sketch.columns[:, 1])
    assert np.array_equal(sketch.query_columns[:, 0], sketch.query_columns[:, 1])


def test_single_row_estimates_are_zero_or_one():
    rng = np.random.default_rng(2)
    level = singleton_level([random_vector(rng, 8, 3) for _ in range(4)])
    ctx = LevelContext(n=8, m_l=4, alpha_count=3, theta_count=2)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=1, accept_threshold=0.5)
    sketch = build_sketch(Level.of(level), params, ctx, seed=0)
    for i in range(4):
        for j in range(4):
            assert estimate_js(sketch.columns[:, i], sketch.columns[:, j]) in (0.0, 1.0)


def test_singleton_support_column_tracks_permutation():
    # alpha == weight == 1: P(v) has a single 1, so every row is just the
    # permutation value at that position
    v = BitVector.from_indices(5, [3])
    level = singleton_level([v])
    ctx = LevelContext(n=5, m_l=1, alpha_count=1, theta_count=1)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=16, accept_threshold=0.5)
    sketch = build_sketch(Level.of(level), params, ctx, seed=4)
    assert np.array_equal(sketch.columns[:, 0], sketch.perms[:, 3])


def test_collision_probability_equals_jaccard_exhaustively():
    # over every permutation of a 7-position padded universe, the fraction
    # with matching minima is exactly the padded Jaccard similarity
    n, alpha = 3, 2
    ctx = LevelContext(n=n, m_l=2, alpha_count=alpha, theta_count=1)
    x = BitVector.from01("110")
    y = BitVector.from01("011")
    p_ones = list(padded_one_positions(x, ctx, PREPROCESS))
    q_ones = list(padded_one_positions(y, ctx, QUERY))
    hits = 0
    total = 0
    for perm in permutations(range(ctx.padded_length)):
        total += 1
        if min(perm[i] for i in p_ones) == min(perm[i] for i in q_ones):
            hits += 1
    true_js = padded_jaccard(pad_preprocess(x, ctx), pad_query(y, ctx))
    assert Fraction(hits, total) == true_js


def test_estimate_mean_matches_true_jaccard():
    # x=1100, y=0110 with alpha_count=3: true padded JS = 1/5
    ctx = LevelContext(n=4, m_l=2, alpha_count=3, theta_count=1)
    x, y = BitVector.from01("1100"), BitVector.from01("0110")
    level = singleton_level([x, y])
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=584, accept_threshold=0.5)
    estimates = []
    for seed in range(40):
        sketch = build_sketch(Level.of(level), params, ctx, seed=seed)
        qcol = sketch.query_columns[:, 1]
        estimates.append(estimate_js(sketch.columns[:, 0], qcol))
    assert abs(np.mean(estimates) - 0.2) < 0.02


def test_query_extremes():
    # a twin always passes (estimated JS 1), a disjoint partner never does
    n = 12
    v = BitVector.from_indices(n, range(6))
    w = BitVector.from_indices(n, range(6, 12))
    level = shared_item_level([v, v, w])
    ctx = LevelContext(n=n, m_l=3, alpha_count=6, theta_count=3)
    params = derive_params(ctx, 0.2, 0.1)
    for seed in range(10):
        sketch = build_sketch(Level.of(level), params, ctx, seed=seed)
        res = screen(sketch, level, params, 0)
        assert res.partners == [1]
        assert res.approved[1] == 1.0
        assert 2 in res.rejected


def test_query_does_not_touch_database():
    rng = np.random.default_rng(6)
    level = shared_item_level([random_vector(rng, 16, 6) for _ in range(5)])
    ctx = LevelContext(n=16, m_l=5, alpha_count=6, theta_count=3)
    params = derive_params(ctx, 0.5, 0.2)
    sketch = build_sketch(Level.of(level), params, ctx, seed=1)
    pairs = level_pairs(level)
    assert not hasattr(query(sketch, pairs, params), "reads")
    res = sketch_view(pairs, query(sketch, pairs, params), 0, params.rows)
    assert set(res.approved) | set(res.rejected) == {1, 2, 3, 4}


def test_query_empty_level():
    ctx = LevelContext(n=8, m_l=0, alpha_count=4, theta_count=2)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=8, accept_threshold=0.5)
    sketch = build_sketch(Level.of([]), params, ctx, seed=0)
    res = query(sketch, level_pairs([]), params)
    assert list(res.partners) == [] and len(res.approved) == 0


def test_two_sided_bound_small():
    # pairs sitting exactly on the accept/reject boundaries, 100 sketch draws
    n, ac, tc = 120, 96, 60
    ctx = LevelContext(n=n, m_l=4, alpha_count=ac, theta_count=tc)
    params = derive_params(ctx, 0.2, 0.1)
    accept_a = BitVector.from_indices(n, range(60))
    reject_a = BitVector.from_indices(n, range(60))
    reject_b = BitVector.from_indices(n, range(12, 72))          # co = 48 -> JS = omega
    heavy = BitVector.from_indices(n, range(96))                 # pins alpha
    level = shared_item_level([accept_a, accept_a, reject_a, reject_b, heavy])
    s_star = 60 / (2 * ac - 60)

    v1 = v2 = 0
    trials = 100
    for seed in range(trials):
        sketch = build_sketch(Level.of(level), params, ctx, seed=seed)
        est_acc = estimate_js(sketch.columns[:, 0], sketch.query_columns[:, 1])
        est_rej = estimate_js(sketch.columns[:, 2], sketch.query_columns[:, 3])
        if est_acc < (1 - params.eps_mh) * s_star - 1e-12:
            v1 += 1
        if est_rej > (1 + params.eps_mh) * params.omega + 1e-12:
            v2 += 1
    margin = 0.1 + 3 * np.sqrt(0.1 * 0.9 / trials)
    assert v1 / trials <= margin
    assert v2 / trials <= margin


def test_sketch_determinism():
    rng = np.random.default_rng(12)
    level = shared_item_level([random_vector(rng, 20, 8) for _ in range(6)])
    ctx = LevelContext(n=20, m_l=6, alpha_count=8, theta_count=4)
    params = derive_params(ctx, 0.4, 0.2)
    a = build_sketch(Level.of(level), params, ctx, seed=77)
    b = build_sketch(Level.of(level), params, ctx, seed=77)
    assert np.array_equal(a.perms, b.perms)
    assert np.array_equal(a.columns, b.columns)
    assert np.array_equal(a.query_columns, b.query_columns)


@pytest.mark.parametrize("rows,length", [(1, 3), (1, 5), (7, 33), (50, 1484), (282, 8000)])
def test_sketch_values_are_the_raw_draw(rows, length):
    # the reports' bytes rest on the sketch's hash values being the seed's
    # raw 64-bit words, each split into its low then its high 32 bits, row
    # by row, for plain and SeedSequence seeds alike
    ctx = LevelContext(n=length - 2, m_l=0, alpha_count=1, theta_count=1)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=0.5)
    for seed in (0, 1, 77, np.random.SeedSequence([1, 5])):
        words = np.random.default_rng(seed).bit_generator.random_raw((rows * length + 1) // 2)
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
        expected = halves[:rows * length].reshape(rows, length)
        assert np.array_equal(build_sketch(Level.of([]), params, ctx, seed).perms, expected)


def test_estimates_unbiased_on_a_wide_universe():
    # 32-bit hash values tie most often where the padded sets are largest:
    # pairs of alpha_count = 12,000 padded ones each, at the accept boundary
    # s*, at omega and with disjoint own positions (J = 0), agree on a
    # fraction of 16 x 256 rows within 4 sigma of their padded Jaccard
    n, ac, tc = 20_000, 12_000, 6_000
    ctx = LevelContext(n=n, m_l=4, alpha_count=ac, theta_count=tc)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=256, accept_threshold=0.5)
    a = BitVector.from_indices(n, range(tc))
    partners = [BitVector.from_indices(n, range(tc)),                      # co = tc: s*
                BitVector.from_indices(n, range(tc // 2, 3 * tc // 2)),   # tc/2: omega at eps 0.5
                BitVector.from_indices(n, range(tc, 2 * tc))]             # co = 0: J = 0
    level = Level.of(singleton_level([a, *partners]))
    agree = np.zeros(len(partners), dtype=np.int64)
    seeds = 16
    for seed in range(seeds):
        sketch = build_sketch(level, params, ctx, seed=seed)
        assert sketch.perms.nbytes < 50e6
        agree += np.count_nonzero(sketch.columns[:, [0]] == sketch.query_columns[:, 1:], axis=0)
    draws = seeds * params.rows
    for hits, q in zip(agree.tolist(), partners):
        js = float(padded_jaccard(pad_preprocess(a, ctx), pad_query(q, ctx)))
        assert abs(hits / draws - js) <= 4 * np.sqrt(js * (1 - js) / draws), (hits, js)


def test_padded_length_beyond_int32_rejected():
    # checked before any permutation is allocated
    ctx = LevelContext(n=2**31 - 2, m_l=0, alpha_count=1, theta_count=1)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=1, accept_threshold=0.5)
    with pytest.raises(ValueError, match="does not fit int32"):
        build_sketch(Level.of([]), params, ctx, seed=0)


def test_level_off_its_context_rejected():
    # every record's length must be the context's n, and no weight may pass alpha_count
    level = Level.of(singleton_level([BitVector.from01("110100"), BitVector.from01("111100")]))
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=4, accept_threshold=0.5)
    with pytest.raises(ValueError, match="vector length 6 != level n 7"):
        build_sketch(level, params, LevelContext(n=7, m_l=2, alpha_count=4, theta_count=1), 0)
    with pytest.raises(ValueError, match="popcount 4 exceeds alpha_count 3"):
        build_sketch(level, params, LevelContext(n=6, m_l=2, alpha_count=3, theta_count=1), 0)
    build_sketch(level, params, LevelContext(n=6, m_l=2, alpha_count=4, theta_count=1), 0)
