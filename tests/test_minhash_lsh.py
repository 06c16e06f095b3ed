import importlib.util
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from lshmine import exact, minhash_lsh, transform
from lshmine.dataset import BitVector, TransactionDatabase
from lshmine.engine import MiningConfig, lsh_apriori_mine
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
    FamilyTooLarge,
    LevelContext,
    pad_preprocess,
    pad_query,
    padded_jaccard,
    padded_one_positions,
)

from conftest import (
    level_pairs,
    random_vector,
    reference_sketch,
    sample_stream,
    shared_item_level,
    singleton_level,
    sketch_view,
)


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
    # about 1.9e13 rows: a sketch of 8 x 50 x rows bytes over MAX_INDEX_BYTES
    ctx = LevelContext(n=10, m_l=50, alpha_count=8, theta_count=5)
    with pytest.raises(FamilyTooLarge,
                       match="MinHash sketch too large: 7,661,858,862,263,231 bytes"):
        derive_params(ctx, epsilon=1e-6, delta=0.1)
    # an underflowed omega * eps_mh^2 is an infinite row count, and falls back too
    with pytest.raises(FamilyTooLarge, match="too large: inf bytes"):
        derive_params(ctx, epsilon=1e-200, delta=0.1)


def test_derive_params_byte_budget_boundary(monkeypatch):
    # the sketch's bytes are 8 x m_l x rows, with rows before rounding up:
    # refused one byte over the budget, accepted exactly at it
    ctx = LevelContext(n=10, m_l=50, alpha_count=8, theta_count=5)
    p = derive_params(ctx, epsilon=0.2, delta=0.1)
    nbytes = 8 * ctx.m_l * ((2.0 / (p.omega * p.eps_mh * p.eps_mh)) * math.log(1.0 / 0.1))
    assert 8 * ctx.m_l * (p.rows - 1) < nbytes <= 8 * ctx.m_l * p.rows
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", nbytes)
    assert derive_params(ctx, epsilon=0.2, delta=0.1) == p
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", nbytes - 1)
    with pytest.raises(FamilyTooLarge):
        derive_params(ctx, epsilon=0.2, delta=0.1)


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
    # alpha == weight == 1: P(v) holds position 3 alone, so every row's
    # value is the index of the row's first sample at position 3
    v = BitVector.from_indices(5, [3])
    level = singleton_level([v])
    ctx = LevelContext(n=5, m_l=1, alpha_count=1, theta_count=1)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=16, accept_threshold=0.5)
    sketch = build_sketch(Level.of(level), params, ctx, seed=4)
    assert sketch.columns[:, 0].tolist() == [row.tolist().index(3) for row in sketch.perms]


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
    # the reports' bytes rest on the sketch's values being read off the
    # seed's raw draw: row r's t-th sample is the seed's raw 32-bit half
    # t * rows + r mapped by Lemire's multiply-shift, for plain and
    # SeedSequence seeds alike, `perms` redraws what the build drew, and each
    # value is the index of the first of those samples its padded vector holds
    weight = length // 3   # one record of weight alpha over n = length - 2 alpha
    n = length - 2 * weight
    level = Level.of(singleton_level([BitVector.from_indices(n, range(weight))]))
    ctx = LevelContext(n=n, m_l=1, alpha_count=weight, theta_count=1)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=0.5)
    for seed in (0, 1, 77, np.random.SeedSequence([1, 5])):
        sketch = build_sketch(level, params, ctx, seed)
        assert sketch.samples > sketch.records.max()
        assert np.array_equal(sketch.perms, sample_stream(seed, rows, length, sketch.samples))
        reference_sketch(level, ctx, sketch, seed)


def test_estimates_unbiased_on_a_wide_universe():
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




def chunk_levels():
    """Three levels over an odd n, so that the padded length is odd: heavy
    records ("probed"), records whose transactions repeat in blocks of 15
    ("classed") and light records, one of them empty ("gathered").  Each
    holds a record with |v| == alpha_count."""
    rng = np.random.default_rng(30)
    n = 101
    probed = [BitVector.from_indices(n, rng.choice(n, size=s, replace=False).tolist())
              for s in (70, 64, 66, 61)]
    blocks = [range(0, 15), range(15, 30), range(30, 45)]
    classed = [BitVector.from_indices(n, [j for k, b in enumerate(blocks) if i >> k & 1 for j in b])
               for i in range(8)] * 3
    gathered = [BitVector.from_indices(n, rng.choice(n, size=s, replace=False).tolist())
                for s in (5, 0, 3, 4)]
    return {"probed": probed, "classed": classed, "gathered": gathered}


@pytest.mark.parametrize("path", ["probed", "classed", "gathered"])
@pytest.mark.parametrize("rows,chunk", [(1, 1), (1, 3), (2, 3), (7, 1), (7, 2), (7, 3), (8, 3)])
def test_sketch_is_the_same_across_chunk_boundaries(monkeypatch, path, rows, chunk):
    # blocks of 1, 2 or 4 samples (BLOCK_MISS at the level's miss rate to
    # the power chunk), so that cells stay open across many blocks, over an
    # odd padded length, so that a raw word's two halves fall in two rows or
    # two blocks: the same sketch as the default blocks give, each value the
    # index of the first sample its padded vector holds
    vectors = chunk_levels()[path]
    n = vectors[0].length
    ctx = LevelContext(n=n, m_l=len(vectors), alpha_count=max(v.popcount() for v in vectors),
                       theta_count=1)
    level = singleton_level(vectors)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=0.5)
    assert ctx.padded_length % 2 == 1
    whole = build_sketch(Level.of(level), params, ctx, seed=5)
    monkeypatch.setattr(minhash_lsh, "BLOCK_MISS", (1 - ctx.alpha_count / ctx.padded_length) ** chunk)
    sketch = build_sketch(Level.of(level), params, ctx, seed=5)
    block = 1 << chunk - 1
    assert sketch.samples % block == 0 and sketch.samples > block   # blocks of `block` samples
    assert np.array_equal(sketch.records, whole.records)
    assert np.array_equal(sketch.query_records, whole.query_records)
    reference_sketch(level, ctx, sketch, 5)


@pytest.mark.parametrize("rows", [281, 1124])
def test_sketch_build_holds_no_hash_matrix(rows):
    # 64 records of weight 5,000 over n = 50,000 (n' = 60,000): the build's
    # peak is the sketch it keeps, its table of held bits (a word a record
    # group, role and padded position: 2.4x the packed level here) and a
    # few chunks of samples and held words.  It holds no rows x n' matrix
    # and no chunk of 2^20 32-bit hash values (4 MiB)
    n, rng = 50_000, np.random.default_rng(8)
    hits = np.zeros((64, 50_048), dtype=bool)
    for row in hits:
        row[rng.choice(n, size=5_000, replace=False)] = True
    packed = np.packbits(hits, axis=1, bitorder="little").view("<u8")
    level = Level(np.arange(64).reshape(-1, 1), packed, np.full(64, 5_000), n)
    ctx = LevelContext(n=n, m_l=64, alpha_count=5_000, theta_count=2_000)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=rows, accept_threshold=0.5)
    tracemalloc.start()
    try:
        sketch = build_sketch(level, params, ctx, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunks = 8 * 8 * exact.PAIR_CHUNK_WORDS
    assert peak < 2 * sketch.records.nbytes + 3 * packed.nbytes + chunks, peak


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, the benchmark's own generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("minhash_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def test_minhash_recall_at_bench_size(workloads):
    # seeds 1-10 of the three bench workloads (n 800 to 5,000 over 11 to 400
    # items) at the bench's epsilon 0.5 and delta 0.1: MinHash finds every
    # itemset exact finds, and reads what the bench reads at seed 1, 800,000
    # transactions on negatives and 511,200 on dense-deep, on every seed
    reads = {"negatives": 800_000, "dense-deep": 511_200}
    for name in ("negatives", "dense-deep", "wide"):
        for seed in range(1, 11):
            inst = workloads.generate(name, seed)
            items = np.flatnonzero(inst.hits.any(axis=0))
            rows = np.packbits(inst.hits[:, items].T, axis=1, bitorder="little")
            packed = np.zeros((len(items), -(-inst.n // 64) * 8), dtype=np.uint8)
            packed[:, :rows.shape[1]] = rows
            db = TransactionDatabase(inst.n, inst.m, items.astype(np.int64), packed.view("<u8"))
            exact_sets = lsh_apriori_mine(db, MiningConfig(theta=inst.theta)).itemsets
            report = lsh_apriori_mine(db, MiningConfig(theta=inst.theta, variant="minhash",
                                                       epsilon=0.5, delta=0.1))
            assert report.itemsets.item_tuples() == exact_sets.item_tuples(), (name, seed)
            if name in reads:
                assert sum(row.transactions_read for row in report.levels) == reads[name]


def test_sketch_values_widen_past_255():
    # alpha_count = 1 over n = 700: a cell holds 1 of 702 positions, so
    # values pass 255 and the sketch takes uint16, each value still the
    # index of the first sample its padded vector holds
    n = 700
    vectors = [BitVector.from_indices(n, [5]), BitVector.from_indices(n, []),
               BitVector.from_indices(n, [699])]
    level = singleton_level(vectors)
    ctx = LevelContext(n=n, m_l=3, alpha_count=1, theta_count=1)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=4, accept_threshold=0.5)
    sketch = build_sketch(Level.of(level), params, ctx, seed=2)
    assert sketch.records.dtype == np.uint16 and sketch.records.max() > 255
    reference_sketch(level, ctx, sketch, 2)
