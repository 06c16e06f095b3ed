"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them inline).

Randomized criteria use fixed seeds and binomial 3-sigma margins around
the guaranteed rates, so the suite is deterministic end to end.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lshmine.covering_lsh import CoveringParams, build_family, verify_covering
from lshmine.dataset import BitVector, co_support
from lshmine.engine import MiningConfig, accounting_check, compare_with_oracle, lsh_apriori_mine
from lshmine.exact import Level, apriori_mine, brute_force_mine
from lshmine.hamming_lsh import build_index as hamming_build
from lshmine.hamming_lsh import derive_params as hamming_derive
from lshmine.hamming_lsh import query as hamming_query
from lshmine.minhash_lsh import build_sketch, estimate_js
from lshmine.minhash_lsh import derive_params as minhash_derive
from lshmine.transform import (
    LevelContext,
    hamming_from_co_support,
    jaccard_from_co_support,
    pad_preprocess,
    pad_query,
    padded_hamming,
    padded_jaccard,
)
from lshmine.cli import report_json

from conftest import (
    TOY_ROWS,
    ColumnDatabase,
    db_from_rows,
    every_pair,
    level_pairs,
    pair_verify,
    query_view,
    random_vector,
    shared_item_level,
)


def announce(num, text):
    print(f"\n[acceptance] criterion {num:02d} PASS  {text}")


def binom_margin(p, trials):
    return 3.0 * np.sqrt(p * (1.0 - p) / trials)


# ----------------------------------------------------------------------
# criterion 1: apriori == brute force on >= 100 seeded random databases
# ----------------------------------------------------------------------

def test_c01_oracle_equivalence_exact_path():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    thetas = (0.2, 0.5, 0.8)
    runs = 0
    for trial in range(105):
        n = int(rng.integers(8, 65))
        m = int(rng.integers(4, 13))
        density = float(rng.uniform(0.2, 0.7))
        hits = rng.random((m, n)) < density
        columns = {}
        for item in range(m):
            ones = np.flatnonzero(hits[item])
            if len(ones):
                columns[item] = BitVector.from_indices(n, ones.tolist())
        if not columns:
            columns[0] = BitVector.from_indices(n, [0])
        db = ColumnDatabase(n=n, m=m, columns=columns)
        theta = thetas[trial % 3]
        assert apriori_mine(db, theta).itemsets.same_itemsets(brute_force_mine(db, theta))
        runs += 1
    elapsed = time.perf_counter() - start
    assert runs >= 100
    assert elapsed < 10.0
    announce(1, f"apriori == brute force on {runs} random databases ({elapsed:.2f}s < 10s)")


# ----------------------------------------------------------------------
# criterion 2: padding identities hold exactly on >= 10^4 random pairs
# ----------------------------------------------------------------------

def test_c02_padding_identities_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(10_000):
        n = int(rng.integers(2, 49))
        alpha = int(rng.integers(1, n + 1))
        ctx = LevelContext(n=n, m_l=2, alpha_count=alpha, theta_count=1)
        x = random_vector(rng, n, int(rng.integers(0, alpha + 1)))
        y = random_vector(rng, n, int(rng.integers(0, alpha + 1)))
        s = co_support(x, y)
        p, q = pad_preprocess(x, ctx), pad_query(y, ctx)
        assert padded_hamming(p, q) == hamming_from_co_support(s, ctx)
        assert padded_jaccard(p, q) == jaccard_from_co_support(s, ctx)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(2, f"distance and similarity identities exact on 10^4 pairs ({elapsed:.2f}s < 5s)")


# ----------------------------------------------------------------------
# criteria 3 + 9 share 200 covering-vs-oracle runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def covering_runs():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    runs = []
    for trial in range(200):
        n = int(rng.integers(12, 17))
        m = int(rng.integers(5, 9))
        density = float(rng.uniform(0.4, 0.6))
        hits = rng.random((m, n)) < density
        columns = {}
        for item in range(m):
            ones = np.flatnonzero(hits[item])
            if len(ones):
                columns[item] = BitVector.from_indices(n, ones.tolist())
        if not columns:
            columns[0] = BitVector.from_indices(n, [0])
        db = ColumnDatabase(n=n, m=m, columns=columns)
        config = MiningConfig(theta=0.5, variant="covering", epsilon=0.5, delta=0.1,
                              seed=trial)
        runs.append((db, compare_with_oracle(db, config)))
    return runs, time.perf_counter() - start


def test_c03_covering_completeness(covering_runs):
    runs, elapsed = covering_runs
    lsh_levels = 0
    for db, comp in runs:
        assert comp.missed == [], f"covering missed itemsets on n={db.n} m={db.m}"
        assert comp.sub_threshold == []
        lsh_levels += sum(1 for row in comp.report.levels if row.lsh_active)
    assert len(runs) == 200
    assert lsh_levels >= 150  # the covering family really ran, not just fallbacks
    assert elapsed < 60.0
    announce(3, f"covering output == oracle on 200 databases, zero misses, "
                f"{lsh_levels} LSH levels exercised ({elapsed:.1f}s < 60s)")


# ----------------------------------------------------------------------
# criterion 4: the covering property itself, exhaustively
# ----------------------------------------------------------------------

def test_c04_covering_property_brute_force():
    from itertools import combinations

    start = time.perf_counter()
    n_prime, mask_dim, radius = 20, 6, 5
    params = CoveringParams(n_prime=n_prime, theta_prime=radius, t=1, c=2.0,
                            eps_round=0.5, nu=0.75, mask_dim=mask_dim,
                            psi_bound=1.0)
    checked = 0
    for draw in range(20):
        fam = build_family(params, seed=draw)
        for size in range(radius + 1):
            for positions in combinations(range(n_prime), size):
                assert verify_covering(fam, positions), (draw, positions)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(4, f"verify_covering true for all {checked} position sets of size <= {radius} "
                f"over 20 draws ({elapsed:.1f}s < 30s)")


# ----------------------------------------------------------------------
# criteria 5 + 6 share 500 Hamming index rebuilds on a planted level
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def hamming_trials():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    n, theta_count = 100, 50
    planted_a = BitVector.from_indices(n, range(60))
    planted_b = BitVector.from_indices(n, range(10, 70))   # co with a: 50 == theta n
    partners = []
    while len(partners) < 17:
        cand = random_vector(rng, n, 50)
        if co_support(cand, planted_a) <= 38 and co_support(cand, planted_b) <= 38:
            partners.append(cand)                          # strictly (1-eps)-infrequent
    level = shared_item_level([planted_a, planted_b, *partners])
    ctx = LevelContext(n=n, m_l=len(level), alpha_count=60, theta_count=theta_count)
    params = hamming_derive(ctx, epsilon=0.2, delta=0.1)
    assert co_support(planted_a, planted_b) == theta_count

    trials = 500
    miss = 0
    events = 0
    infrequent_collisions = []
    pairs = level_pairs(level)
    q, a, _ = every_pair(pairs)
    for t in range(trials):
        index = hamming_build(Level.of(level), params, ctx, seed=t)
        screened = hamming_query(index, pairs, ctx, pair_verify(level, pairs))
        collision_counts = index.collisions(q, a).sum(axis=1)
        for qi, pi in ((0, 1), (1, 0)):
            res = query_view(pairs, screened, qi, params.L)
            events += 1
            if pi not in res.partners:
                miss += 1
            infrequent_collisions.append(
                int(collision_counts[(q == qi) & (a >= 2)].sum()))
    return {
        "params": params,
        "trials": trials,
        "miss_rate": miss / events,
        "mean_infrequent_collisions": float(np.mean(infrequent_collisions)),
        "elapsed": time.perf_counter() - start,
    }


def test_c05_hamming_recall(hamming_trials):
    t = hamming_trials
    bound = 0.1 + binom_margin(0.1, t["trials"])
    assert t["miss_rate"] <= bound
    assert t["elapsed"] < 120.0
    announce(5, f"hamming per-query miss rate {t['miss_rate']:.4f} <= {bound:.4f} "
                f"over {t['trials']} rebuilds ({t['elapsed']:.1f}s < 120s)")


def test_c06_hamming_false_positive_load(hamming_trials):
    t = hamming_trials
    limit = 2 * t["params"].L
    assert t["mean_infrequent_collisions"] <= limit
    announce(6, f"mean collisions with infrequent partners "
                f"{t['mean_infrequent_collisions']:.2f} <= 2L = {limit}")


# ----------------------------------------------------------------------
# criterion 7: MinHash two-sided estimate bound at the derived row count
# ----------------------------------------------------------------------

def test_c07_minhash_two_sided_bound():
    start = time.perf_counter()
    n, alpha_count, theta_count = 120, 96, 60
    ctx = LevelContext(n=n, m_l=5, alpha_count=alpha_count, theta_count=theta_count)
    params = minhash_derive(ctx, epsilon=0.2, delta=0.1)
    assert params.rows == 584
    assert abs(params.omega - 1 / 3) < 1e-12

    accept = BitVector.from_indices(n, range(60))              # paired with itself: co = 60
    reject_a = BitVector.from_indices(n, range(60))
    reject_b = BitVector.from_indices(n, range(12, 72))        # co = 48 = (1-eps) theta n
    heavy = BitVector.from_indices(n, range(96))               # pins alpha_count
    level = shared_item_level([accept, accept, reject_a, reject_b, heavy])

    s_star = Fraction(60, 2 * alpha_count - 60)
    assert padded_jaccard(pad_preprocess(accept, ctx), pad_query(accept, ctx)) == s_star
    assert padded_jaccard(pad_preprocess(reject_a, ctx), pad_query(reject_b, ctx)) == Fraction(1, 3)

    trials = 500
    lower = (1 - params.eps_mh) * float(s_star)
    upper = (1 + params.eps_mh) * params.omega
    v_low = v_high = 0
    for seed in range(trials):
        sketch = build_sketch(Level.of(level), params, ctx, seed=seed)
        est_acc = estimate_js(sketch.columns[:, 0], sketch.query_columns[:, 1])
        est_rej = estimate_js(sketch.columns[:, 2], sketch.query_columns[:, 3])
        if est_acc < lower - 1e-12:
            v_low += 1
        if est_rej > upper + 1e-12:
            v_high += 1
    elapsed = time.perf_counter() - start
    bound = 0.1 + binom_margin(0.1, trials)
    assert v_low / trials <= bound
    assert v_high / trials <= bound
    assert elapsed < 120.0
    announce(7, f"minhash under/over-estimate violations {v_low}/{trials} and "
                f"{v_high}/{trials} <= {bound:.4f} at rows=584 ({elapsed:.1f}s < 120s)")


# ----------------------------------------------------------------------
# criterion 8: end-to-end miss probability <= delta * 2^l per itemset
# ----------------------------------------------------------------------

def test_c08_end_to_end_miss_bound():
    start = time.perf_counter()
    db = db_from_rows(TOY_ROWS)
    oracle = brute_force_mine(db, 0.5).item_tuples()
    trials = 500
    for variant in ("hamming", "minhash"):
        misses = {items: 0 for items in oracle}
        for seed in range(trials):
            config = MiningConfig(theta=0.5, variant=variant, epsilon=0.2, delta=0.1, seed=seed)
            out = lsh_apriori_mine(db, config).itemsets.item_tuples()
            for items in oracle:
                if items not in out:
                    misses[items] += 1
        for items, count in misses.items():
            p = min(1.0, 0.1 * 2 ** len(items))
            bound = p + (binom_margin(p, trials) if p < 1 else 0.0)
            assert count / trials <= bound, (variant, items, count)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(8, f"per-itemset miss rates within delta*2^l + 3 sigma over {trials} runs "
                f"of hamming and minhash ({elapsed:.1f}s < 300s)")


# ----------------------------------------------------------------------
# criterion 9: TN + FP == 2(c - m) on every criterion-3 run
# ----------------------------------------------------------------------

def test_c09_accounting_identity(covering_runs):
    runs, _ = covering_runs
    lsh_rows = 0
    for db, comp in runs:
        for row in comp.report.levels:
            assert accounting_check(row, db.n), row
            if row.lsh_active:
                assert (row.true_negatives + row.false_positives
                        == 2 * (row.candidate_pairs - row.frequent_pairs)), row
                lsh_rows += 1
    assert lsh_rows >= 150
    announce(9, f"TN + FP == 2(c - m) held on all {lsh_rows} LSH levels of the 200 runs")


# ----------------------------------------------------------------------
# criterion 10: every LSH variant reads strictly less than exact Apriori
# ----------------------------------------------------------------------

def test_c10_savings_demonstration():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    n, m, weight = 200, 60, 61
    columns = {}
    for item in range(m):
        positions = rng.choice(n, size=weight, replace=False)
        columns[item] = BitVector.from_indices(n, positions.tolist())
    db = ColumnDatabase(n=n, m=m, columns=columns)
    max_co = max(co_support(columns[i], columns[j])
                 for i in range(m) for j in range(i + 1, m))
    assert max_co < 60  # craft check: every singleton frequent, no pair frequent

    totals = {}
    for variant in ("exact", "hamming", "minhash", "covering"):
        config = MiningConfig(theta=0.3, variant=variant, epsilon=0.5, delta=0.1, seed=5)
        report = lsh_apriori_mine(db, config)
        level2 = report.levels[1]
        assert level2.frequent_count == 0
        totals[variant] = sum(row.transactions_read for row in report.levels)
        if variant == "exact":
            assert level2.candidates == m * (m - 1) // 2

    for variant in ("hamming", "minhash", "covering"):
        assert totals[variant] < totals["exact"], totals
    elapsed = time.perf_counter() - start
    announce(10, "transactions read: exact={exact}, hamming={hamming}, minhash={minhash}, "
                 "covering={covering} ({s:.1f}s)".format(s=elapsed, **totals))


# ----------------------------------------------------------------------
# criterion 11: byte-identical reports across reruns
# ----------------------------------------------------------------------

def test_c11_determinism():
    toy = db_from_rows(TOY_ROWS)
    rng = np.random.default_rng(1011)
    hits = rng.random((10, 60)) < 0.4
    columns = {i: BitVector.from_indices(60, np.flatnonzero(hits[i]).tolist())
               for i in range(10) if hits[i].any()}
    synth = ColumnDatabase(n=60, m=10, columns=columns)

    for db in (toy, synth):
        for variant in ("exact", "hamming", "minhash", "covering"):
            config = MiningConfig(theta=0.4, variant=variant, epsilon=0.3, delta=0.1, seed=7)
            first = report_json(lsh_apriori_mine(db, config))
            second = report_json(lsh_apriori_mine(db, config))
            assert first == second, variant
    announce(11, "byte-identical reports across two runs, all variants")
