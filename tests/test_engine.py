import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest

from lshmine import covering_lsh, engine, exact, hamming_lsh, minhash_lsh, transform
from lshmine.cli import report_json
from lshmine.dataset import BitVector, ItemsetRecord, load_transactions, write_transactions
from lshmine.engine import (
    VARIANTS,
    MiningConfig,
    accounting_check,
    compare_with_oracle,
    lsh_apriori_mine,
)
from lshmine.exact import (
    Level,
    apriori_mine,
    brute_force_mine,
    join_level,
    pair_cosupport,
)
from lshmine.transform import LevelContext

from conftest import (
    TOY_FREQUENT,
    ColumnDatabase,
    add_item,
    column_records,
    db_from_rows,
    downward_closed,
    every_pair,
    pairwise_join,
    projection_masks,
    query_view,
    random_db,
    reference_minhash_query,
    reference_probe,
    reference_screen,
    reference_tables,
    sketch_view,
)
from test_golden_reports import DATABASES, bench_workload, mine, near_miss_db  # noqa: F401


def lsh_config(variant, theta=0.5, seed=1, **kw):
    return MiningConfig(theta=theta, variant=variant, epsilon=0.2, delta=0.1, seed=seed, **kw)


def test_config_validation():
    with pytest.raises(ValueError, match="theta"):
        MiningConfig(theta=1.5).validate()
    with pytest.raises(ValueError, match="variant"):
        MiningConfig(theta=0.5, variant="simhash").validate()
    with pytest.raises(ValueError, match="requires epsilon"):
        MiningConfig(theta=0.5, variant="hamming").validate()
    with pytest.raises(ValueError, match="epsilon"):
        MiningConfig(theta=0.5, variant="hamming", epsilon=2.0, delta=0.1).validate()
    MiningConfig(theta=0.5).validate()


def test_exact_variant_is_apriori(toy_db):
    report = lsh_apriori_mine(toy_db, MiningConfig(theta=0.5))
    assert report.itemsets.as_dict() == TOY_FREQUENT
    assert report.itemsets.same_itemsets(apriori_mine(toy_db, 0.5).itemsets)


def test_exact_variant_matches_oracle_random():
    rng = np.random.default_rng(404)
    for _ in range(15):
        db = random_db(rng, n_max=40, m_max=9)
        report = lsh_apriori_mine(db, MiningConfig(theta=0.4))
        assert report.itemsets.same_itemsets(brute_force_mine(db, 0.4))
        assert downward_closed(report.itemsets)


def test_covering_equals_exact(toy_db):
    report = lsh_apriori_mine(toy_db, lsh_config("covering"))
    assert report.itemsets.as_dict() == TOY_FREQUENT


def test_covering_equals_exact_random():
    rng = np.random.default_rng(515)
    for trial in range(25):
        db = random_db(rng, n_max=20, m_max=7, density_range=(0.3, 0.6))
        comp = compare_with_oracle(db, lsh_config("covering", theta=0.5, seed=trial))
        assert comp.missed == [], f"trial {trial}"
        assert comp.sub_threshold == []


def test_no_variant_emits_sub_threshold():
    rng = np.random.default_rng(626)
    for trial in range(8):
        db = random_db(rng, n_max=24, m_max=7, density_range=(0.3, 0.6))
        for variant in ("exact", "hamming", "minhash", "covering"):
            comp = compare_with_oracle(db, lsh_config(variant, theta=0.4, seed=trial))
            assert comp.sub_threshold == [], (variant, trial)


def test_hamming_toy_miss_rate():
    db = db_from_rows([[1, 2, 3], [1, 2], [1, 3], [2, 3]])
    oracle = brute_force_mine(db, 0.5).item_tuples()
    misses = {items: 0 for items in oracle}
    trials = 100
    for seed in range(trials):
        out = lsh_apriori_mine(db, lsh_config("hamming", seed=seed)).itemsets.item_tuples()
        for items in oracle:
            if items not in out:
                misses[items] += 1
    for items, count in misses.items():
        bound = 0.1 * 2 ** len(items)
        sigma = np.sqrt(bound * (1 - bound) / trials) if bound < 1 else 0.0
        assert count / trials <= bound + 3 * sigma, items


def test_accounting_identity_all_variants():
    rng = np.random.default_rng(737)
    lsh_rows = 0
    for trial in range(10):
        db = random_db(rng, n_max=32, m_max=8, density_range=(0.3, 0.6))
        for variant in ("exact", "hamming", "minhash", "covering"):
            report = lsh_apriori_mine(db, lsh_config(variant, theta=0.4, seed=trial))
            for row in report.levels:
                assert accounting_check(row, db.n), (variant, trial, row)
                lsh_rows += row.lsh_active
    assert lsh_rows > 20  # the identity was actually exercised


@pytest.mark.parametrize("db_name", ["near_miss", "bernoulli"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_transactions_read_follows_the_cost_rule(monkeypatch, db_name, variant):
    """What a level reads is what it charges: n per distinct candidate it
    verified, on every row.  An LSH level reads each co-support through the
    engine's `pair_cosupport`, once per distinct union it verified."""
    calls = Counter()

    def counted(packed, i, j):
        calls["co_support"] += len(i)
        return pair_cosupport(packed, i, j)
    monkeypatch.setattr(engine, "pair_cosupport", counted)

    make, theta = DATABASES[db_name]
    db = make()
    config = MiningConfig(theta=theta, variant=variant, epsilon=0.5, delta=0.1, seed=3)
    report = lsh_apriori_mine(db, config)
    assert report.levels[0].candidates == len(db.items)
    for row in report.levels:
        assert row.transactions_read == db.n * row.emitted_candidates
        if not row.lsh_active:
            assert row.emitted_candidates == row.candidates
    assert calls["co_support"] == sum(row.emitted_candidates
                                      for row in report.levels if row.lsh_active)
    if db_name == "near_miss" and variant != "exact":
        assert any(row.lsh_active for row in report.levels)
        assert calls["co_support"] > 0


def test_load_mine_and_report_build_no_records(monkeypatch, tmp_path):
    # from the loaded file to the JSON report every variant works on the
    # packed arrays: no BitVector and no ItemsetRecord is built on the way,
    # on any golden database (LSH levels, fallbacks and early exits)
    dbs = {name: make() for name, (make, _) in DATABASES.items()}
    paths = {name: tmp_path / f"{name}.dat" for name, db in dbs.items()
             if all(db.transactions())}   # not near_miss: FIMI cannot hold its empty rows
    for name, path in paths.items():
        write_transactions(dbs[name], path)
    built = Counter()
    vector_init, record_post_init = BitVector.__init__, ItemsetRecord.__post_init__

    def counted_vector(self, *args):
        built["BitVector"] += 1
        vector_init(self, *args)

    def counted_record(self):
        built["ItemsetRecord"] += 1
        record_post_init(self)
    monkeypatch.setattr(BitVector, "__init__", counted_vector)
    monkeypatch.setattr(ItemsetRecord, "__post_init__", counted_record)

    for name, (_, theta) in DATABASES.items():
        for variant in VARIANTS:
            db = load_transactions(paths[name]) if name in paths else dbs[name]
            report = mine(db, theta, variant, seed=3)
            report_json(report)
            assert not built, (name, variant, built)
    records = list(report.itemsets.all_records())   # iterating a level builds them
    assert built == Counter(BitVector=len(records), ItemsetRecord=len(records)) and records


def test_accounting_check_enforces_the_read_charge(toy_db):
    # levels 1 (scan), 2 (LSH) and 3 (degenerate fallback): each holds the
    # rule, and breaking either half of it fails the check
    n = toy_db.n
    rows = lsh_apriori_mine(toy_db, lsh_config("hamming")).levels
    assert [row.lsh_active for row in rows] == [False, True, False]
    for row in rows:
        assert accounting_check(row, n)
        assert not accounting_check(replace(row, transactions_read=row.transactions_read + n), n)
        over = row.candidates + 1
        assert not accounting_check(replace(row, emitted_candidates=over,
                                            transactions_read=n * over), n)


def test_tn_dominates_when_nothing_extends():
    # two frequent singletons, disjoint supports: one candidate pair, zero
    # frequent pairs, so TN + FP == 2 and the next level is empty
    db = db_from_rows([[0]] * 5 + [[1]] * 5)
    report = lsh_apriori_mine(db, lsh_config("covering", theta=0.4))
    row = report.levels[1]
    assert row.frequent_count == 0
    assert row.candidate_pairs == 1 and row.frequent_pairs == 0
    assert row.true_negatives + row.false_positives == 2
    assert row.savings_estimate == (db.n - row.phi) * row.true_negatives


def test_minhash_defers_verification(toy_db):
    report = lsh_apriori_mine(toy_db, lsh_config("minhash"))
    assert report.itemsets.as_dict() == TOY_FREQUENT
    level2 = report.levels[1]
    # reads = n per distinct union verified, nothing during the sketch scan
    assert level2.transactions_read == toy_db.n * level2.emitted_candidates
    assert level2.phi == 508  # rows for alpha=0.75, theta=0.5, eps=0.2, delta=0.1


def test_degenerate_fallback_logged(toy_db):
    for variant in ("hamming", "covering"):
        report = lsh_apriori_mine(toy_db, lsh_config(variant))
        level3 = report.levels[2]
        assert level3.fallback_reason == "degenerate_level"
        assert not level3.lsh_active
        assert report.itemsets.as_dict() == TOY_FREQUENT


def test_family_too_large_fallback(monkeypatch):
    # with no byte budget every variant's index is too large
    monkeypatch.setattr(transform, "MAX_INDEX_BYTES", 0)
    rng = np.random.default_rng(848)
    db = random_db(rng, n_max=30, m_max=7, density_range=(0.4, 0.6))
    for variant in ("hamming", "minhash", "covering"):
        report = lsh_apriori_mine(db, lsh_config(variant, theta=0.3))
        reasons = {row.fallback_reason for row in report.levels if row.level > 1}
        assert "family_too_large" in reasons, variant
        assert not any(row.lsh_active for row in report.levels), variant
        assert report.itemsets.same_itemsets(brute_force_mine(db, 0.3)), variant


def test_covering_table_entry_cap_falls_back_quickly():
    # three items of supports 30, 35 and 40 at theta_count 30: level 2's
    # family has mask_dim 21, 3 x (2^21 - 1) table entries, which once took
    # seconds and gigabytes to build
    db = db_from_rows([[i for i, s in enumerate((30, 35, 40)) if j < s] for j in range(100)])
    t0 = time.perf_counter()
    report = lsh_apriori_mine(db, lsh_config("covering", theta=0.3))
    assert time.perf_counter() - t0 < 1.0
    assert report.levels[1].fallback_reason == "family_too_large"
    assert report.itemsets.same_itemsets(brute_force_mine(db, 0.3))


def test_max_level():
    db = db_from_rows([[1, 2, 3], [1, 2, 3], [1, 2], [1, 3]])
    report = lsh_apriori_mine(db, MiningConfig(theta=0.5, max_level=1))
    assert report.itemsets.max_level() == 1
    assert len(report.levels) == 1
    report2 = lsh_apriori_mine(db, MiningConfig(theta=0.5, max_level=2))
    assert report2.itemsets.max_level() == 2


def test_report_structure(toy_db):
    report = lsh_apriori_mine(toy_db, lsh_config("hamming"))
    assert [row.level for row in report.levels] == [1, 2, 3]
    assert report.db_n == 4 and report.db_m == 4
    level2 = report.levels[1]
    assert level2.overhead_hashes == 2 * 3
    assert level2.hash_bits_read == 2 * 3 * level2.phi
    assert any(k.startswith("level2:") for k in report.timings)
    # an LSH level times its phases apart; a fallback level only joins
    phases = {row.level: sorted(k.split(":")[1] for k in report.timings
                                if k.startswith(f"level{row.level}:"))
              for row in report.levels[1:]}
    assert report.levels[1].lsh_active and report.levels[2].fallback_reason is not None
    assert phases[2] == ["build", "query", "sweep", "verify"]
    assert phases[3] == ["sweep"]


def test_determinism_across_runs(toy_db):
    for variant in ("exact", "hamming", "minhash", "covering"):
        cfg = lsh_config(variant, seed=9)
        base = report_json(lsh_apriori_mine(toy_db, cfg))
        again = report_json(lsh_apriori_mine(toy_db, cfg))
        assert base == again, variant


def test_seed_changes_hamming_randomness():
    # different seeds must reach different projections (sanity on seeding)
    rng = np.random.default_rng(959)
    db = random_db(rng, n_max=30, m_max=8, density_range=(0.4, 0.7))
    r1 = lsh_apriori_mine(db, lsh_config("hamming", theta=0.3, seed=1))
    r2 = lsh_apriori_mine(db, lsh_config("hamming", theta=0.3, seed=2))
    assert r1.itemsets.theta_count == r2.itemsets.theta_count  # same task, possibly same output


def test_compare_with_oracle_fills_misses(toy_db):
    comp = compare_with_oracle(toy_db, lsh_config("covering"))
    assert comp.clean
    assert comp.oracle_count == 6 and comp.output_count == 6
    assert all(row.misses_vs_oracle == 0 for row in comp.report.levels)


def test_compare_oracle_guard():
    db = db_from_rows([list(range(21))])
    with pytest.raises(ValueError, match="too large"):
        compare_with_oracle(db, MiningConfig(theta=0.5))



# The level screen against the per-record screen it replaced
# (`conftest.reference_screen`), on levels of the benchmark's sizes.

def engine_screen(monkeypatch, variant, level, ctx, params, index):
    """The engine's screen of `level` with `index` as the variant's index:
    the found unions, distinct unions read, TN, FP, the query's result and
    the pairs it screened."""
    module = {"hamming": hamming_lsh, "covering": covering_lsh, "minhash": minhash_lsh}[variant]
    seen = []
    query = module.query
    monkeypatch.setattr(module, "query",
                        lambda *args, **kw: seen.append(query(*args, **kw)) or seen[-1])
    hooks = replace(engine._LSH_VARIANTS[variant], build=lambda *args: index)
    sweep = join_level(Level.of(level), ctx.theta_count)
    chosen, emitted, tn, fp = engine._screen_level(hooks, Level.of(level), ctx, params, None,
                                                   sweep, "level2", {})
    return sweep.unions(chosen), emitted, tn, fp, seen[0], sweep


def assert_screen_matches_reference(monkeypatch, variant, level, ctx, params, index,
                                    reference_query):
    """Per query: the verified partners in visit order (with co-supports),
    the found partners and the early exit, or MinHash's approved and
    rejected partners; per level: the unions found and read, TN and FP."""
    found, emitted, tn, fp, res, pairs = engine_screen(monkeypatch, variant, level, ctx, params,
                                                       index)
    ref_found, ref_emitted, ref_tn, ref_fp, ref_results = reference_screen(
        level, reference_join(level, ctx.theta_count), reference_query)
    assert (emitted, tn, fp) == (ref_emitted, ref_tn, ref_fp)
    q, _, y = found
    assert {add_item(level[i].items, x) for i, x in zip(q.tolist(), y.tolist())} == \
        ref_found.keys()
    for qi, ref in enumerate(ref_results):
        if variant == "minhash":
            view = sketch_view(pairs, res, qi, params.rows)
            assert (view.approved, view.rejected) == (ref.approved, ref.rejected), qi
        else:
            view = query_view(pairs, res, qi, index.p_keys.shape[1])
            assert list(view.verified.items()) == list(ref.verified.items()), qi
            assert view.partners == ref.partners, qi
            assert view.early_exit == ref.early_exit, qi
    return res, tn, fp


@lru_cache(maxsize=2)
def reference_join(level, theta_count):
    return pairwise_join(list(level), theta_count)


def negatives_level():
    # shaped like the benchmark's `negatives`: 400 singletons over n = 2000,
    # each item in 601..604 random rows, theta_count 600: no pair is frequent
    rng = np.random.default_rng(41)
    n, m = 2000, 400
    hits = np.zeros((n, m), dtype=bool)
    for item in range(m):
        hits[rng.choice(n, size=601 + int(rng.integers(0, 4)), replace=False), item] = True
    level = tuple(column_records(hits, [(item,) for item in range(m)]))
    return level, LevelContext(n=n, m_l=m, alpha_count=max(r.support for r in level),
                               theta_count=600)


def planted_deep_level():
    # the level dense-deep screens for level 5: four 8-item windows of a random order of 11
    # items, each filling 85 of 800 rows, noise at 0.2 elsewhere; the
    # frequent 4-itemsets at theta_count 60 are the windows' 4-subsets
    rng = np.random.default_rng(42)
    n, m = 800, 11
    order, rows = rng.permutation(m), rng.permutation(n)
    hits = np.zeros((n, m), dtype=bool)
    for p in range(4):
        hits[np.ix_(rows[p * 85:(p + 1) * 85], order[p:p + 8])] = True
    hits[rows[340:]] = rng.random((n - 340, m)) < 0.2
    level = tuple(r for r in column_records(hits, combinations(range(m), 4)) if r.support >= 60)
    return level, LevelContext(n=n, m_l=len(level), alpha_count=max(r.support for r in level),
                               theta_count=60)


def hamming_reference(level, ctx, params, projections):
    """A per-record probe of the dict tables of the same projections."""
    masks = projection_masks(projections)
    tables = reference_tables(level, masks, ctx)
    return lambda i, q, compatible, verify: reference_probe(
        tables, masks, q, ctx, compatible, verify, params.early_exit_budget)


def test_screen_matches_reference_at_negatives_size(monkeypatch):
    level, ctx = negatives_level()
    seed = np.random.SeedSequence([1, 2])
    pairs = len(level) * (len(level) - 1)

    params = hamming_lsh.derive_params(ctx, 0.5, 0.1)
    assert (params.L, params.k) == (3, 29)
    projections = np.random.default_rng(seed).integers(0, ctx.padded_length, (3, 29))
    index = hamming_lsh.build_index(Level.of(level), params, ctx, seed, projections=projections)
    _, tn, fp = assert_screen_matches_reference(
        monkeypatch, "hamming", level, ctx, params, index,
        hamming_reference(level, ctx, params, projections))
    assert fp > 0 and tn + fp == pairs

    params = covering_lsh.derive_params(ctx, 0.5, 0.1)
    assert params.mask_dim == 9
    # a drawn phi keeps about half the positions in every mask, and nothing
    # collides; one that maps all but 60 positions to 0 keeps at most those
    # 60, so some keys collide and, under a budget set on the index (the
    # shared screen's, which covering's index does not have), some
    # fruitless queries exit early
    sparse = np.zeros(ctx.padded_length, dtype=np.int64)
    rng = np.random.default_rng(43)
    sparse[rng.choice(ctx.padded_length, 60, replace=False)] = rng.integers(1, 512, 60)
    collided = exits = 0
    for phi in (None, sparse):
        family = covering_lsh.build_family(params, seed, phi=phi)
        index = covering_lsh.build_index(Level.of(level), family, ctx)
        masks = family.masks   # built on each access
        tables = reference_tables(level, masks, ctx)
        for budget in (None, 5):
            res, tn, fp = assert_screen_matches_reference(
                monkeypatch, "covering", level, ctx, params,
                replace(index, early_exit_budget=budget),
                lambda i, q, compatible, verify: reference_probe(
                    tables, masks, q, ctx, compatible, verify, budget))
            assert tn + fp == pairs
            collided += fp
            exits += res.early_exit
    assert collided > 0 and 0 < exits < len(level)

    params = minhash_lsh.derive_params(ctx, 0.5, 0.1)
    sketch = minhash_lsh.build_sketch(Level.of(level), params, ctx, seed)
    approved = 0
    # the derived threshold approves no pair here; a lower one approves some
    for accept in (params.accept_threshold, 0.3):
        params = replace(params, accept_threshold=accept)
        res, _, _ = assert_screen_matches_reference(
            monkeypatch, "minhash", level, ctx, params, sketch,
            lambda i, q, compatible, verify: reference_minhash_query(sketch, i, params,
                                                                     compatible))
        approved += len(res.approved)
    assert 0 < approved < len(res.rejected)


def test_screen_matches_reference_on_a_planted_deep_level(monkeypatch):
    level, ctx = planted_deep_level()
    assert len(level) == 175 and len(level[0].items) == 4
    seed = np.random.SeedSequence([1, 5])
    projections = np.random.default_rng(seed).integers(0, ctx.padded_length, (246, 10))
    inspections = set()
    # ceil(L / delta), then budgets that every query with a partner reaches:
    # its first visits find a partner, and the rest are verified after them
    for budget in (2460, 3, 1):
        params = hamming_lsh.HammingLshParams(rho=0.9, k=10, L=246, early_exit_budget=budget)
        index = hamming_lsh.build_index(Level.of(level), params, ctx, seed, projections=projections)
        res, tn, fp = assert_screen_matches_reference(
            monkeypatch, "hamming", level, ctx, params, index,
            hamming_reference(level, ctx, params, projections))
        assert fp > 0 and len(res.partners) > 0 and res.early_exit == 0
        inspections.add(res.inspections)
    assert len(inspections) == 1 and inspections.pop() > budget * len(level)

    params = minhash_lsh.derive_params(ctx, 0.5, 0.1)
    sketch = minhash_lsh.build_sketch(Level.of(level), params, ctx, seed)
    res, _, _ = assert_screen_matches_reference(
        monkeypatch, "minhash", level, ctx, params, sketch,
        lambda i, q, compatible, verify: reference_minhash_query(sketch, i, params, compatible))
    assert len(res.approved) > 0 and len(res.rejected) > 0


def test_level_screen_memory_is_bounded():
    # the transient memory of a negatives-size level screen: a few words per
    # ordered pair, a few chunks of exact.PAIR_CHUNK_WORDS words, and the
    # index; a step over every pair (or record) at once breaks the bound
    level, ctx = negatives_level()
    sweep = join_level(Level.of(level), ctx.theta_count)
    pairs = 2 * sweep.candidate_pairs
    chunks = 16 * 8 * exact.PAIR_CHUNK_WORDS
    hamming = hamming_lsh.derive_params(ctx, 0.5, 0.1)
    covering = covering_lsh.derive_params(ctx, 0.5, 0.1)
    minhash = minhash_lsh.derive_params(ctx, 0.5, 0.1)
    masks = (1 << covering.mask_dim) - 1
    for variant, params, index_bytes in (
            ("hamming", hamming, 2 * len(level) * hamming.L * (hamming.k + 63) // 64 * 8),
            ("covering", covering, 2 * len(level) * masks * 8),   # P and Q fingerprints
            # the sketch's records and query_records at the 4 bytes a value
            # that derive_params prices, and the build's table of held bits,
            # a word a group of 64 records, role and padded position
            ("minhash", minhash, 4 * 2 * len(level) * minhash.rows
             + 2 * 8 * -(-len(level) // 64) * (ctx.padded_length + 1))):
        tracemalloc.start()
        try:
            engine._screen_level(engine._LSH_VARIANTS[variant], Level.of(level), ctx, params,
                                 np.random.SeedSequence([1, 2]), sweep, "level2", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * pairs + chunks + index_bytes, variant


def test_level_screen_memory_is_bounded_with_4095_tables():
    # covering at negatives size with mask_dim 12, 4,095 tables, on the sort
    # path, held to test_level_screen_memory_is_bounded's bound
    level, ctx = negatives_level()
    sweep = join_level(Level.of(level), ctx.theta_count)
    params = covering_lsh.CoveringParams(
        n_prime=ctx.padded_length, theta_prime=11, t=1, c=2.0, eps_round=0.5, nu=0.75,
        mask_dim=12, psi_bound=8.0)
    phi = np.random.default_rng(44).integers(0, 1 << 12, ctx.padded_length)
    hooks = replace(engine._LSH_VARIANTS["covering"], build=lambda level, params, ctx, seed:
                    covering_lsh.build_index(level, covering_lsh.build_family(params, seed, phi=phi),
                                             ctx))
    pairs = 2 * sweep.candidate_pairs
    masks = (1 << 12) - 1
    assert hamming_lsh.sort_pays(pairs, 1, len(level))
    tracemalloc.start()
    try:
        engine._screen_level(hooks, Level.of(level), ctx, params,
                             np.random.SeedSequence([1, 2]), sweep, "level2", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    index_bytes = 2 * len(level) * masks * 8   # P and Q fingerprints
    assert peak < 32 * pairs + 16 * 8 * exact.PAIR_CHUNK_WORDS + index_bytes


def test_sorted_level_reads_only_the_pairs_it_touches(monkeypatch):
    # on the sort path the level screen, its verification and its found
    # unions read pairs through `members`: every ordered pair is never built
    level, ctx = negatives_level()
    sweep = join_level(Level.of(level), ctx.theta_count)
    monkeypatch.setattr(exact, "_filing_pairs", None)   # the step that lists every pair
    params = hamming_lsh.derive_params(ctx, 0.5, 0.1)
    chosen, emitted, tn, fp = engine._screen_level(engine._LSH_VARIANTS["hamming"],
                                                   Level.of(level), ctx, params,
                                                   np.random.SeedSequence([1, 2]), sweep,
                                                   "level2", {})
    sweep.unions(chosen)
    assert emitted > 0 and fp > 0 and tn + fp == 2 * sweep.candidate_pairs


def test_minhash_level_reads_only_the_pairs_it_touches(monkeypatch):
    # the MinHash screen counts its one join group's matches by broadcast,
    # and its verification and found unions read pairs through `members`:
    # every ordered pair is never listed
    level, ctx = negatives_level()
    sweep = join_level(Level.of(level), ctx.theta_count)
    monkeypatch.setattr(exact, "_filing_pairs", None)   # the step that lists every pair
    # a threshold below the derived one (0.495), so that some pairs are approved
    params = replace(minhash_lsh.derive_params(ctx, 0.5, 0.1), accept_threshold=0.25)
    chosen, emitted, tn, fp = engine._screen_level(engine._LSH_VARIANTS["minhash"],
                                                   Level.of(level), ctx, params,
                                                   np.random.SeedSequence([1, 2]), sweep,
                                                   "level2", {})
    sweep.unions(chosen)
    assert emitted > 0 and fp > 0 and tn + fp == 2 * sweep.candidate_pairs


def test_heavily_shared_keys_take_the_pairwise_path(monkeypatch):
    # covering's all-zero phi at negatives size: every pair collides in
    # every table, so the sort path would check pairs x tables meetings
    # (43x slower at 63 tables); the level's sizes still favour sorting,
    # and the meeting count sends the screen to the pairwise path
    level, ctx = negatives_level()
    pairs = join_level(Level.of(level), ctx.theta_count)
    assert hamming_lsh.sort_pays(len(pairs), 1, len(level))
    pairwise = hamming_lsh.MaskIndex.pairwise_first_tables
    q, a, _ = every_pair(pairs)
    calls = []
    monkeypatch.setattr(hamming_lsh.MaskIndex, "pairwise_first_tables",
                        lambda self, q, a: calls.append(len(q)) or pairwise(self, q, a))
    for mask_dim in (3, 6):
        params = covering_lsh.CoveringParams(
            n_prime=ctx.padded_length, theta_prime=mask_dim - 1, t=1, c=2.0, eps_round=0.5,
            nu=0.75, mask_dim=mask_dim, psi_bound=8.0)
        family = covering_lsh.build_family(params, 0, phi=np.zeros(ctx.padded_length, dtype=int))
        index = covering_lsh.build_index(Level.of(level), family, ctx)
        calls.clear()
        first = index.first_tables(pairs)
        assert calls == [len(pairs)]
        assert (first == 0).all() and np.array_equal(first, pairwise(index, q, a))
        assert index.sorted_first_tables(pairs, most=len(pairs) / hamming_lsh.MEETING_FACTOR) \
            is None


def test_sweep_reads_the_first_word_where_the_bound_can_settle(monkeypatch):
    # at negatives size every record has fewer than theta ones past word 0,
    # so the sweep reads one word per pair and the other words of the pairs
    # the bound leaves open; at the planted level no record does, and the
    # sweep reads every word of every pair in one pass
    words = Counter()

    def counted(packed, i, j):
        words["passes"] += 1
        words["read"] += len(i) * packed.shape[1]
        return pair_cosupport(packed, i, j)
    for make in (negatives_level, planted_deep_level):
        level, ctx = make()
        current = Level.of(level)
        sweep = join_level(current, ctx.theta_count)
        i, j = (rows.copy() for rows in sweep.pair_rows)   # the first read drops them
        every_word = sweep.candidate_pairs * current.packed.shape[1]
        rest = current.supports - np.bitwise_count(current.packed[:, 0])
        part = pair_cosupport(current.packed[:, :1], i, j)
        unsettled = (part < ctx.theta_count) & \
            (part + np.minimum(rest[i], rest[j]) >= ctx.theta_count)
        words.clear()
        with monkeypatch.context() as patch:
            patch.setattr(exact, "pair_cosupport", counted)
            frequent = sweep.pair_frequent
        assert frequent.tolist() == (pair_cosupport(current.packed, i, j)
                                     >= ctx.theta_count).tolist()
        if make is negatives_level:
            assert (rest < ctx.theta_count).all()
            assert words["read"] <= sweep.candidate_pairs + \
                np.count_nonzero(unsettled) * (current.packed.shape[1] - 1)
            assert words["read"] * 32 <= every_word
        else:
            assert (rest >= ctx.theta_count).all()
            assert words == {"passes": 1, "read": every_word}


# A lossless level (covering) reads no all-pairs
# co-support: it counts TN and FP off the pairs it verified, and its
# frequent pairs in closed form.

def test_lossless_level_never_lists_every_co_support(monkeypatch):
    # covering at negatives size reads the co-support of the unions it
    # verified and of the next level's build only; Hamming, which is not
    # lossless, reads every pair's on the same level, for TN and FP
    level, ctx = negatives_level()
    db = ColumnDatabase(n=ctx.n, m=len(level), columns={r.items[0]: r.vector for r in level})
    rows = Counter()

    def counted(packed, i, j):
        rows["read"] += len(i)
        return pair_cosupport(packed, i, j)
    monkeypatch.setattr(exact, "pair_cosupport", counted)
    monkeypatch.setattr(engine, "pair_cosupport", counted)
    for variant in ("covering", "hamming"):
        rows.clear()
        report = lsh_apriori_mine(db, MiningConfig(theta=0.3, variant=variant, epsilon=0.5,
                                                   delta=0.1))
        assert len(report.levels) == 2
        row = report.levels[1]
        assert row.lsh_active and row.candidate_pairs == 400 * 399 // 2
        assert accounting_check(row, db.n), row
        if variant == "hamming":
            assert rows["read"] >= row.candidate_pairs
        else:
            assert rows["read"] <= row.emitted_candidates + row.frequent_count
            assert rows["read"] < row.candidate_pairs // 100


def test_accounting_check_catches_a_lossless_level_that_skips_a_frequent_pair(monkeypatch):
    # covering's query made to skip one direction of one frequent pair: the
    # other direction still finds the union, so the itemsets stay the same,
    # but the level no longer verified every frequent pair both ways round
    db, theta = near_miss_db(), 0.25
    config = MiningConfig(theta=theta, variant="covering", epsilon=0.5, delta=0.1, seed=3)
    whole = lsh_apriori_mine(db, config)
    lsh_rows = [row for row in whole.levels if row.lsh_active]
    assert len(lsh_rows) == 5 and sum(row.frequent_pairs for row in lsh_rows) == 160
    assert all(accounting_check(row, db.n) for row in whole.levels)

    query, skipped = covering_lsh.query, []

    def skipping_query(index, sweep, ctx, verify):
        skip = []   # the first frequent pair verified at the first level that has one

        def skipping_verify(sel):
            co = pair_cosupport(sweep.packed, *sweep.members(sel)[:2])
            if not skipped and (co >= ctx.theta_count).any():
                skip.append(sel[np.argmax(co >= ctx.theta_count)])
                skipped.append(skip[0])
            kept = ~np.isin(sel, skip)
            co[kept] = verify(sel[kept])
            return co
        result = query(index, sweep, ctx, skipping_verify)
        return replace(result, partners=result.partners[~np.isin(result.partners, skip)])
    monkeypatch.setattr(covering_lsh, "query", skipping_query)
    report = lsh_apriori_mine(db, config)
    assert len(skipped) == 1
    assert report.itemsets.as_dict() == whole.itemsets.as_dict()
    assert [row.level for row in report.levels if not accounting_check(row, db.n)] == [2]


def test_complete_levels_pair_in_closed_form(bench_workload):
    # the premise of the lossless count: a level that holds every frequent
    # l-itemset (exact, or covering) makes each frequent
    # (l+1)-itemset from C(l+1, 2) compatible pairs
    reports = [mine(make(), theta, variant, seed=3) for make, theta in DATABASES.values()
               for variant in ("exact", "covering")]
    for workload in ("negatives", "dense-deep", "wide"):
        db, theta = bench_workload(workload)
        reports += [mine(db, theta, variant, seed=1) for variant in ("exact", "covering")
                    if (workload, variant) != ("wide", "covering")]   # raises OverflowError
    rows = [row for report in reports for row in report.levels if row.level >= 2]
    for row in rows:
        assert row.frequent_pairs == comb(row.level, 2) * row.frequent_count, row
    assert sum(row.frequent_pairs > 0 for row in rows) > 20
