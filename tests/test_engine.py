from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lshmine import engine
from lshmine.cli import report_json
from lshmine.dataset import co_support
from lshmine.engine import (
    VARIANTS,
    MiningConfig,
    accounting_check,
    compare_with_oracle,
    lsh_apriori_mine,
)
from lshmine.exact import apriori_mine, brute_force_mine

from conftest import TOY_FREQUENT, db_from_rows, downward_closed, random_db
from test_golden_reports import DATABASES


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
        comp = compare_with_oracle(db, lsh_config("covering", theta=0.5, seed=trial,
                                                  mask_dim_cap=14))
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
    engine's `co_support`, once per distinct union it verified."""
    calls = Counter()

    def counted(x, y):
        calls["co_support"] += 1
        return co_support(x, y)
    monkeypatch.setattr(engine, "co_support", counted)

    make, theta = DATABASES[db_name]
    db = make()
    config = MiningConfig(theta=theta, variant=variant, epsilon=0.5, delta=0.1, seed=3)
    report = lsh_apriori_mine(db, config)
    assert report.levels[0].candidates == len(db.items())
    for row in report.levels:
        assert row.transactions_read == db.n * row.emitted_candidates
        if not row.lsh_active:
            assert row.emitted_candidates == row.candidates
    assert calls["co_support"] == sum(row.emitted_candidates
                                      for row in report.levels if row.lsh_active)
    if db_name == "near_miss" and variant != "exact":
        assert any(row.lsh_active for row in report.levels)
        assert calls["co_support"] > 0


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


def test_family_too_large_fallback():
    rng = np.random.default_rng(848)
    db = random_db(rng, n_max=30, m_max=7, density_range=(0.4, 0.6))
    config = lsh_config("covering", theta=0.3, mask_dim_cap=1)
    report = lsh_apriori_mine(db, config)
    reasons = {row.fallback_reason for row in report.levels if row.level > 1}
    assert "family_too_large" in reasons
    assert report.itemsets.same_itemsets(brute_force_mine(db, 0.3))


def test_covering_early_exit_flag_end_to_end(toy_db):
    # derived budgets dwarf the toy level sizes, so the flag must not cost
    # anything here; output still matches the oracle, no sub-threshold leaks
    for seed in range(50):
        comp = compare_with_oracle(
            toy_db, lsh_config("covering", seed=seed, covering_early_exit=True))
        assert comp.sub_threshold == []
        assert comp.missed == []


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
