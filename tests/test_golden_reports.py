"""Byte-level regression gate for the mining reports.

Pins the sha256 of `report_json` for every variant, and of the combined
`report_csv` of all variants, on three seeded databases with n > 200,
and of the hamming and covering reports on a fourth.  The databases are
chosen so that together they reach every path of the level driver: each
variant has at least one LSH level, hamming and covering hit a
`degenerate_level` fallback, covering hits a `family_too_large`
fallback, and hamming queries stop at their early-exit budget.  A
refactor that changes any counter, any itemset or their order changes a
hash here.
"""

import hashlib
from functools import cache

import numpy as np
import pytest

from lshmine.cli import report_csv, report_json
from lshmine.dataset import BitVector, TransactionDatabase, generate_synthetic
from lshmine.engine import VARIANTS, MiningConfig, lsh_apriori_mine

from conftest import TOY_ROWS, db_from_rows


def negatives_db():
    """c10 shape: 40 items of weight 73 in 240 transactions, so at
    theta 0.3 (72) every singleton is frequent and no pair is; the small
    alpha - theta gap lets the covering family be built."""
    rng = np.random.default_rng(2)
    n = 240
    columns = {i: BitVector.from_indices(n, rng.choice(n, size=73, replace=False).tolist())
               for i in range(40)}
    return TransactionDatabase(n=n, m=40, columns=columns)


def near_miss_db():
    """Planted patterns, like the benchmark's dense-deep, beside a block of
    near misses: at theta 0.25 (100 of 400) two disjoint 5-item patterns
    fill 104 rows each, so their subsets make four more LSH levels whose
    pattern mates collide in every table; 60 items share 96 rows plus 8
    random rows each, so every one is frequent, no pair of them is, and
    their padded vectors collide often enough that each of their Hamming
    queries at level 2 stops at its early-exit budget."""
    rng = np.random.default_rng(5)
    n, shared, private, group, size, patterns, rows = 400, 96, 8, 60, 5, 2, 104
    hits = np.zeros((n, group + patterns * size), dtype=bool)
    hits[:shared, :group] = True
    for item in range(group):
        hits[shared + rng.choice(n - shared, size=private, replace=False), item] = True
    order = shared + rng.permutation(n - shared)
    for p in range(patterns):
        block = order[p * rows:(p + 1) * rows]
        hits[np.ix_(block, group + p * size + np.arange(size))] = True
    columns = {i: BitVector.from_indices(n, np.flatnonzero(hits[:, i]).tolist())
               for i in range(hits.shape[1])}
    return TransactionDatabase(n=n, m=hits.shape[1], columns=columns)


DATABASES = {
    "negatives": (negatives_db, 0.3),
    # five levels; hamming and minhash run LSH at each, covering's family is too large
    "bernoulli": (lambda: generate_synthetic(300, 12, 0.45, 7), 0.08),
    # the toy database 60 times over: level 3 has alpha == theta
    "toy60": (lambda: db_from_rows(TOY_ROWS * 60), 0.5),
    # hamming early exits and covering LSH on five levels
    "near_miss": (near_miss_db, 0.25),
}

REPORT_SHA256 = {
    ("negatives", "exact"):
        "cd03260ea8401294e3d55ab9fcc0d5e59f4ffdf293deb1b814eae25ff0876b94",
    ("negatives", "hamming"):
        "dea63c0153ddcc4e70a875ecbd79a956c8a3d1dd4cd6685b9a6430cf8ff4a497",
    ("negatives", "minhash"):
        "951755e48d9a06c7401556168a24c580796b995ed79094896440e96c8f144237",
    ("negatives", "covering"):
        "8b866cf66599dd4398612db499db155410ba468ace2ea3588974833e4b3be8be",
    ("bernoulli", "exact"):
        "dbdf71e48b28884d1648b8b680c8b89d68a23918b8191729e8402bd247b9c98f",
    ("bernoulli", "hamming"):
        "c048b603201593d38e9680f371e7a26f2a4593f970b9b717bfdf43e110b2b965",
    ("bernoulli", "minhash"):
        "0d132e228272554680ef76c43695e12b0b1b6a210f14cbaccdd37ec85e0fe09d",
    ("bernoulli", "covering"):
        "83254adc3cee1013617f14d39970f673540d368ed2e028b7735416c0bfa6adb1",
    ("toy60", "exact"):
        "64ec945cba09c240552ef9411978c773c91f65f2cb0cc4a038765e55811f6639",
    ("toy60", "hamming"):
        "22e6539cad3a1183637601cf62791b49e322b0fc46c032c630277407419746a7",
    ("toy60", "minhash"):
        "52a126b715fa8fec29e2ad69ecee6e76f6d1ce3a7e3008ffbeeed6f2102438c8",
    ("toy60", "covering"):
        "8759a654fdd25528da445f0a0eade5cd518be641623882cf31c55eb4eec68fc6",
    ("near_miss", "hamming"):
        "5cbf6c97d310d44cfe799906dc46bbcfc64ca369ec15db2f32b53bcbb7db6706",
    ("near_miss", "covering"):
        "5957efe3ffc3f7035f9e488bc5b6e496f1c775700f17a0f7b0b3ba3c8d12f1a2",
}

CSV_SHA256 = {
    "negatives": "1e4413e96310b726be42fee8636d962a5c56a638d6c04a7152b5c76ae120ba69",
    "bernoulli": "733380282cdf1a29fd0ba2eb69f7ef5c180b40e1b06d9a606f44f9b539197c88",
    "toy60": "3a6640fac128e10a8bd645378dd223c8de231b5e7ba3bee3a3462d8c32a5b66e",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@cache
def mined(db_name: str, variant: str):
    make, theta = DATABASES[db_name]
    lsh = variant != "exact"
    config = MiningConfig(theta=theta, variant=variant, epsilon=0.5 if lsh else None,
                          delta=0.1 if lsh else None, seed=3)
    return lsh_apriori_mine(make(), config)


@pytest.mark.parametrize("db_name,variant", sorted(REPORT_SHA256))
def test_report_json_hash(db_name, variant):
    assert sha256(report_json(mined(db_name, variant))) == REPORT_SHA256[db_name, variant]


@pytest.mark.parametrize("db_name", sorted(CSV_SHA256))
def test_report_csv_hash(db_name):
    reports = [mined(db_name, v) for v in VARIANTS]
    assert sha256(report_csv(reports)) == CSV_SHA256[db_name]


def test_databases_reach_every_driver_path():
    rows = {v: [row for db_name in DATABASES for row in mined(db_name, v).levels]
            for v in VARIANTS}
    assert all(mined(db_name, "exact").db_n > 200 for db_name in DATABASES)
    for variant in ("hamming", "minhash", "covering"):
        assert any(row.lsh_active for row in rows[variant]), variant
    reasons = {row.fallback_reason for v in VARIANTS for row in rows[v]}
    assert {"degenerate_level", "family_too_large"} <= reasons
