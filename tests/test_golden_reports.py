"""Byte-level regression gate for the mining reports.

Pins the sha256 of `report_json` for every variant, and of the combined
`report_csv` of all variants, on three seeded databases with n > 200,
and of the hamming and covering reports on a fourth.  The databases are
chosen so that together they reach every path of the level driver: each
variant has at least one LSH level, hamming and covering hit a
`degenerate_level` fallback, covering hits a `family_too_large`
fallback, and hamming queries stop at their early-exit budget.  It also
pins every variant's report on the benchmark's three workloads (seed 1),
generated by `perfbench/workloads.py` and read back from a FIMI file.  A
refactor that changes any counter, any itemset or their order changes a
hash here.  The Hamming and covering reports are pinned a second time
without their verification charge, so a change to that charge alone
shows which hashes it may move.  The MinHash reports' itemsets are
pinned on their own, so a change to the sketch's random draws, which
moves MinHash's counters, shows that it left its answers alone.
"""

import hashlib
import importlib.util
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from lshmine.cli import report_csv, report_json
from lshmine.dataset import BitVector, TransactionDatabase, generate_synthetic, load_transactions
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
        "c3d2d17970b342e93bb9b4e9ebd87d4e48a42e90db70bd66235af99958205b75",
    ("negatives", "minhash"):
        "951755e48d9a06c7401556168a24c580796b995ed79094896440e96c8f144237",
    ("negatives", "covering"):
        "8b866cf66599dd4398612db499db155410ba468ace2ea3588974833e4b3be8be",
    ("bernoulli", "exact"):
        "dbdf71e48b28884d1648b8b680c8b89d68a23918b8191729e8402bd247b9c98f",
    ("bernoulli", "hamming"):
        "3d432a73d9b1cdf8d1f607589c81691762cfd5a0d274a6e5a0ac4ee6ee35fb29",
    ("bernoulli", "minhash"):
        "0d3a3a5ba3598ff2d50bad030c7989eab2e68412ad1dbdf8b4dd4289094aaf6d",
    ("bernoulli", "covering"):
        "83254adc3cee1013617f14d39970f673540d368ed2e028b7735416c0bfa6adb1",
    ("toy60", "exact"):
        "64ec945cba09c240552ef9411978c773c91f65f2cb0cc4a038765e55811f6639",
    ("toy60", "hamming"):
        "200bf7fb994d48007bb0aecdafed9837976ef4b76cea64529322e615aba4f329",
    ("toy60", "minhash"):
        "52a126b715fa8fec29e2ad69ecee6e76f6d1ce3a7e3008ffbeeed6f2102438c8",
    ("toy60", "covering"):
        "8759a654fdd25528da445f0a0eade5cd518be641623882cf31c55eb4eec68fc6",
    ("near_miss", "hamming"):
        "cffe47769428617473cdad663b3065f25cbdd2363ae563556f28b2bb708fc988",
    ("near_miss", "covering"):
        "4e61bbcbd298f5bbcd872a7d095aa2367c34559756d8b8e14aa3a6d900cd9b81",
}

CSV_SHA256 = {
    "negatives": "b083ab0c5816c76fde50b944cce45e3eb2fa8b689dee42980b10d9023317b711",
    "bernoulli": "f7b1c9e4ec71e99f13ec45ddddfb572fc49dd3537e1185de0f8bc1444ed374c9",
    "toy60": "3280932292920b2b64b4b6f34af6b1c079851f5d4f5f5ed8f23fcb8f69db3725",
}


# epsilon 0.5, delta 0.1, seed 1, as the benchmark mines them.  Covering
# on `wide` is left out: it raises OverflowError (open item 5 in ROADMAP.md).
BENCH_REPORT_SHA256 = {
    ("negatives", "exact"):
        "67a58ad93c3e2a46046246373154dca36c0fced6018060daadb7281eee3e7459",
    ("negatives", "hamming"):
        "0a224d52a6d4f8e5f578734d19970b5084ad5b332cac3e197a363ad65aae404d",
    ("negatives", "minhash"):
        "b65fb86782f75a3289c2a01557415ba4ae6b8dcc277a7a13ce52c5f0f3239f52",
    ("negatives", "covering"):
        "e805ef75656ad5c39a2f2308b28fe9d1075eff81848cde49af9b28d643ff0d74",
    ("dense-deep", "exact"):
        "9d055163daf9538e340e9e9c3158b503bdbc4a4c755b44e23b807880b8ca69ba",
    ("dense-deep", "hamming"):
        "bc32e8e65be62e6f0f268858859f82d6bfe7dbecef2a87f7a9c3be9bc736384e",
    ("dense-deep", "minhash"):
        "738fe0b026684624d606988f4162e037236447f3df7fc1a05fb9234cdfbe79f1",
    ("dense-deep", "covering"):
        "0cef580b3f9b1801aaa5fe8be35322fac66c05ad605ebe362269ce91a1acbb67",
    ("wide", "exact"):
        "1a81a9c15b11361e1aad3ab782fe08a32822566a7bf6f7db5b2ae4fb78c9107f",
    ("wide", "hamming"):
        "0bfe132a3456f41017b995debc4c1f12a03bdaa5804210b53847e12087732e27",
    ("wide", "minhash"):
        "e03b4f78e3a7cf42881709e3ad60dba4dab2498d342d322aca8beb1efb84530a",
}


# The Hamming and covering reports above with `transactions_read` and
# `emitted_candidates` dropped from every level: the two fields the
# verification charge sets.  Everything else these reports hold (itemsets,
# TN/FP, early exits, fallbacks) stays pinned here when that charge changes.
STRIPPED_REPORT_SHA256 = {
    ("negatives", "hamming"):
        "409ab392f627a86bfe7ae917abc475be1070330ad4c0e794e42f055f742195db",
    ("negatives", "covering"):
        "dad491c01f3dec4f266381a5f46d4d72116c0a83749db07cab20c55cca1d6c64",
    ("bernoulli", "hamming"):
        "b1a98a98311ac1cbc143ddb6bab669abd7801e401ad5750242b66d9c13521d2d",
    ("bernoulli", "covering"):
        "d9beb4e8f4a1c2a3fff57fb3ad2e928f90a50dcd6fe0ad053edd0df9e5842806",
    ("toy60", "hamming"):
        "24249e9348ec2aab419a268f4b707b26e7827696190c00340e3ec4145541a29b",
    ("toy60", "covering"):
        "be46bd740b637a02f05611878e8cc11add5461dc65d16e954c29feea6a4d762e",
    ("near_miss", "hamming"):
        "453d630f5ff19beaf070777246bdfc63353b84516de9e4d0cde330a302627b81",
    ("near_miss", "covering"):
        "288eea465f9e3a1254b406d06e271a1ad6f31e1063fa3ce4bc6943fbfa96077c",
}

BENCH_STRIPPED_REPORT_SHA256 = {
    ("negatives", "hamming"):
        "5d379f6dd11843adf81cfee54346269d59d15e5c7269257c34c36d2ac747e5a1",
    ("negatives", "covering"):
        "86167bc37e4f4a0529d616dda1eb4f247ff5e279f800b99dc37f8168330f563d",
    ("dense-deep", "hamming"):
        "fe5dd4c2ed34b79a3a34844c4065f4463608a15cc6de9f51361dc7f86b30f933",
    ("dense-deep", "covering"):
        "ac47a3d5b3ffa1e0af4a8be7892e24201f66c54b72f452e50f8bdcc876171dd5",
    ("wide", "hamming"):
        "6d67fd3f7a8422b561743c463b788666b8f2c0c9e34652e5707a8e5efef3d33a",
}


# The `itemsets` section of each MinHash report above: what MinHash answers,
# apart from the counters its random draws set.
MINHASH_ITEMSETS_SHA256 = {
    "negatives":
        "2cd6c74dfb4cce5a3ff10f139c08cbd921723325d3100083535d5f6da7c4600c",
    "bernoulli":
        "29cf44d5151c726f195b5ba5f3213c3f9d952029dae43788e3612523ad39b069",
    "toy60":
        "f55f6ff702fc41089456f76ca05273cf34d66f40cf0848355db6fb4046e6f974",
    "bench/negatives":
        "76836eb506faf8da15ec3f1d740706be9ac40c13d485cd0ab4df2a1e0d0d92b9",
    "bench/dense-deep":
        "0f449169d12e0a606e29293d05f76fe24bf6c76d03245adbdb870240fd304c4d",
    "bench/wide":
        "2b0a4393f642699711534da115333c95ad545da8e1b5362731cef896ce6f6d28",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def without_charge(report) -> str:
    """`report_json` with the verification charge dropped from every level."""
    doc = json.loads(report_json(report))
    for level in doc["levels"]:
        del level["transactions_read"], level["emitted_candidates"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def itemsets_only(report) -> str:
    """The `itemsets` section of `report_json`, serialized the same way."""
    doc = json.loads(report_json(report))
    return json.dumps(doc["itemsets"], indent=2, sort_keys=True) + "\n"


def mine(db, theta, variant, seed):
    lsh = variant != "exact"
    config = MiningConfig(theta=theta, variant=variant, epsilon=0.5 if lsh else None,
                          delta=0.1 if lsh else None, seed=seed)
    return lsh_apriori_mine(db, config)


@cache
def mined(db_name: str, variant: str):
    make, theta = DATABASES[db_name]
    return mine(make(), theta, variant, seed=3)


@pytest.fixture(scope="module")
def bench_workload(tmp_path_factory):
    """Loads a benchmark workload from the FIMI file its own writer makes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses resolve their module here
    spec.loader.exec_module(workloads)

    @cache
    def load(name):
        inst = workloads.generate(name, 1)
        fimi = tmp_path_factory.mktemp("bench") / f"{name}.dat"
        workloads.write_fimi(inst, fimi)
        return load_transactions(fimi), inst.theta
    return load


@pytest.mark.parametrize("db_name,variant", sorted(REPORT_SHA256))
def test_report_json_hash(db_name, variant):
    assert sha256(report_json(mined(db_name, variant))) == REPORT_SHA256[db_name, variant]


@pytest.mark.parametrize("db_name", sorted(CSV_SHA256))
def test_report_csv_hash(db_name):
    reports = [mined(db_name, v) for v in VARIANTS]
    assert sha256(report_csv(reports)) == CSV_SHA256[db_name]


@pytest.mark.parametrize("workload,variant", sorted(BENCH_REPORT_SHA256))
def test_bench_report_json_hash(bench_workload, workload, variant):
    db, theta = bench_workload(workload)
    report = mine(db, theta, variant, seed=1)
    assert sha256(report_json(report)) == BENCH_REPORT_SHA256[workload, variant]


@pytest.mark.parametrize("db_name,variant", sorted(STRIPPED_REPORT_SHA256))
def test_report_json_hash_without_charge(db_name, variant):
    report = mined(db_name, variant)
    assert sha256(without_charge(report)) == STRIPPED_REPORT_SHA256[db_name, variant]


@pytest.mark.parametrize("workload,variant", sorted(BENCH_STRIPPED_REPORT_SHA256))
def test_bench_report_json_hash_without_charge(bench_workload, workload, variant):
    db, theta = bench_workload(workload)
    report = mine(db, theta, variant, seed=1)
    assert sha256(without_charge(report)) == BENCH_STRIPPED_REPORT_SHA256[workload, variant]


@pytest.mark.parametrize("case", sorted(MINHASH_ITEMSETS_SHA256))
def test_minhash_itemsets_hash(bench_workload, case):
    if case.startswith("bench/"):
        db, theta = bench_workload(case.removeprefix("bench/"))
        report = mine(db, theta, "minhash", seed=1)
    else:
        report = mined(case, "minhash")
    assert sha256(itemsets_only(report)) == MINHASH_ITEMSETS_SHA256[case]


def test_databases_reach_every_driver_path():
    rows = {v: [row for db_name in DATABASES for row in mined(db_name, v).levels]
            for v in VARIANTS}
    assert all(mined(db_name, "exact").db_n > 200 for db_name in DATABASES)
    for variant in ("hamming", "minhash", "covering"):
        assert any(row.lsh_active for row in rows[variant]), variant
    reasons = {row.fallback_reason for v in VARIANTS for row in rows[v]}
    assert {"degenerate_level", "family_too_large"} <= reasons
