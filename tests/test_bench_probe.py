"""Keeps the benchmark's traced runs working: `perfbench/probe.py` wraps
lshmine functions by name and reads fields off what they return, so a
rename or a dropped field breaks `perfbench/run.py --trace 1` without any
other test noticing.  The probe is loaded from its file and not changed."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lshmine.engine import MiningConfig, lsh_apriori_mine
from lshmine.exact import Level
from lshmine.minhash_lsh import MinhashParams, build_sketch
from lshmine.transform import LevelContext

from conftest import TOY_ROWS, db_from_rows, random_vector, shared_item_level


@pytest.fixture(scope="module")
def probe():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(probe):
    for module_name, func_name, _ in probe.TRACE_TARGETS:
        module = importlib.import_module(f"lshmine.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_sketch_bytes_reads_a_real_sketch(probe):
    rng = np.random.default_rng(3)
    level = shared_item_level([random_vector(rng, 20, 8) for _ in range(6)])
    ctx = LevelContext(n=20, m_l=6, alpha_count=8, theta_count=4)
    params = MinhashParams(omega=0.3, eps_mh=0.2, rows=32, accept_threshold=0.5)
    sketch = build_sketch(Level.of(level), params, ctx, seed=1)
    observer = probe.Probe(spans=False)
    probe._sketch_bytes(observer, sketch, None)
    assert observer.counters["minhash_lsh.sketch_bytes"] == \
        sketch.perms.nbytes + sketch.columns.nbytes > 0


def test_traced_minhash_run(probe):
    observer = probe.Probe(spans=True)
    db = db_from_rows(TOY_ROWS * 3)
    with probe.installed(observer, probe.TRACE_TARGETS):
        lsh_apriori_mine(db, MiningConfig(theta=0.4, variant="minhash", epsilon=0.5, delta=0.1))
    assert observer.summary()["minhash_lsh.build_sketch"]["calls"] >= 1
    assert observer.counters["minhash_lsh.sketch_bytes"] > 0


# six items, each in a window of 7 of 21 rows, neighbours sharing 4: every
# item is frequent at theta_count 6 and no pair is, so level 2 screens
# only negatives
WINDOWS = [[i for i in range(6) if (j - 3 * i) % 21 < 7] for j in range(21)]


def traced(probe, db, variant, theta):
    observer = probe.Probe(spans=True)
    with probe.installed(observer, probe.TRACE_TARGETS):
        report = lsh_apriori_mine(db, MiningConfig(theta=theta, variant=variant, epsilon=0.5,
                                                   delta=0.1))
    return observer, [row for row in report.levels if row.lsh_active], report.levels


def test_traced_hamming_counters_match_the_level_rows(probe):
    # every pair a Hamming query verifies is a false positive or has a
    # frequent union; with no frequent pair, inspections are the FPs
    observer, lsh_rows, _ = traced(probe, db_from_rows(WINDOWS), "hamming", 6 / 21)
    assert lsh_rows and all(row.frequent_pairs == 0 for row in lsh_rows)
    counters = observer.counters
    assert counters["hamming_lsh.inspections"] == sum(row.false_positives for row in lsh_rows) > 0
    assert observer.summary()["hamming_lsh.query"]["calls"] == len(lsh_rows)

    observer, lsh_rows, levels = traced(probe, db_from_rows(TOY_ROWS * 3), "hamming", 0.4)
    assert lsh_rows and any(row.frequent_pairs for row in lsh_rows)
    counters = observer.counters
    fp = sum(row.false_positives for row in lsh_rows)
    assert fp <= counters["hamming_lsh.inspections"] <= \
        fp + 2 * sum(row.frequent_pairs for row in lsh_rows)
    queries = sum(levels[row.level - 2].frequent_count for row in lsh_rows)
    assert 0 <= counters["hamming_lsh.early_exits"] <= queries
    assert counters["hamming_lsh.partners"] <= counters["hamming_lsh.inspections"]


def test_traced_covering_counters_match_the_level_rows(probe):
    observer, lsh_rows, levels = traced(probe, db_from_rows(WINDOWS), "covering", 6 / 21)
    dims = [p["mask_dim"] for p in observer.params if "mask_dim" in p]
    assert lsh_rows and len(dims) == len(lsh_rows)
    masks = [(1 << d) - 1 for d in dims]
    counters = observer.counters
    assert counters["covering_lsh.masks"] == sum(masks)
    assert counters["covering_lsh.table_entries"] == sum(
        k * levels[row.level - 2].frequent_count for k, row in zip(masks, lsh_rows))
    assert counters["covering_lsh.inspections"] == sum(row.false_positives for row in lsh_rows) > 0
    assert observer.summary()["covering_lsh.query"]["calls"] == len(lsh_rows)
