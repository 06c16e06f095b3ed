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
    sketch = build_sketch(level, params, ctx, seed=1)
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
