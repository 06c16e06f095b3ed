"""Tests of the benchmark itself: input generation, the correctness gate and
the call probes.  Run with ``python -m pytest perfbench/tests`` from the
repository root."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from lshmine import MiningConfig, cli, engine, exact, hamming_lsh, load_transactions  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_files(name, tmp_path):
    sha_a = workloads.write_fimi(workloads.generate(name, 7), tmp_path / "a.dat")
    sha_b = workloads.write_fimi(workloads.generate(name, 7), tmp_path / "b.dat")
    sha_c = workloads.write_fimi(workloads.generate(name, 8), tmp_path / "c.dat")
    assert (tmp_path / "a.dat").read_bytes() == (tmp_path / "b.dat").read_bytes()
    assert sha_a == sha_b != sha_c


@pytest.mark.parametrize("name", ["negatives", "wide"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_singleton_and_no_pair_frequent(name, seed):
    inst = workloads.generate(name, seed)
    counts = inst.hits.astype(np.int32)
    assert (counts.sum(axis=0) >= inst.theta_count).all()
    co = counts.T @ counts
    np.fill_diagonal(co, 0)
    assert co.max() < inst.theta_count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_deep_levels_do_not_depend_on_the_seed(seed, tmp_path):
    """The same level sizes for every seed, and every joined level's heaviest
    itemset between 12 and 511 transactions above theta_count, so covering
    falls back at every level instead of building a huge family or
    overflowing."""
    inst = workloads.generate("dense-deep", seed)
    workloads.write_fimi(inst, tmp_path / "dd.dat")
    found = exact.apriori_mine(load_transactions(tmp_path / "dd.dat"), inst.theta).itemsets
    assert [len(level) for level in found.levels] == [11, 49, 119, 175, 161, 91, 29, 4]
    for level in found.levels[:-1]:
        assert inst.theta_count + 12 <= max(r.support for r in level) <= inst.theta_count + 511


def small_instance() -> workloads.Instance:
    rng = np.random.default_rng(5)
    return workloads.Instance(rng.random((40, 6)) < 0.6, 0.25)


def mined_op(inst, variant, tmp_path) -> dict:
    path = tmp_path / "small.dat"
    workloads.write_fimi(inst, path)
    lsh = variant != "exact"
    report = engine.lsh_apriori_mine(load_transactions(path), MiningConfig(
        theta=inst.theta, variant=variant, epsilon=0.5 if lsh else None,
        delta=0.1 if lsh else None))
    return {"variant": variant, "error": None, "nondeterministic": False,
            "itemsets": [[list(r.items), r.support] for r in report.itemsets.all_records()],
            "theta_count": report.itemsets.theta_count, "db": [report.db_n, report.db_m],
            "levels": [cli.level_document(row) for row in report.levels]}


def test_gate_passes_true_outputs(tmp_path):
    inst = small_instance()
    oracle = gate.as_dict(mined_op(inst, "exact", tmp_path)["itemsets"])
    for variant in ("exact", "covering", "hamming", "minhash"):
        assert gate.check(mined_op(inst, variant, tmp_path), inst, oracle, oracle) == []


def test_gate_rejects_corrupted_outputs(tmp_path):
    inst = small_instance()
    good = mined_op(inst, "covering", tmp_path)
    ref = gate.as_dict(good["itemsets"])
    assert len(ref) > 3

    below = copy.deepcopy(good)
    below["itemsets"].append([[0, 1, 2, 3, 4, 5], 1])
    assert any("below threshold" in p for p in gate.check(below, inst, ref, None))

    wrong_support = copy.deepcopy(good)
    wrong_support["itemsets"][0][1] += 1
    assert any("recount" in p for p in gate.check(wrong_support, inst, ref, None))

    miss = copy.deepcopy(good)
    del miss["itemsets"][-1]
    assert any("covering output != exact" in p for p in gate.check(miss, inst, ref, None))

    exact_miss = dict(miss, variant="exact")
    assert any("brute force" in p for p in gate.check(exact_miss, inst, None, ref))

    bad_accounting = copy.deepcopy(good)
    row = next(r for r in bad_accounting["levels"] if r["lsh_active"])
    row["true_negatives"] += 1
    assert any("accounting" in p for p in gate.check(bad_accounting, inst, ref, None))

    raised = dict(good, error="OverflowError: math range error")
    assert gate.check(raised, inst, ref, None) == ["OverflowError: math range error"]

    exact_op = mined_op(inst, "exact", tmp_path)
    _, failures = gate.check_all({"exact": exact_op, "covering": raised}, inst, ref)
    assert len(failures) == 1 and gate.correct(failures)

    drifting = dict(good, nondeterministic=True)
    assert any("repeat" in p for p in gate.check(drifting, inst, ref, None))
    _, failures = gate.check_all({"exact": exact_op, "covering": drifting}, inst, ref)
    assert len(failures) == 1 and not gate.correct(failures)


def test_probe_counts_calls_through_every_binding_and_restores(tmp_path):
    inst = small_instance()
    path = tmp_path / "small.dat"
    workloads.write_fimi(inst, path)
    db = load_transactions(path)
    originals = (engine.union_if_compatible, hamming_lsh.union_if_compatible,
                 hamming_lsh.co_support, hamming_lsh.query)

    p = probe.Probe(spans=True)
    with probe.installed(p, probe.TRACE_TARGETS):
        assert engine.union_if_compatible is not originals[0]
        assert hamming_lsh.union_if_compatible is not originals[1]
        report = engine.lsh_apriori_mine(db, MiningConfig(
            theta=inst.theta, variant="hamming", epsilon=0.5, delta=0.1))
    assert (engine.union_if_compatible, hamming_lsh.union_if_compatible,
            hamming_lsh.co_support, hamming_lsh.query) == originals
    assert exact.union_if_compatible is originals[0]

    spans = p.summary()
    m_ls = [len(level) for level in report.itemsets.levels]
    queries = sum(m for m in m_ls if m >= 2)
    assert spans["hamming_lsh.query"]["calls"] == queries
    assert spans["engine.lsh_apriori_mine"]["calls"] == 1
    # the sweep alone checks every unordered pair of each joined level
    assert spans["exact.union_if_compatible"]["calls"] >= sum(m * (m - 1) // 2 for m in m_ls)
    assert spans["dataset.co_support"]["calls"] == p.counters["hamming_lsh.inspections"]
    assert len(p.params) == sum(1 for m in m_ls if m >= 2)
    root = spans["engine.lsh_apriori_mine"]
    assert 0 <= root["self_s"] <= root["total_s"]
