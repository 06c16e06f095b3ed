import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lshmine import LevelStats, accounting_check, cli, engine, exact, hamming_lsh
from lshmine.cli import main
from lshmine.dataset import load_transactions
from lshmine.transform import FamilyTooLarge, LevelContext

TOY = "1 2 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.dat"
    path.write_text(TOY)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_mine_exact_json(capsys, toy_path):
    rc, out, err = run(capsys, "mine", "--input", toy_path, "--theta", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "lshmine-report/3"
    assert len(doc["itemsets"]) == 6
    assert doc["itemsets"][0] == {"items": [1], "support": 3}
    assert doc["config"]["variant"] == "exact"
    assert doc["theta_count"] == 2


def test_itemsets_sorted_by_level_then_items(capsys, toy_path):
    rc, out, _ = run(capsys, "mine", "--input", toy_path, "--theta", "0.5")
    doc = json.loads(out)
    keys = [(len(e["items"]), e["items"]) for e in doc["itemsets"]]
    assert keys == sorted(keys)


def test_mine_rejects_bad_theta(capsys, toy_path):
    rc, out, err = run(capsys, "mine", "--input", toy_path, "--theta", "1.5")
    assert rc == 2
    assert out == ""
    assert "theta must be in (0,1)" in err


def test_mine_lsh_requires_delta(capsys, toy_path):
    rc, _, err = run(capsys, "mine", "--input", toy_path, "--theta", "0.5",
                     "--variant", "hamming", "--epsilon", "0.2")
    assert rc == 2
    assert "requires epsilon and delta" in err


def test_mine_missing_input(capsys, tmp_path):
    rc, _, err = run(capsys, "mine", "--input", str(tmp_path / "no.dat"), "--theta", "0.5")
    assert rc == 1
    assert "cannot read" in err


def test_mine_empty_input(capsys, tmp_path):
    empty = tmp_path / "empty.dat"
    empty.write_text("\n")
    rc, _, err = run(capsys, "mine", "--input", str(empty), "--theta", "0.5")
    assert rc == 1
    assert "empty database" in err


def test_mine_stdout_is_pure_json(capsys, toy_path):
    rc, out, err = run(capsys, "mine", "--input", toy_path, "--theta", "0.5",
                       "--variant", "covering", "--epsilon", "0.2", "--delta", "0.1")
    assert rc == 0
    json.loads(out)   # whole stream must parse
    assert "mined" in err


def test_mine_to_file(capsys, toy_path, tmp_path):
    dest = tmp_path / "report.json"
    rc, out, _ = run(capsys, "mine", "--input", toy_path, "--theta", "0.5",
                     "--output", str(dest))
    assert rc == 0
    assert out == ""
    assert json.loads(dest.read_text())["itemsets"]


def test_mine_csv(capsys, toy_path):
    rc, out, _ = run(capsys, "mine", "--input", toy_path, "--theta", "0.5",
                     "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,level,candidates,transactions_read,hash_overhead," \
                       "true_negatives,false_positives,wall_clock_ms"
    assert len(lines) == 4  # header + 3 levels


def test_compare_exact_clean(capsys, toy_path):
    rc, out, _ = run(capsys, "compare", "--input", toy_path, "--theta", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["comparison"]["missed"] == []
    assert doc["comparison"]["sub_threshold_total"] == 0


def test_compare_covering_never_misses(capsys, toy_path):
    rc, out, _ = run(capsys, "compare", "--input", toy_path, "--theta", "0.5",
                     "--variant", "covering", "--epsilon", "0.2", "--delta", "0.1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["comparison"]["missed_any"] is False


def test_compare_hamming_trials(capsys, toy_path):
    rc, out, _ = run(capsys, "compare", "--input", toy_path, "--theta", "0.5",
                     "--variant", "hamming", "--epsilon", "0.2", "--delta", "0.1",
                     "--trials", "20")
    assert rc == 0
    doc = json.loads(out)
    comp = doc["comparison"]
    assert comp["trials"] == 20
    levels = {row["level"]: row for row in comp["per_level"]}
    assert levels[2]["bound_delta_2l"] == pytest.approx(0.4)
    assert 0.0 <= levels[2]["miss_rate"] <= levels[2]["bound_delta_2l"]


def test_bench_csv(capsys, toy_path):
    rc, out, _ = run(capsys, "bench", "--input", toy_path, "--theta", "0.5",
                     "--epsilon", "0.2", "--delta", "0.1")
    assert rc == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"exact", "hamming", "minhash", "covering"}
    exact_rows = [r for r in rows if r[0] == "exact"]
    assert all(r[4] == "0" for r in exact_rows)        # hash_overhead
    assert all(r[-1] == "0" for r in rows)             # wall clock silent by default


def test_bench_deterministic(capsys, toy_path):
    args = ("bench", "--input", toy_path, "--theta", "0.5",
            "--epsilon", "0.2", "--delta", "0.1", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_bench_unknown_variant(capsys, toy_path):
    rc, _, err = run(capsys, "bench", "--input", toy_path, "--theta", "0.5",
                     "--variants", "exact,simhash")
    assert rc == 2
    assert "unknown variant" in err


def test_bench_without_variants_is_a_usage_error(capsys, toy_path):
    for variants in (",", ""):
        rc, out, err = run(capsys, "bench", "--input", toy_path, "--theta", "0.5",
                           "--variants", variants)
        assert rc == 2 and out == ""
        assert err == "error: --variants names no variant\n"


def test_gen_writes_loadable_file(capsys, tmp_path):
    dest = tmp_path / "synth.dat"
    rc, out, err = run(capsys, "gen", "--output", str(dest), "--n", "40",
                       "--m", "6", "--density", "0.5", "--seed", "11")
    assert rc == 0
    assert out == ""
    db = load_transactions(dest)
    assert db.n == 40 and db.m == 6

    dest2 = tmp_path / "synth2.dat"
    run(capsys, "gen", "--output", str(dest2), "--n", "40",
        "--m", "6", "--density", "0.5", "--seed", "11")
    assert dest.read_text() == dest2.read_text()


def test_gen_file_pinned(capsys, tmp_path):
    # the FIMI bytes of a generated database, pinned before the row writer
    # moved to numpy unpacking
    dest = tmp_path / "synth.dat"
    rc, _, _ = run(capsys, "gen", "--output", str(dest), "--n", "3000",
                   "--m", "30", "--density", "0.3", "--seed", "7")
    assert rc == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == \
        "bcdfb7e2796b5fafe5d43bf274c21291334203feaefcd82309fe74cda4879db4"


def test_unexpected_error_is_one_line_exit_4(capsys, tmp_path):
    # covering_lsh.derive_params overflows on this input; the CLI reports
    # it as one line with its own exit code instead of a traceback
    dest = tmp_path / "synth.dat"
    run(capsys, "gen", "--output", str(dest), "--n", "2000", "--m", "40",
        "--density", "0.3", "--seed", "1")
    rc, out, err = run(capsys, "mine", "--input", str(dest), "--theta", "0.05",
                       "--variant", "covering", "--epsilon", "0.5", "--delta", "0.1")
    assert rc == 4
    assert out == ""
    assert err.startswith("error: OverflowError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_gen_refuses_empty_transactions(capsys, tmp_path):
    # most rows of this database are empty; FIMI would drop them on load
    dest = tmp_path / "sparse.dat"
    rc, out, err = run(capsys, "gen", "--output", str(dest), "--n", "200",
                       "--m", "3", "--density", "0.02", "--seed", "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: transaction ") and "is empty" in err
    assert err.count("\n") == 1
    assert not dest.exists()


def test_mine_non_ascii_input_is_data_error(capsys, tmp_path):
    path = tmp_path / "latin1.dat"
    path.write_bytes(b"1 2\n3 \xe9\n")
    rc, out, err = run(capsys, "mine", "--input", str(path), "--theta", "0.5")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "not an ASCII FIMI file" in err
    assert err.count("\n") == 1


def test_mine_id_of_2_63_or_above_is_data_error(capsys, tmp_path):
    # item ids are int64 in the level arrays: a larger one is a one-line data
    # error naming its line, not an internal OverflowError
    path = tmp_path / "huge.dat"
    path.write_text("1 99999999999999999999999\n2 99999999999999999999999\n1 2\n")
    rc, out, err = run(capsys, "mine", "--input", str(path), "--theta", "0.5")
    assert rc == 1
    assert out == ""
    assert err == f"error: {path}:1: item id 99999999999999999999999 is 2**63 or above\n"
    path.write_text(f"3\n1 {2**63 - 1} {2**63}\n")
    rc, _, err = run(capsys, "mine", "--input", str(path), "--theta", "0.5")
    assert rc == 1 and err == f"error: {path}:2: item id {2**63} is 2**63 or above\n"


def test_sparse_large_id_is_one_row(capsys, tmp_path):
    # the database holds one row per occurring id, not one per id below m,
    # and the oracle enumerates the occurring ids only
    path = tmp_path / "sparse.dat"
    big = 10**11
    path.write_text(f"1 {big}\n{big}\n1 2\n1 {big}\n")
    db = load_transactions(path)
    assert db.m == big + 1 and db.items.tolist() == [1, 2, big] and db.packed.shape == (3, 1)
    for variant in engine.VARIANTS:
        rc, out, _ = run(capsys, "mine", "--input", str(path), "--theta", "0.5",
                         "--variant", variant, "--epsilon", "0.5", "--delta", "0.1")
        assert rc == 0
        doc = json.loads(out)
        assert doc["database"] == {"n": 4, "m": big + 1}
        assert doc["itemsets"] == [{"items": [1], "support": 3}, {"items": [big], "support": 3},
                                   {"items": [1, big], "support": 2}]
        rc, out, _ = run(capsys, "compare", "--input", str(path), "--theta", "0.5",
                         "--variant", variant, "--epsilon", "0.5", "--delta", "0.1")
        assert rc == 0
        assert json.loads(out)["comparison"]["oracle_count"] == 3


def test_compare_mines_oracle_once(capsys, monkeypatch, toy_path):
    calls = []

    def counting(db, theta):
        calls.append(theta)
        return exact.brute_force_mine(db, theta)

    for module in (cli, engine):
        monkeypatch.setattr(module, "brute_force_mine", counting)
    rc, out, _ = run(capsys, "compare", "--input", toy_path, "--theta", "0.5",
                     "--variant", "hamming", "--epsilon", "0.5", "--delta", "0.1",
                     "--trials", "3")
    assert rc == 0
    assert json.loads(out)["comparison"]["trials"] == 3
    assert calls == [0.5]


def test_mask_dim_cap_flag_is_gone(capsys, toy_path):
    # the byte budget, transform.MAX_INDEX_BYTES, alone decides which
    # covering families are too large
    for command in ("mine", "compare", "bench"):
        rc, out, err = run(capsys, command, "--input", toy_path, "--theta", "0.5",
                           "--mask-dim-cap", "24")
        assert rc == 2 and out == ""
        assert "unrecognized arguments: --mask-dim-cap 24" in err


def test_hamming_at_vanishing_delta_mines(capsys, tmp_path):
    # at delta 1e-308 the early-exit budget L / delta overflows: no query
    # exits early; at 1e-320 ln(1 / delta) does too, and an infinite table
    # count exceeds the byte budget.  Either way the mine finishes and its
    # counters hold, where it once exited 4 with an OverflowError
    dest = tmp_path / "smoke.dat"
    run(capsys, "gen", "--output", str(dest), "--n", "200", "--m", "12", "--density", "0.4",
        "--seed", "1")
    for delta, screened in (("1e-308", True), ("1e-320", False)):
        rc, out, err = run(capsys, "mine", "--input", str(dest), "--theta", "0.3",
                           "--variant", "hamming", "--epsilon", "0.5", "--delta", delta)
        assert rc == 0, err
        levels = json.loads(out)["levels"]
        assert all(accounting_check(LevelStats(**row), 200) for row in levels)
        assert levels[1]["lsh_active"] == screened
        assert screened or levels[1]["fallback_reason"] == "family_too_large"


def test_gen_bad_density(capsys, tmp_path):
    rc, _, err = run(capsys, "gen", "--output", str(tmp_path / "x.dat"),
                     "--n", "10", "--m", "3", "--density", "0")
    assert rc == 1
    assert "density" in err


def test_unknown_flag_exits_2(capsys, toy_path):
    rc, _, _ = run(capsys, "mine", "--input", toy_path, "--theta", "0.5", "--bogus")
    assert rc == 2


def test_covering_early_exit_flag_is_gone(capsys, toy_path):
    # covering never exits early, so it never misses an itemset
    rc, out, err = run(capsys, "mine", "--input", toy_path, "--theta", "0.5",
                       "--variant", "covering", "--epsilon", "0.5", "--delta", "0.1",
                       "--covering-early-exit")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --covering-early-exit" in err


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_one_shot_mines_leave_numpy_ma_unimported(tmp_path):
    # importing numpy.ma costs a one-shot mine 8-13 ms and about 1.5 MB;
    # np.unique imports it when called without flags (numpy 2.4), and
    # with return_index or return_inverse it does not
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("cli_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses resolve their module here
    spec.loader.exec_module(workloads)
    path = tmp_path / "negatives.dat"
    workloads.write_fimi(workloads.generate("negatives", 1), path)
    script = """if True:
        import contextlib, io, sys
        from lshmine import cli
        for variant in sys.argv[2:]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["mine", "--input", sys.argv[1], "--theta", "0.3", "--variant",
                                 variant, "--epsilon", "0.5", "--delta", "0.1"]) == 0, variant
        print("numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, str(path), *engine.VARIANTS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def mine_in_bounded_memory(argv):
    """`lshmine` with `argv` in a child whose address space is limited to
    its baseline plus 300 MB."""
    script = """if True:
        import resource, sys
        from lshmine import cli
        with open("/proc/self/status") as status:
            size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
        limit = size * 1024 + (300 << 20)
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
        sys.exit(cli.main(sys.argv[1:]))
    """
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=300)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_minhash_at_small_epsilon_mines_in_bounded_memory(capsys, tmp_path):
    # a wide-shaped database at epsilon 0.05 takes a sketch of about 20,900
    # rows over 8,000 padded positions: a 638 MiB hash matrix if it were
    # drawn whole, where the sketch itself is 7 MB.  Under an address-space
    # limit of the child's baseline plus 300 MB the mine finishes, and its
    # report is the one an unlimited run gives
    dest = tmp_path / "wide.dat"
    run(capsys, "gen", "--output", str(dest), "--n", "5000", "--m", "40", "--density", "0.3",
        "--seed", "1")
    argv = ["mine", "--input", str(dest), "--theta", "0.12", "--variant", "minhash",
            "--epsilon", "0.05", "--delta", "0.1"]
    done = mine_in_bounded_memory(argv)
    assert done.returncode == 0, done.stderr
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and done.stdout == out


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_hamming_on_a_dense_database_mines_in_bounded_memory(capsys, tmp_path):
    # 300 transactions over 16 items at density 0.9: Hamming's level 9, of
    # C(16, 8) records, would key 2,982 tables of 64-bit words per record
    # and role, 182 MiB each, and its mine once used 674 MB.  Under the
    # limit it mines exact's itemsets, and a level falls back with
    # family_too_large exactly where its index exceeds the byte budget
    dest = tmp_path / "dense.dat"
    run(capsys, "gen", "--output", str(dest), "--n", "300", "--m", "16", "--density", "0.9",
        "--seed", "1")
    done = mine_in_bounded_memory(["mine", "--input", str(dest), "--theta", "0.2",
                                   "--variant", "hamming", "--epsilon", "0.5", "--delta", "0.1"])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    rc, out, _ = run(capsys, "mine", "--input", str(dest), "--theta", "0.2")
    assert rc == 0 and report["itemsets"] == json.loads(out)["itemsets"]
    over = []
    for row in report["levels"][1:]:   # level l is derived from the itemsets of level l - 1
        below = [s["support"] for s in report["itemsets"] if len(s["items"]) == row["level"] - 1]
        ctx = LevelContext(n=300, m_l=len(below), alpha_count=max(below),
                           theta_count=report["theta_count"])
        try:
            hamming_lsh.derive_params(ctx, 0.5, 0.1)
        except FamilyTooLarge:
            over.append(row["level"])
            assert row["fallback_reason"] == "family_too_large" and not row["lsh_active"]
        else:
            assert row["lsh_active"], row
    assert len(over) >= 5
