import gc
import tracemalloc

import numpy as np
import pytest

from lshmine.dataset import (
    BitVector,
    DatasetError,
    co_support,
    generate_synthetic,
    load_transactions,
    support_threshold,
    write_transactions,
)

from conftest import column, db_from_rows, same_database


def write_file(tmp_path, text, name="db.dat"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_toy(tmp_path):
    db = load_transactions(write_file(tmp_path, "1 2 3\n1 2\n1 3\n2 3\n"))
    assert db.n == 4
    assert db.m == 4
    assert column(db, 1).to01() == "1110"
    assert column(db, 2).to01() == "1101"
    assert column(db, 3).to01() == "1011"
    assert db.items.tolist() == [1, 2, 3]


def test_load_single_item_line(tmp_path):
    db = load_transactions(write_file(tmp_path, "7\n"))
    assert db.n == 1
    assert db.m == 8
    assert column(db, 7).to01() == "1"


def test_load_skips_blank_lines(tmp_path):
    db = load_transactions(write_file(tmp_path, "1 2\n\n   \n2 3\n"))
    assert db.n == 2
    assert column(db, 2).to01() == "11"


def test_load_empty_file(tmp_path):
    with pytest.raises(DatasetError, match="empty database"):
        load_transactions(write_file(tmp_path, ""))
    with pytest.raises(DatasetError, match="empty database"):
        load_transactions(write_file(tmp_path, "\n  \n"))


def test_load_bad_token(tmp_path):
    with pytest.raises(DatasetError, match="non-integer"):
        load_transactions(write_file(tmp_path, "1 x 3\n"))
    with pytest.raises(DatasetError, match="non-integer token '-2'"):
        load_transactions(write_file(tmp_path, "1 -2\n"))


def test_load_takes_decimal_digits_only(tmp_path):
    # int() reads each of these as an id (10, 3 and 0); a FIMI id is digits
    for lineno, tok in ((1, "1_0"), (2, "+3"), (3, "-0")):
        lines = ["1 2"] * (lineno - 1) + [f"{tok} 2", "1 2"]
        path = write_file(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as exc:
            load_transactions(path)
        assert str(exc.value) == f"{path}:{lineno}: non-integer token {tok!r}"


def test_load_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_transactions(tmp_path / "nope.dat")


def test_load_duplicate_items_in_line(tmp_path):
    db = load_transactions(write_file(tmp_path, "2 2 2\n2\n"))
    assert column(db, 2).popcount() == 2


def test_load_memory_is_bounded(tmp_path):
    # n = 2,000 transactions, 400 items in 600-604 rows each: a 0.9 MB file
    # of 241k tokens.  The loader peaked at 4.47 MB here when it parsed line
    # by line; a step that held an int64 for each of the file's bytes would
    # add 7.2 MB.
    rng = np.random.default_rng(0)
    hits = np.zeros((2000, 400), dtype=bool)
    for item in range(400):
        hits[rng.choice(2000, size=600 + int(rng.integers(0, 5)), replace=False), item] = True
    path = write_file(tmp_path, "".join(" ".join(map(str, np.flatnonzero(row).tolist())) + "\n"
                                        for row in hits))
    load_transactions(path)   # imports and first-call caches are not the loader's
    gc.collect()
    tracemalloc.start()
    try:
        db = load_transactions(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (db.n, len(db.items)) == (2000, 400)
    assert peak <= 4.48e6, f"loader peak {peak / 1e6:.2f} MB"


def test_co_support_examples():
    a = BitVector.from01("1110")
    b = BitVector.from01("1101")
    assert co_support(a, b) == 2
    assert co_support(a, a) == a.popcount()
    assert co_support(a, BitVector.from01("0001")) == 0


def test_co_support_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        co_support(BitVector.from01("111"), BitVector.from01("1111"))


def _random_bits(rng, n):
    raw = int.from_bytes(rng.bytes((n + 7) // 8), "little")
    return BitVector(n, raw & ((1 << n) - 1))


def test_co_support_properties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        x, y = _random_bits(rng, n), _random_bits(rng, n)
        assert co_support(x, y) == co_support(y, x)
        assert co_support(x, y) <= min(x.popcount(), y.popcount())


def test_roundtrip_loaded(tmp_path):
    src = write_file(tmp_path, "1 2 3\n1 2\n1 3\n2 3\n")
    db = load_transactions(src)
    out = tmp_path / "out.dat"
    write_transactions(db, out)
    again = load_transactions(out)
    assert same_database(again, db)


def test_roundtrip_random(tmp_path):
    rng = np.random.default_rng(5)
    done = 0
    for seed in range(20):
        db = generate_synthetic(n=30, m=8, density=0.5, seed=seed)
        if any(not row for row in db.transactions()):
            continue  # FIMI has no way to carry an empty transaction
        out = tmp_path / f"r{seed}.dat"
        write_transactions(db, out)
        again = load_transactions(out)
        assert same_database(again, db)
        done += 1
    assert done >= 10


def test_generate_saturated_density():
    db = generate_synthetic(n=10, m=5, density=1.0, seed=3)
    for item in range(5):
        assert column(db, item).popcount() == 10


def test_generate_deterministic():
    a = generate_synthetic(n=100, m=8, density=0.5, seed=42)
    b = generate_synthetic(n=100, m=8, density=0.5, seed=42)
    assert same_database(a, b)
    c = generate_synthetic(n=100, m=8, density=0.5, seed=43)
    assert not same_database(a, c)


def test_generate_binomial_concentration():
    # Binomial(1000, 0.3) stays within +-60 of its mean with overwhelming odds
    db = generate_synthetic(n=1000, m=6, density=0.3, seed=7)
    for item in range(6):
        assert 240 <= column(db, item).popcount() <= 360


def test_generate_density_range():
    with pytest.raises(DatasetError, match="density"):
        generate_synthetic(10, 5, 0.0, seed=1)
    with pytest.raises(DatasetError, match="density"):
        generate_synthetic(10, 5, 1.2, seed=1)


def test_bitvector_basics():
    v = BitVector.from_indices(6, [0, 3, 5])
    assert v.to01() == "100101"
    assert v.ones() == [0, 3, 5]
    assert v.bit(3) == 1 and v.bit(1) == 0
    assert BitVector.from01(v.to01()) == v
    assert list(v.to_uint8()) == [1, 0, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        BitVector(3, 0b1000)


def test_transactions_row_view():
    db = db_from_rows([[1, 2], [2], [0, 2]])
    assert db.transactions() == [[1, 2], [2], [0, 2]]


def test_support_threshold():
    assert support_threshold(0.5, 4) == 2
    assert support_threshold(0.3, 10) == 3      # 0.3*10 is 3.0000000000000004 in floats
    assert support_threshold(0.55, 10) == 6
    assert support_threshold(0.01, 10) == 1
    assert support_threshold(0.999, 10) == 10
    with pytest.raises(ValueError):
        support_threshold(1.5, 4)
