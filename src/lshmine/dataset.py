"""Transaction databases in vertical (column-major) bitmap form.

Every item owns one bit vector of length n; bit j is set iff the item
occurs in transaction j.  All similarity computations downstream run on
these columns, so the representation is immutable after load.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or empty transaction files."""


class BitVector:
    """Fixed-length bit string backed by a Python int (bit j = transaction j)."""

    __slots__ = ("length", "value")

    def __init__(self, length: int, value: int = 0):
        if length < 0:
            raise ValueError("BitVector length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError("value has bits outside the declared length")
        self.length = length
        self.value = value

    @classmethod
    def from_indices(cls, length: int, indices) -> "BitVector":
        v = 0
        for i in indices:
            if i < 0 or i >= length:
                raise ValueError(f"bit index {i} out of range for length {length}")
            v |= 1 << i
        return cls(length, v)

    @classmethod
    def from01(cls, s: str) -> "BitVector":
        """Parse a left-to-right transaction string, e.g. "1110" sets bits 0..2."""
        v = 0
        for j, ch in enumerate(s):
            if ch == "1":
                v |= 1 << j
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(len(s), v)

    def to01(self) -> str:
        return "".join("1" if (self.value >> j) & 1 else "0" for j in range(self.length))

    def popcount(self) -> int:
        return self.value.bit_count()

    def bit(self, j: int) -> int:
        if j < 0 or j >= self.length:
            raise IndexError("bit position out of range")
        return (self.value >> j) & 1

    def ones(self) -> list[int]:
        return np.flatnonzero(self.to_uint8()).tolist()

    def to_uint8(self) -> np.ndarray:
        """Dense 0/1 array of shape (length,), index j = transaction j."""
        nbytes = (self.length + 7) // 8
        raw = self.value.to_bytes(nbytes, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: self.length]

    def _check_same_length(self, other: "BitVector"):
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} != {other.length}")

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self.length, self.value & other.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.length == other.length and self.value == other.value

    def __hash__(self):
        return hash((self.length, self.value))

    def __repr__(self):
        return f"BitVector({self.length}, 0b{self.value:0{max(self.length, 1)}b})"


@dataclass(frozen=True)
class TransactionDatabase:
    """n transactions over an item universe of size m, stored column-wise.

    `columns` holds a BitVector of length n for every item that occurs at
    least once; item ids in [0, m) that never occur simply have no entry.
    """

    n: int
    m: int
    columns: dict[int, BitVector] = field(repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DatasetError("empty database")
        for item, col in self.columns.items():
            if item < 0 or item >= self.m:
                raise DatasetError(f"item id {item} outside universe [0, {self.m})")
            if col.length != self.n:
                raise DatasetError(f"column for item {item} has length {col.length}, expected {self.n}")

    def items(self) -> list[int]:
        return sorted(self.columns)

    def transactions(self) -> list[list[int]]:
        """Each transaction as a sorted list of item ids (row view)."""
        items = self.items()
        hits = np.zeros((self.n, len(items)), dtype=bool)
        for k, item in enumerate(items):
            hits[:, k] = self.columns[item].to_uint8()
        ids = np.array(items, dtype=np.int64)
        return [ids[row].tolist() for row in hits]


@dataclass(frozen=True)
class ItemsetRecord:
    """An itemset in canonical form plus its transaction vector and support."""

    items: tuple[int, ...]
    vector: BitVector
    support: int

    def __post_init__(self):
        if list(self.items) != sorted(set(self.items)):
            raise ValueError("items must be strictly increasing")
        if self.support != self.vector.popcount():
            raise ValueError("support must equal popcount of the vector")

    @classmethod
    def from_vector(cls, items, vector: BitVector) -> "ItemsetRecord":
        return cls(tuple(items), vector, vector.popcount())


def co_support(x: BitVector, y: BitVector) -> int:
    """Number of transactions containing both itemsets: popcount(x AND y)."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} != {y.length}")
    return (x.value & y.value).bit_count()


def load_transactions(path) -> TransactionDatabase:
    """Read a FIMI flat file: one transaction per line, whitespace-separated
    non-negative integer item ids, no header.  Empty lines are skipped."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not an ASCII FIMI file: {exc}") from None

    rows: list[list[int]] = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        row = []
        for tok in tokens:
            try:
                item = int(tok)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer token {tok!r}") from None
            if item < 0:
                raise DatasetError(f"{path}:{lineno}: negative item id {item}")
            row.append(item)
        rows.append(row)

    if not rows:
        raise DatasetError("empty database")

    n = len(rows)
    m = 1 + max(max(row) for row in rows if row)
    bits = defaultdict(lambda: bytearray((n + 7) // 8))   # row j: bit j % 8 of byte j // 8
    for j, row in enumerate(rows):
        byte, bit = j >> 3, 1 << (j & 7)
        for item in row:
            bits[item][byte] |= bit
    columns = {item: BitVector(n, int.from_bytes(b, "little")) for item, b in bits.items()}
    return TransactionDatabase(n=n, m=m, columns=columns)


def write_transactions(db: TransactionDatabase, path):
    """Write the database back in FIMI format (one line per transaction).

    Refuses, before opening `path`, a database with an empty transaction:
    its empty line would be skipped on load.
    """
    rows = db.transactions()
    if not all(rows):
        raise DatasetError(f"transaction {rows.index([])} is empty; FIMI cannot hold it "
                           f"(raise density or m)")
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(" ".join(str(i) for i in row))
            fh.write("\n")


def generate_synthetic(n: int, m: int, density: float, seed: int) -> TransactionDatabase:
    """Bernoulli database: each item occurs in each transaction independently
    with probability `density`.  Deterministic for a given seed."""
    if n < 1 or m < 1:
        raise DatasetError("n and m must be positive")
    if not 0.0 < density <= 1.0:
        raise DatasetError("density out of range (0, 1]")
    rng = np.random.default_rng(seed)
    hits = rng.random((m, n)) < density
    columns = {}
    for item in range(m):
        packed = np.packbits(hits[item].astype(np.uint8), bitorder="little").tobytes()
        value = int.from_bytes(packed, "little")
        if value:
            columns[item] = BitVector(n, value)
    if not columns:
        raise DatasetError("empty database (no item occurred; raise density or n)")
    return TransactionDatabase(n=n, m=m, columns=columns)


def support_threshold(theta: float, n: int) -> int:
    """Integer support threshold ceil(theta*n), robust to float noise."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0,1)")
    t = theta * n
    nearest = round(t)
    if abs(t - nearest) < 1e-9 * max(1, n):
        return max(1, nearest)
    return max(1, math.ceil(t))
