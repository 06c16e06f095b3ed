"""Transaction databases in vertical (column-major) bitmap form.

The database is one matrix: row k is the transaction vector of the k-th
occurring item, packed as `exact.Level` packs a level's vectors.  All
similarity computations downstream run on these rows, so the
representation is immutable after load.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True, eq=False)
class TransactionDatabase:
    """n transactions over an item universe of size m, stored column-wise:
    row k of `packed` is the vector of items[k], the ids that occur in
    ascending order.  Ids in [0, m) that never occur have no row."""

    n: int
    m: int
    items: np.ndarray                     # (k,) int64, ascending
    packed: np.ndarray = field(repr=False)   # (k, ceil(n/64)) "<u8"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DatasetError("empty database")
        ids, shape = self.items, (len(self.items), (self.n + 63) // 64)
        if len(ids) and not (0 <= ids[0] and ids[-1] < self.m and np.all(ids[1:] > ids[:-1])) \
                or self.packed.shape != shape:
            raise DatasetError(f"need ascending item ids in [0, {self.m}) and a {shape} matrix")

    def transactions(self) -> list[list[int]]:
        """Each transaction as a sorted list of item ids (row view)."""
        hits = np.unpackbits(self.packed.view(np.uint8), axis=1, count=self.n, bitorder="little")
        return [self.items[np.flatnonzero(column)].tolist() for column in hits.T]


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


def co_support(x: BitVector, y: BitVector) -> int:
    """Number of transactions containing both itemsets: popcount(x AND y)."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} != {y.length}")
    return (x.value & y.value).bit_count()


LOAD_CHUNK_TOKENS = 1 << 13   # tokens per scatter step, half a parse block's bytes
# "1" for an ASCII digit, " " for the whitespace that str.split() splits on (9-13
# and 28-32; 10 ends a line), "x" for any other byte: a token starts at each " 1"
BYTE_CLASSES = bytes(49 if 48 <= c < 58 else 32 if 9 <= c < 14 or 28 <= c < 33 else 120
                     for c in range(256))


def _parse(data: bytes, ids: np.ndarray):
    """Parse the bytes of a FIMI file that holds only digits and whitespace,
    a block of whole lines at a time: 2 * LOAD_CHUNK_TOKENS bytes or more,
    to the end of a line, so at most LOAD_CHUNK_TOKENS tokens unless one
    line is longer.  Writes the ids into `ids` (uint64, one per token) and
    returns the running token count at each "\\n" and at the end, or None
    once a token has a nonzero digit before its last 19 or reads 2**63 or
    above."""
    cuts, lo, count = [], 0, 0
    while lo < len(data):
        hi = data.find(b"\n", lo + 2 * LOAD_CHUNK_TOKENS - 1) + 1 or len(data)
        block = np.frombuffer(data, np.uint8, hi - lo, lo)
        d = block - np.uint8(48)   # a digit's value; a separator wraps to 200 or more
        digit = np.zeros(len(d) + 2, dtype=bool)   # digit[i + 1]: byte i is a digit
        np.less(d, 10, out=digit[1:-1])
        starts = np.flatnonzero(digit[1:] > digit[:-1])   # each token's first byte
        ends = np.flatnonzero(digit[1:] < digit[:-1])     # and the byte after its last
        cuts.append(np.searchsorted(starts, np.flatnonzero(block == 10)) + count)
        top = int((ends - starts).max(initial=0))
        if top > 19:   # only zeros may precede a token's last 19 digits
            long = np.flatnonzero(ends - starts > 19)
            if any(d[s:e - 19].any() for s, e in zip(starts[long].tolist(), ends[long].tolist())):
                return None
            starts[long] = ends[long] - 19
        out = ids[count:count + len(starts)]
        for _ in range(min(top, 19)):   # Horner's rule, a digit a step
            live = starts < ends
            np.multiply(out, 10, out=out, where=live)
            np.add(out, d.take(starts, mode="clip"), out=out, where=live)
            starts += 1
        if np.any(out >> 63):
            return None
        lo, count = hi, count + len(out)
    return np.concatenate(cuts + [[count]])


def load_transactions(path) -> TransactionDatabase:
    """Read a FIMI flat file: one transaction per line, item ids in
    [0, 2**63) (int64 in every level) written in decimal digits only, no
    header.  A line ends in "\\n", "\\r\\n" or "\\r"; ids are separated by
    runs of ASCII whitespace (space, tab, vertical tab, form feed or bytes
    28-31).  Empty and whitespace-only lines are skipped; an id repeated
    within a line counts once.  The tokens are counted, then parsed as a
    byte array, a block of lines at a time; a file with a bad token is
    scanned line by line for the first one, whose error is raised."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not an ASCII FIMI file: {exc}") from None

    data = text.encode("ascii")
    classes = data.translate(BYTE_CLASSES)
    bad = b"x" in classes   # a sign, a "_", a letter
    count = classes.count(b" 1") + classes.startswith(b"1")
    del classes, text   # `classes` first, both before `ids`: after a large free, glibc
    # serves blocks up to the freed one's size from its heap, which keeps their pages
    ids = np.zeros(count, np.uint64)
    ends = None if bad else _parse(data, ids)
    if ends is None:
        for lineno, line in enumerate(data.decode("ascii").split("\n"), start=1):
            for tok in line.split():   # the first bad token's error
                if not tok.isdigit():
                    raise DatasetError(f"{path}:{lineno}: non-integer token {tok!r}")
                if int(tok) >= 1 << 63:
                    raise DatasetError(f"{path}:{lineno}: item id {int(tok)} is 2**63 or above")
    del data   # before the sort: the parsed ids and their sorted copy are the peak
    ids, ends = ids.view(np.int64), ends[np.diff(ends, prepend=0) > 0]   # lines with a token
    if not len(ends):
        raise DatasetError("empty database")
    n, items = len(ends), np.sort(ids)   # the distinct ids, ascending (np.unique would
    keep = np.ones(len(items), dtype=bool)   # import numpy.ma)
    np.not_equal(items[1:], items[:-1], out=keep[1:])
    items, words = items[keep], (n + 63) // 64
    del keep
    packed = np.zeros((len(items), words), dtype="<u8")
    for s in range(0, len(ids), LOAD_CHUNK_TOKENS):   # OR bit j of transaction j's tokens
        chunk = ids[s:s + LOAD_CHUNK_TOKENS]
        e = s + len(chunk)   # the lines lo..hi overlap the chunk, their token counts clipped to it
        lo, hi = np.searchsorted(ends, [s, e - 1], side="right").tolist()
        j = np.repeat(np.arange(lo, hi + 1), np.diff(np.minimum(ends[lo:hi + 1], e), prepend=s))
        np.bitwise_or.at(packed.reshape(-1), np.searchsorted(items, chunk) * words + (j >> 6),
                         np.left_shift(np.uint64(1), (j & 63).astype(np.uint64)))
    return TransactionDatabase(n=n, m=int(items[-1]) + 1, items=items, packed=packed)


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
    items = np.flatnonzero(hits.any(axis=1))
    if not len(items):
        raise DatasetError("empty database (no item occurred; raise density or n)")
    packed = np.packbits(np.pad(hits[items], ((0, 0), (0, -n % 64))), axis=1, bitorder="little")
    return TransactionDatabase(n=n, m=m, items=items, packed=packed.view("<u8"))


def support_threshold(theta: float, n: int) -> int:
    """Integer support threshold ceil(theta*n), robust to float noise."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0,1)")
    t = theta * n
    nearest = round(t)
    if abs(t - nearest) < 1e-9 * max(1, n):
        return max(1, nearest)
    return max(1, math.ceil(t))
