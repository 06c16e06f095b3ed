"""Asymmetric padding that turns pair co-support into Hamming distance and
Jaccard similarity.

For a level whose heaviest vector has weight ``alpha_count``, both paddings
bring every vector to weight exactly alpha_count and length n + 2*alpha_count.
With x padded for preprocessing and y padded for querying:

    Ham(P(x), Q(y)) = 2*(alpha_count - co_support(x, y))
    JS(P(x), Q(y))  = co_support(x, y) / (2*alpha_count - co_support(x, y))

so a co-support threshold becomes a distance/similarity threshold the
standard hash families understand.  `pad_preprocess` and `pad_query` are
the per-vector definition of the two layouts; the dense array and the one
positions are read off them.  The builders lay out no padded vector: it is
the own bits plus one run of ones (`padding_runs`), so each reads a
record's own bits once for both roles and each run once per length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import BitVector

PREPROCESS = "preprocess"
QUERY = "query"


def _ceil(x: float) -> int:
    # tolerate float noise just below an integer
    return math.ceil(x - 1e-12)


def check_tolerances(epsilon: float, delta: float):
    """The tolerance ranges every variant's parameter derivation accepts."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0,1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0,1)")


class DegenerateLevel(Exception):
    """Signals alpha == theta for a level, where a variant's parameter
    derivation is undefined and the caller must fall back to exact joins."""

    reason = "degenerate_level"


# The most bytes any level's LSH index may keep (`check_index_bytes`): 2^20
# covering table entries of a 64-bit key per role.  Measured for covering's
# family, build and screen of one level (n = 300 and 2000, 2-vCPU host): at
# about 2^20 entries they take 0.11-0.35 s and 13-150 MB (400 records at
# mask_dim 11 to 2 at mask_dim 19); at 2^21-2^22 entries 0.3-1.1 s and up
# to 233 MB.  `negatives` holds 204,400.
MAX_INDEX_BYTES = 16 << 20


class FamilyTooLarge(Exception):
    """A level's index would keep more than MAX_INDEX_BYTES bytes."""

    reason = "family_too_large"


def check_index_bytes(nbytes: float, index: str):
    """Raise FamilyTooLarge if `index`, of `nbytes` bytes (inf too), exceeds the budget."""
    if not nbytes <= MAX_INDEX_BYTES:
        raise FamilyTooLarge(f"{index} too large: {nbytes:,.0f} bytes > budget {MAX_INDEX_BYTES:,}")


@dataclass(frozen=True)
class LevelContext:
    """Per-level constants shared by all padding and hashing decisions."""

    n: int
    m_l: int
    alpha_count: int
    theta_count: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.m_l < 0:
            raise ValueError("m_l must be non-negative")
        if not 1 <= self.theta_count <= self.alpha_count <= self.n:
            raise ValueError(
                f"need 1 <= theta_count <= alpha_count <= n, got "
                f"theta_count={self.theta_count} alpha_count={self.alpha_count} n={self.n}"
            )

    @property
    def alpha(self) -> float:
        return self.alpha_count / self.n

    @property
    def theta(self) -> float:
        """Effective threshold fraction: the integer threshold re-normalized."""
        return self.theta_count / self.n

    @property
    def padded_length(self) -> int:
        return self.n + 2 * self.alpha_count


@dataclass(frozen=True)
class PaddedVector:
    bits: BitVector
    role: str


def pad_preprocess(v: BitVector, ctx: LevelContext) -> PaddedVector:
    """P(v) = v || 1^(alpha_count-|v|) || 0^(alpha_count+|v|)."""
    return _pad(v, ctx, ctx.n, PREPROCESS)


def pad_query(v: BitVector, ctx: LevelContext) -> PaddedVector:
    """Q(v) = v || 0^alpha_count || 1^(alpha_count-|v|) || 0^|v|."""
    return _pad(v, ctx, ctx.n + ctx.alpha_count, QUERY)


def _pad(v: BitVector, ctx: LevelContext, offset: int, role: str) -> PaddedVector:
    """v with alpha_count-|v| ones from position `offset` on."""
    w = v.popcount()
    if v.length != ctx.n:
        raise ValueError(f"vector length {v.length} != level n {ctx.n}")
    if w > ctx.alpha_count:
        raise ValueError(f"popcount {w} exceeds alpha_count {ctx.alpha_count}")
    ones = (1 << (ctx.alpha_count - w)) - 1
    return PaddedVector(BitVector(ctx.padded_length, v.value | (ones << offset)), role)


def padded_hamming(p: PaddedVector, q: PaddedVector) -> int:
    _check_pair(p, q)
    return (p.bits.value ^ q.bits.value).bit_count()


def padded_jaccard(p: PaddedVector, q: PaddedVector) -> Fraction:
    _check_pair(p, q)
    inter = (p.bits.value & q.bits.value).bit_count()
    union = (p.bits.value | q.bits.value).bit_count()
    if union == 0:
        raise ValueError("both padded vectors are all-zero")
    return Fraction(inter, union)


def _check_pair(p: PaddedVector, q: PaddedVector):
    if p.role != PREPROCESS or q.role != QUERY:
        raise ValueError(f"expected (preprocess, query) roles, got ({p.role}, {q.role})")
    if p.bits.length != q.bits.length:
        raise ValueError("padded lengths differ")


def hamming_from_co_support(co: int, ctx: LevelContext) -> int:
    """Closed form of Ham(P(x), Q(y)) in terms of co_support(x, y)."""
    return 2 * (ctx.alpha_count - co)


def jaccard_from_co_support(co: int, ctx: LevelContext) -> Fraction:
    """Closed form of JS(P(x), Q(y)) in terms of co_support(x, y)."""
    return Fraction(co, 2 * ctx.alpha_count - co)


def padded_bits_array(v: BitVector, ctx: LevelContext, role: str) -> np.ndarray:
    """Padded vector as a dense uint8 array (for vectorized bit sampling)."""
    padded = pad_preprocess(v, ctx) if role == PREPROCESS else pad_query(v, ctx)
    return padded.bits.to_uint8()


def padded_one_positions(v: BitVector, ctx: LevelContext, role: str) -> np.ndarray:
    """Indices of set bits in the padded vector (for minwise hashing)."""
    return np.flatnonzero(padded_bits_array(v, ctx, role))


def padding_runs(supports: np.ndarray, ctx: LevelContext):
    """The padding runs of records of weights `supports`: the distinct run
    lengths alpha_count - |v| ascending, each record's index into them, and
    where the runs start, P's at n and Q's at n + alpha_count."""
    if (supports > ctx.alpha_count).any():
        raise ValueError(f"popcount {supports.max()} exceeds alpha_count {ctx.alpha_count}")
    lengths, index = np.unique(ctx.alpha_count - supports, return_inverse=True)
    return lengths, index, (ctx.n, ctx.n + ctx.alpha_count)
