"""Covering LSH over padded vectors: Hamming projections with no false
negatives.

A random map phi sends each padded bit position to a (t*theta'+1)-bit
vector; every nonzero v in that space yields a projection mask
a(v)_i = <phi(i), v> over GF(2).  Any two padded vectors within Hamming
distance theta' disagree on at most theta' positions, whose phi-images
span a proper subspace, so some nonzero v is orthogonal to all of them
and the corresponding mask sends both vectors to the same key.  Collisions
are therefore guaranteed for every similar pair, for every phi.

The masks key the level screen the Hamming variant also uses
(`hamming_lsh.MaskIndex.screen`), with one 64-bit fingerprint standing for
each masked padded vector: the XOR of fixed random words r_i over the
positions the mask keeps.  XOR is linear, so equal masked vectors have
equal fingerprints, and a padded vector's fingerprint is that of its own
bits XOR that of its padding run (`transform.padding_runs`).  Grouping the
positions by phi gives the per-class XORs c as differences of prefix
XORs, and c's fingerprints under all 2^mask_dim - 1 masks follow from one
linear-time recursion on the top bit of the class (`_fingerprints`).
Unequal masked vectors share a fingerprint only by chance (probability
2^-64).  Whichever way the screen finds collisions, comparing every
pair's fingerprints or sorting each table's (chosen by
`hamming_lsh.sort_pays`; with 2^mask_dim - 1 tables, sorting wins on wide
levels), it confirms every one it acts on against the masked words
themselves through one helper, `CoveringIndex._confirmed`.  The family
keeps phi and the mask_dim basis masks a(2^k) as packed words, and the
helper builds each table's mask a(v) as the XOR of the basis rows of v's
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .exact import Level, PairSweep
from .hamming_lsh import MaskIndex, QueryResult, _grouped
from .transform import (
    DegenerateLevel,
    LevelContext,
    _ceil,
    check_tolerances,
    padding_runs,
)

DEFAULT_MASK_DIM_CAP = 24
# The most table entries, (2^mask_dim - 1) * m_l, a level's family may hold
# while mask_dim_cap is at most its default.  Measured for the family, the
# build and the screen of one level (n = 300 and 2000, 2-vCPU host): at
# about 2^20 entries they take 0.11-0.35 s and 13-150 MB (400 records at
# mask_dim 11 to 2 records at mask_dim 19); at 2^21-2^22 entries 0.3-1.1 s
# and up to 233 MB.  `negatives` holds 204,400.
MAX_TABLE_ENTRIES = 1 << 20
FINGERPRINT_SEED = 0   # draws the r_i; every collision is confirmed, so no result depends on it


class FamilyTooLarge(Exception):
    """The mask space 2^(t*theta'+1) exceeds the configured cap, or its
    tables exceed MAX_TABLE_ENTRIES entries."""

    reason = "family_too_large"


@dataclass(frozen=True)
class CoveringParams:
    n_prime: int            # padded dimension
    theta_prime: int        # Hamming radius equivalent to the support threshold
    t: int
    c: float                # tolerance ratio > 1
    eps_round: float        # rounding residue t - ln(m_l)/(2(a-(1-e)t)n)
    nu: float               # (t+eps_round)/(c*t)
    mask_dim: int           # t*theta_prime + 1
    psi_bound: float        # expected false positives per query: 2^(theta'*eps_round+1) m_l^(1/c)
    early_exit_budget: int  # ceil(psi_bound/delta)


def derive_params(ctx: LevelContext, epsilon: float, delta: float,
                  mask_dim_cap: int = DEFAULT_MASK_DIM_CAP) -> CoveringParams:
    """Parameter table for the covering family at this level.

    theta_prime uses integer counts, 2*(alpha_count - theta_count): supports
    are integers, so this radius captures exactly the pairs at or above the
    threshold.  t floors at 1.  Raises DegenerateLevel when alpha == theta
    (c undefined), and FamilyTooLarge when mask_dim exceeds the cap or,
    unless the cap is raised above its default, when the 2^mask_dim - 1
    tables of m_l entries exceed MAX_TABLE_ENTRIES.
    """
    check_tolerances(epsilon, delta)
    if ctx.alpha_count == ctx.theta_count:
        raise DegenerateLevel(f"alpha == theta ({ctx.alpha_count}/{ctx.n}) at this level")
    m_l = max(1, ctx.m_l)

    theta_prime = 2 * (ctx.alpha_count - ctx.theta_count)
    gap = 2.0 * (ctx.alpha_count - (1.0 - epsilon) * ctx.theta_count)
    raw = math.log(m_l) / gap
    t = max(1, _ceil(raw))
    eps_round = t - raw
    c = (ctx.alpha_count - (1.0 - epsilon) * ctx.theta_count) / (ctx.alpha_count - ctx.theta_count)
    nu = (t + eps_round) / (c * t)
    mask_dim = t * theta_prime + 1
    psi_bound = 2.0 ** (theta_prime * eps_round + 1) * m_l ** (1.0 / c)
    if mask_dim > mask_dim_cap:
        raise FamilyTooLarge(
            f"covering family too large: mask_dim {mask_dim} > cap {mask_dim_cap}"
        )
    entries = ((1 << mask_dim) - 1) * m_l
    if entries > MAX_TABLE_ENTRIES and mask_dim_cap <= DEFAULT_MASK_DIM_CAP:
        raise FamilyTooLarge(
            f"covering family too large: (2^{mask_dim} - 1) x {m_l} = {entries} table entries"
            f" > cap {MAX_TABLE_ENTRIES}"
        )
    return CoveringParams(
        n_prime=ctx.padded_length, theta_prime=theta_prime, t=t, c=c,
        eps_round=eps_round, nu=nu, mask_dim=mask_dim, psi_bound=psi_bound,
        early_exit_budget=max(1, _ceil(psi_bound / delta)),
    )


@dataclass
class CoveringFamily:
    mask_dim: int
    phi: np.ndarray          # (n_prime,) ints in [0, 2^mask_dim)
    basis: np.ndarray        # (mask_dim, ceil(n_prime/64)) "<u8": a(2^k), bit i is bit k of phi(i)

    @property
    def masks(self) -> list[int]:
        """The masks a(1), ..., a(2^mask_dim - 1) as n_prime-bit ints, built
        on each access for inspection; mining reads `mask_words`."""
        return [int.from_bytes(row.tobytes(), "little")
                for row in self.mask_words(np.arange((1 << self.mask_dim) - 1))]

    def mask_words(self, tables: np.ndarray) -> np.ndarray:
        """The masks of tables t, a(t + 1), as rows of packed words: a is
        linear in v, so each is the XOR of the basis rows of t + 1's bits."""
        v = np.asarray(tables) + 1
        words = np.zeros((len(v), self.basis.shape[1]), dtype="<u8")
        for k in range(int(v.max(initial=0)).bit_length()):   # the bits some v sets
            words[(v >> k) & 1 == 1] ^= self.basis[k]
        return words


def build_family(params: CoveringParams, seed, phi: np.ndarray | None = None) -> CoveringFamily:
    """Draw phi and pack the basis masks a(2^k), k < mask_dim, which every
    mask a(v) is the XOR of.  `phi` can be injected for tests (e.g. the
    all-zero map to exercise total-collision handling).
    """
    if phi is None:
        rng = np.random.default_rng(seed)
        phi = rng.integers(0, 1 << params.mask_dim, size=params.n_prime, dtype=np.int64)
    else:
        phi = np.asarray(phi, dtype=np.int64)
        if phi.shape != (params.n_prime,):
            raise ValueError(f"phi must have shape ({params.n_prime},)")
    bits = np.zeros((params.mask_dim, -(-params.n_prime // 64) * 64), dtype=np.uint8)
    bits[:, :params.n_prime] = phi >> np.arange(params.mask_dim)[:, None] & 1
    basis = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return CoveringFamily(mask_dim=params.mask_dim, phi=phi, basis=basis)


@dataclass
class CoveringIndex(MaskIndex):
    """The masked-projection index over a covering family: the P and Q keys
    are fingerprints of the masked padded vectors (one word per table), and
    the packed padded vectors confirm each collision the screen acts on."""

    family: CoveringFamily
    padded_p: np.ndarray   # (m_l, ceil(n_prime/64)) "<u8"
    padded_q: np.ndarray

    @property
    def tables(self) -> list[dict[int, list[int]]]:
        """Per mask, the records under each key P(a) & mask.  Built on each
        access, for inspection; the screen never reads it."""
        padded = [int.from_bytes(row.tobytes(), "little") for row in self.padded_p]
        return [_grouped(p & mask for p in padded) for mask in self.family.masks]

    def _pair_words(self) -> int:   # a pair's fingerprint row, or its padded words
        return max(self.p_keys.shape[1], self.padded_p.shape[1])

    def _confirmed(self, q: np.ndarray, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Which of the fingerprint collisions of Q(q[i]) and P(a[i]) in
        table t[i] are collisions: those whose masked padded words agree
        too.  Each distinct table's mask words are built once per call, and
        PAIR_CHUNK_WORDS words of each operand are read at a time."""
        tables, row = np.unique(t, return_inverse=True)
        masks = self.family.mask_words(tables)
        same = np.empty(len(q), dtype=bool)
        step = exact.chunk_rows(masks.shape[1])
        for s in range(0, len(q), step):
            both = self.padded_p[a[s:s + step]] ^ self.padded_q[q[s:s + step]]
            same[s:s + step] = ~(both & masks[row[s:s + step]]).any(axis=1)
        return same


def build_index(level: Level, family: CoveringFamily, ctx: LevelContext,
                params: CoveringParams) -> CoveringIndex:
    """One table per mask; the key of record a under mask m is P(a) & m for
    indexing and Q(a) & m for querying, each held as its fingerprint: that
    of the own bits, once per record for both roles, XOR that of the role's
    run, once per run length.  The padded words are the packed own words
    ORed with the run's."""
    n, size = ctx.n, 1 << family.mask_dim
    r = np.random.default_rng(FINGERPRINT_SEED).integers(
        0, np.iinfo(np.uint64).max, size=ctx.padded_length, dtype=np.uint64, endpoint=True)
    lengths, run, starts = padding_runs(level.supports, ctx)
    words = -(-ctx.padded_length // 64)
    run_keys, run_words = [], []
    for start in starts:   # P's run, then Q's
        offset = np.arange(64 * words) - start
        ones = (offset >= 0) & (offset < lengths[:, None])   # (runs, positions)
        part = slice(start, start + ctx.alpha_count)
        run_keys.append(_fingerprints(ones[:, part].T, *_by_class(family.phi[part], r[part], size)))
        run_words.append(np.packbits(ones, axis=1, bitorder="little").view("<u8"))

    own = _by_class(family.phi[:n], r[:n], size)
    padded = [np.empty((len(level), words), dtype="<u8") for _ in range(2)]
    keys = [np.empty((len(level), size - 1, 1), dtype=np.uint64) for _ in range(2)]
    step = exact.chunk_rows(max(n + 1, size))   # prefix XORs, class XORs
    for s in range(0, len(level), step):
        packed, which = level.packed[s:s + step], run[s:s + step]
        bits = np.unpackbits(packed.view(np.uint8).T, axis=0, bitorder="little")
        fingerprints = _fingerprints(bits, *own)
        for out, vectors, run_key, run_word in zip(keys, padded, run_keys, run_words):
            np.bitwise_xor(fingerprints, run_key[which], out=out[s:s + step, :, 0])
            vectors[s:s + step] = run_word[which]
            vectors[s:s + step, :packed.shape[1]] |= packed
    return CoveringIndex(*keys, params.early_exit_budget, family, *padded)


def _by_class(phi: np.ndarray, r: np.ndarray, size: int):
    """Positions grouped by class phi(i): their order, their r values in
    that order, and bounds such that class u holds order[bounds[u]:bounds[u + 1]]."""
    order = np.argsort(phi)
    return order, r[order], np.searchsorted(phi[order], np.arange(size + 1))


def _fingerprints(bits: np.ndarray, order: np.ndarray, values: np.ndarray,
                  bounds: np.ndarray) -> np.ndarray:
    """(records, 2^mask_dim - 1): per vector (a column of the bit matrix
    `bits`, one row per position) and nonzero v, the XOR of r[i] over the
    positions i the mask a(v) keeps, i.e. over the vector's ones with
    <phi(i), v> odd; column v - 1 is v.  The positions are grouped by
    `_by_class`.

    c[u], the XOR of r[i] over the vector's ones with phi(i) = u, is the
    difference of two prefix XORs over the grouped positions (0 for an
    empty class).  F(c)[v], the XOR of c[u] over the u with <u, v> odd,
    splits on the top bit of u and v into F(c) = [F(c0 ^ c1), F(c0 ^ c1)
    ^ XOR(c1)], so one halving pass and one doubling pass over c, class
    axis first, compute it in O(2^mask_dim) per vector."""
    prefix = np.empty((len(order) + 1, bits.shape[1]), dtype=np.uint64)
    prefix[0] = 0
    np.multiply(bits[order], values[:, None], out=prefix[1:])
    np.bitwise_xor.accumulate(prefix, axis=0, out=prefix)
    c = prefix[bounds[1:]] ^ prefix[bounds[:-1]]
    tops, half = [], len(c) // 2
    while half:   # c0 ^= c1, keeping XOR(c1)
        tops.append(np.bitwise_xor.reduce(c[half:2 * half], axis=0))
        c[:half] ^= c[half:2 * half]
        half //= 2
    c[0] = 0   # F of a single class is 0
    half = 1
    for top in reversed(tops):
        np.bitwise_xor(c[:half], top, out=c[half:2 * half])
        half *= 2
    return c[1:].T


def query(index: CoveringIndex, sweep: PairSweep, ctx: LevelContext, verify,
          early_exit: bool = False) -> QueryResult:
    """Screen the join's ordered pairs and verify every query's colliding
    partners through `verify` (see `hamming_lsh.MaskIndex.screen`).

    With `early_exit` off (the default) the screen's budget is one that no
    query reaches, so every collision is inspected, which preserves the
    no-false-negative guarantee; switching it on applies the same
    fruitless-inspection budget as the Hamming variant.
    """
    return index.screen(sweep, ctx, verify, early_exit)


def verify_covering(family: CoveringFamily, positions) -> bool:
    """True iff some nonzero v has <phi(i), v> = 0 for every given position.

    Equivalent to rank({phi(i)}) < mask_dim over GF(2), so for at most
    mask_dim - 1 positions this always holds: the covering property.
    """
    basis: list[int] = []
    for i in positions:
        if i < 0 or i >= len(family.phi):
            raise ValueError(f"position {i} out of range for padded dimension {len(family.phi)}")
        row = int(family.phi[i])
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis) < family.mask_dim
