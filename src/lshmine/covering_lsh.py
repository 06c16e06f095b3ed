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
(`hamming_lsh.MaskIndex.screen`), and a table's key is the 64-bit
fingerprint of the masked padded vector: the XOR of fixed random words r_i
over the positions the mask keeps.  XOR is linear, so equal masked vectors
have equal fingerprints, and a padded vector's fingerprint is that of its
own bits XOR that of its padding run (`transform.padding_runs`).  Grouping
the positions by phi gives the per-class XORs c as differences of prefix
XORs, and c's fingerprints under all 2^mask_dim - 1 masks follow from one
linear-time recursion on the top bit of the class (`_fingerprints`).  So
every pair within the radius shares a key in some table, and the screen
needs nothing else.  Unequal masked vectors share a fingerprint only by
chance (probability 2^-64 per pair and table), which costs one exact
verification of the pair's co-support and never an itemset.  The family
is phi alone; the masks are read off it only for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .exact import Level, PairSweep
from .hamming_lsh import MaskIndex, QueryResult
# FamilyTooLarge is re-exported: derive_params raises it over the byte budget
from .transform import (DegenerateLevel, FamilyTooLarge, LevelContext, _ceil, check_index_bytes,
                        check_tolerances, padding_runs)

FINGERPRINT_SEED = 0   # draws the r_i; a chance collision costs one verification, never an itemset


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


def derive_params(ctx: LevelContext, epsilon: float, delta: float) -> CoveringParams:
    """Parameter table for the covering family at this level.

    theta_prime uses integer counts, 2*(alpha_count - theta_count): supports
    are integers, so this radius captures exactly the pairs at or above the
    threshold.  t floors at 1.  Raises DegenerateLevel when alpha == theta
    (c undefined), and FamilyTooLarge when the 2^mask_dim - 1 tables of
    m_l entries, 16 B each, exceed `transform.MAX_INDEX_BYTES`.
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
    check_index_bytes(16 * ((1 << mask_dim) - 1) * m_l, "covering family")
    return CoveringParams(
        n_prime=ctx.padded_length, theta_prime=theta_prime, t=t, c=c,
        eps_round=eps_round, nu=nu, mask_dim=mask_dim, psi_bound=psi_bound,
    )


@dataclass
class CoveringFamily:
    mask_dim: int
    phi: np.ndarray          # (n_prime,) ints in [0, 2^mask_dim)

    @property
    def masks(self) -> list[int]:
        """The masks a(1), ..., a(2^mask_dim - 1) as n_prime-bit ints, bit i
        of a(v) the parity of phi(i) & v: built on each access, for
        inspection; mining reads only phi."""
        v = np.arange(1, 1 << self.mask_dim)[:, None]
        bits = (np.bitwise_count(self.phi & v) & 1).astype(np.uint8)
        return [int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(bits, axis=1, bitorder="little")]


def build_family(params: CoveringParams, seed, phi: np.ndarray | None = None) -> CoveringFamily:
    """Draw phi, which is the whole family: mask a(v) keeps the positions i
    with <phi(i), v> odd.  `phi` can be injected for tests (e.g. the
    all-zero map to exercise total-collision handling).
    """
    if phi is None:
        rng = np.random.default_rng(seed)
        phi = rng.integers(0, 1 << params.mask_dim, size=params.n_prime, dtype=np.int64)
    else:
        phi = np.asarray(phi, dtype=np.int64)
        if phi.shape != (params.n_prime,):
            raise ValueError(f"phi must have shape ({params.n_prime},)")
    return CoveringFamily(mask_dim=params.mask_dim, phi=phi)


def build_index(level: Level, family: CoveringFamily, ctx: LevelContext) -> MaskIndex:
    """One table per mask; the key of record a under mask m is the
    fingerprint of P(a) & m for indexing and of Q(a) & m for querying: that
    of the own bits, once per record for both roles, XOR that of the role's
    run, once per run length, which reads only the run's alpha_count
    positions.  The index has no early-exit budget: every query verifies
    all its collisions."""
    n, size = ctx.n, 1 << family.mask_dim
    r = np.random.default_rng(FINGERPRINT_SEED).integers(
        0, np.iinfo(np.uint64).max, size=ctx.padded_length, dtype=np.uint64, endpoint=True)
    lengths, run, starts = padding_runs(level.supports, ctx)
    ones = np.arange(ctx.alpha_count)[:, None] < lengths   # (run positions, runs)
    run_keys = [_fingerprints(ones, *_by_class(family.phi[part], r[part], size))
                for part in (slice(start, start + ctx.alpha_count) for start in starts)]

    own = _by_class(family.phi[:n], r[:n], size)
    keys = [np.empty((len(level), size - 1, 1), dtype=np.uint64) for _ in range(2)]
    step = exact.chunk_rows(max(n + 1, size))   # prefix XORs, class XORs
    for s in range(0, len(level), step):
        bits = np.unpackbits(level.packed[s:s + step].view(np.uint8).T, axis=0, bitorder="little")
        fingerprints = _fingerprints(bits, *own)
        for out, run_key in zip(keys, run_keys):   # P's run, then Q's
            np.bitwise_xor(fingerprints, run_key[run[s:s + step]], out=out[s:s + step, :, 0])
    return MaskIndex(*keys, None)


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


def query(index: MaskIndex, sweep: PairSweep, ctx: LevelContext, verify) -> QueryResult:
    """Screen the join's ordered pairs and verify every query's colliding
    partners through `verify` (see `hamming_lsh.MaskIndex.screen`).  The
    index has no early-exit budget, so every collision is inspected, which
    keeps the no-false-negative guarantee."""
    return index.screen(sweep, ctx, verify)


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
