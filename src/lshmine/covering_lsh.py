"""Covering LSH over padded vectors: Hamming projections with no false
negatives.

A random map phi sends each padded bit position to a (t*theta'+1)-bit
vector; every nonzero v in that space yields a projection mask
a(v)_i = <phi(i), v> over GF(2).  Any two padded vectors within Hamming
distance theta' disagree on at most theta' positions, whose phi-images
span a proper subspace, so some nonzero v is orthogonal to all of them
and the corresponding mask sends both vectors to the same key.  Collisions
are therefore guaranteed for every similar pair, for every phi.  The
masks go into the masked-projection index the Hamming variant also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ItemsetRecord
from .hamming_lsh import MaskIndex, QueryResult
from .transform import DegenerateLevel, LevelContext, _ceil, check_tolerances

DEFAULT_MASK_DIM_CAP = 24


class FamilyTooLarge(Exception):
    """The mask space 2^(t*theta'+1) exceeds the configured cap."""

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
    (c undefined) and FamilyTooLarge when mask_dim exceeds the cap.
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
    return CoveringParams(
        n_prime=ctx.padded_length, theta_prime=theta_prime, t=t, c=c,
        eps_round=eps_round, nu=nu, mask_dim=mask_dim, psi_bound=psi_bound,
        early_exit_budget=max(1, _ceil(psi_bound / delta)),
    )


@dataclass
class CoveringFamily:
    mask_dim: int
    phi: np.ndarray          # (n_prime,) ints in [0, 2^mask_dim)
    masks: list[int]         # 2^mask_dim - 1 projection masks, n_prime bits each


def build_family(params: CoveringParams, seed, phi: np.ndarray | None = None) -> CoveringFamily:
    """Draw phi and materialize the mask a(v) for every nonzero v.

    a is linear in v, so each a(v) is a(v with its lowest set bit cleared)
    XOR the basis mask of that bit, a(2^k), whose bit i is bit k of phi(i).
    `phi` can be injected for tests (e.g. the all-zero map to exercise
    total-collision handling).
    """
    if phi is None:
        rng = np.random.default_rng(seed)
        phi = rng.integers(0, 1 << params.mask_dim, size=params.n_prime, dtype=np.int64)
    else:
        phi = np.asarray(phi, dtype=np.int64)
        if phi.shape != (params.n_prime,):
            raise ValueError(f"phi must have shape ({params.n_prime},)")

    basis = [int.from_bytes(np.packbits(((phi >> k) & 1).astype(np.uint8),
                                         bitorder="little").tobytes(), "little")
             for k in range(params.mask_dim)]
    masks = [0]   # masks[v] = a(v); a(0) is dropped below
    for v in range(1, 1 << params.mask_dim):
        low = v & -v
        masks.append(masks[v ^ low] ^ basis[low.bit_length() - 1])
    del masks[0]
    return CoveringFamily(mask_dim=params.mask_dim, phi=phi, masks=masks)


def build_index(level: list[ItemsetRecord], family: CoveringFamily, ctx: LevelContext,
                params: CoveringParams) -> MaskIndex:
    """One hash table per mask; the key of record a under mask m is P(a) & m."""
    return MaskIndex.build(level, family.masks, ctx, params.early_exit_budget)


def query(index: MaskIndex, q: ItemsetRecord, ctx: LevelContext, compatible, verify,
          early_exit: bool = False) -> QueryResult:
    """Probe every mask's bucket for Q(q) and verify collisions with the
    `compatible` indices through `verify` (see `hamming_lsh.verify_collisions`).

    With `early_exit` off (the default) every collision is inspected, which
    preserves the no-false-negative guarantee; switching it on applies the
    same fruitless-inspection budget as the Hamming variant.
    """
    return index.probe(q, ctx, compatible, verify, early_exit)


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
