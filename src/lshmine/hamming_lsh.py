"""Bit-sampling LSH over padded vectors, and the masked-projection index
it shares with the covering variant.

L hash tables, each keyed by k uniformly sampled bit positions of the
padded vector.  Sampling k positions is projecting onto a random mask with
those bits set, so table t keys a record by P(a) & masks[t], as in the
covering variant, whose masks come from its family instead.  Preprocessing
inserts P-padded vectors; queries probe with Q-padded vectors, verify each
new collision with a join partner through the caller's `verify` (which
decides what is read and charged), and give up early once enough
inspections found nothing similar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

import numpy as np

from .dataset import ItemsetRecord
from .transform import (
    DegenerateLevel,
    LevelContext,
    _ceil,
    check_tolerances,
    pad_preprocess,
    pad_query,
)


@dataclass(frozen=True)
class HammingLshParams:
    rho: float
    k: int
    L: int
    early_exit_budget: int


def derive_params(ctx: LevelContext, epsilon: float, delta: float) -> HammingLshParams:
    """Choose (rho, k, L) for the level.

    rho = (a-t)/(a-(1-e)t), k = ceil(log_{(1+2a)/(1+2(1-e)t)} m_l),
    L = ceil(m_l^rho * ln(1/delta)), early exit budget ceil(L/delta),
    where a and t are the level's weight and threshold fractions.
    Raises DegenerateLevel when a == t (rho would be 0 and the gap empty).
    """
    check_tolerances(epsilon, delta)
    if ctx.m_l < 2:
        raise ValueError("need at least two itemsets in the level")
    if ctx.alpha_count == ctx.theta_count:
        raise DegenerateLevel(f"alpha == theta ({ctx.alpha_count}/{ctx.n}) at this level")

    alpha, theta = ctx.alpha, ctx.theta
    low = (1.0 - epsilon) * theta
    rho = (alpha - theta) / (alpha - low)
    k = max(1, _ceil(math.log(ctx.m_l) / math.log((1.0 + 2.0 * alpha) / (1.0 + 2.0 * low))))
    L = max(1, _ceil(ctx.m_l**rho * math.log(1.0 / delta)))
    return HammingLshParams(rho=rho, k=k, L=L, early_exit_budget=_ceil(L / delta))


@dataclass
class MaskIndex:
    """One hash table per mask: record a sits in table t under P(a) & masks[t]."""

    masks: list[int]
    tables: list[dict[int, list[int]]]
    early_exit_budget: int

    @classmethod
    def build(cls, level: list[ItemsetRecord], masks: list[int], ctx: LevelContext,
              early_exit_budget: int) -> MaskIndex:
        padded = [pad_preprocess(r.vector, ctx).bits.value for r in level]
        tables = []
        for mask in masks:
            table: dict[int, list[int]] = {}
            for idx, p in enumerate(padded):
                table.setdefault(p & mask, []).append(idx)
            tables.append(table)
        return cls(masks=masks, tables=tables, early_exit_budget=early_exit_budget)

    def probe(self, q: ItemsetRecord, ctx: LevelContext, compatible, verify,
              early_exit: bool) -> QueryResult:
        """Verify the `compatible` records in Q(q)'s bucket of each table in
        turn, under the early-exit budget if `early_exit` is set."""
        qval = pad_query(q.vector, ctx).bits.value
        buckets = (table.get(qval & mask) for table, mask in zip(self.tables, self.masks))
        return verify_collisions(buckets, compatible, verify, ctx,
                                 self.early_exit_budget if early_exit else None)


def build_index(level: list[ItemsetRecord], params: HammingLshParams, ctx: LevelContext,
                seed, projections: np.ndarray | None = None) -> MaskIndex:
    """Hash every P-padded record into one bucket per table.

    All randomness (the L position sets) is drawn up front from the seed;
    `projections` can be supplied directly to pin the sample in tests.
    Each row becomes the mask with its positions set, ORed so that a
    position sampled twice sets its bit once.
    """
    if projections is None:
        rng = np.random.default_rng(seed)
        projections = rng.integers(0, ctx.padded_length, size=(params.L, params.k), dtype=np.int64)
    else:
        projections = np.asarray(projections, dtype=np.int64)
        if projections.shape != (params.L, params.k):
            raise ValueError(f"projections must have shape {(params.L, params.k)}")
    masks = [reduce(or_, (1 << p for p in row), 0) for row in projections.tolist()]
    return MaskIndex.build(level, masks, ctx, params.early_exit_budget)


@dataclass
class QueryResult:
    partners: list[int]                          # FI_q as record indices, in discovery order
    verified: dict[int, int] = field(default_factory=dict)   # idx -> co_support, as inspected
    collision_counts: dict[int, int] = field(default_factory=dict)  # compatible idx -> per-table hits
    early_exit: bool = False

    @property
    def inspections(self) -> int:   # support verifications: one per distinct partner
        return len(self.verified)


def verify_collisions(buckets, compatible, verify, ctx: LevelContext,
                      early_exit_budget: int | None = None) -> QueryResult:
    """Verify the compatible records colliding with a query, bucket by bucket.

    `buckets` yields the query's bucket (a list of record indices, or None)
    in each table, lazily, so an early exit skips the remaining keys.  Only
    collisions in `compatible` (the indices of the query's join partners)
    are verified, each once, by `verify(idx)`: the co-support of the query
    with record idx.  The rest cost nothing.  With a budget, the query
    stops once that many distinct verified candidates, counted across
    buckets, found nothing similar.
    """
    result = QueryResult(partners=[])
    for bucket in buckets:
        if not bucket:
            continue
        for idx in bucket:
            if idx not in compatible:
                continue
            result.collision_counts[idx] = result.collision_counts.get(idx, 0) + 1
            if idx in result.verified:
                continue
            co = verify(idx)
            result.verified[idx] = co
            if co >= ctx.theta_count:
                result.partners.append(idx)
            if (early_exit_budget is not None and not result.partners
                    and len(result.verified) >= early_exit_budget):
                result.early_exit = True
                return result
    return result


def query(index: MaskIndex, q: ItemsetRecord, ctx: LevelContext, compatible,
          verify) -> QueryResult:
    """Probe the L buckets for Q(q) and verify collisions with the
    `compatible` indices in order through `verify`, stopping early after
    `early_exit_budget` fruitless inspections."""
    return index.probe(q, ctx, compatible, verify, early_exit=True)
