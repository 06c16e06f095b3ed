"""Level-wise mining driver: exact joins or LSH-screened joins, plus the
I/O accounting that makes the variants comparable.

`_produce_level` is the one level step.  It starts with the bucket join of
`exact.join_level`, the only place that decides which pairs are
compatible.  The exact variant and every fallback level keep its frequent
unions; an LSH level screens and verifies (the per-variant hooks in
`_LSH_VARIANTS`) each record's compatible partners, read from the join's
buckets with the item each partner adds, and keeps the unions it found.
One `exact.build_level` call turns them into the next level.  The join
also holds the frequent partners for TN and FP.  Hamming and covering
screen through one masked-projection index (`hamming_lsh.MaskIndex`) and
differ only in where their masks come from and in the early-exit budget.

Accounting model ("reading a transaction" = touching one bit of a column):
every exact support verification charges n; hashing work is tracked
separately as hash_bits_read.  `_level_row` alone applies it, to the
level's count of verifications: the items scanned at level 1, the
distinct candidates of an exact or fallback level, the queries'
inspections for Hamming and covering, the distinct unions found for
MinHash.  For each ordered compatible pair whose union is below
threshold, the partner is a false positive if the variant spent a full
verification on it (for MinHash: if the sketch approved it) and a true
negative otherwise; TN + FP then equals twice the number of unordered
compatible pairs with infrequent unions, which is checked against the join.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import covering_lsh, hamming_lsh, minhash_lsh
from .dataset import TransactionDatabase, support_threshold
from .exact import (
    FrequentItemsetSet,
    add_item,
    brute_force_mine,
    build_level,
    frequent_singletons,
    join_level,
)
from .transform import DegenerateLevel, LevelContext

VARIANTS = ("exact", "hamming", "minhash", "covering")


@dataclass(frozen=True)
class MiningConfig:
    theta: float
    variant: str = "exact"
    epsilon: float | None = None
    delta: float | None = None
    seed: int = 1
    max_level: int | None = None
    covering_early_exit: bool = False
    mask_dim_cap: int = covering_lsh.DEFAULT_MASK_DIM_CAP

    def validate(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0,1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant != "exact":
            if self.epsilon is None or self.delta is None:
                raise ValueError(f"variant {self.variant!r} requires epsilon and delta")
            if not 0.0 < self.epsilon < 1.0:
                raise ValueError("epsilon must be in (0,1)")
            if not 0.0 < self.delta < 1.0:
                raise ValueError("delta must be in (0,1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_level is not None and self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if self.mask_dim_cap < 1:
            raise ValueError("mask_dim_cap must be at least 1")


@dataclass
class LevelStats:
    """Counters for the transition that produced this level."""

    level: int
    frequent_count: int
    candidates: int            # distinct unions Apriori would generate from D_{l-1}
    emitted_candidates: int    # distinct unions this variant actually verified/emitted
    candidate_pairs: int       # compatible ordered-pair count / 2 (join multiset size)
    frequent_pairs: int        # such pairs whose union meets the threshold
    transactions_read: int     # n per exact support verification
    hash_bits_read: int        # phi per hash evaluation
    overhead_hashes: int       # hash evaluations (2 * m_{l-1} when LSH ran)
    true_negatives: int
    false_positives: int
    phi: int                   # per-hash-evaluation cost in transaction units
    savings_estimate: int      # (n - phi) * true_negatives
    lsh_active: bool
    fallback_reason: str | None = None
    misses_vs_oracle: int | None = None


@dataclass
class MiningReport:
    config: MiningConfig
    db_n: int
    db_m: int
    levels: list[LevelStats]
    itemsets: FrequentItemsetSet
    timings: dict[str, float] = field(default_factory=dict)


def lsh_apriori_mine(db: TransactionDatabase, config: MiningConfig) -> MiningReport:
    """Mine frequent itemsets level by level with the configured variant.

    Level 1 is always computed exactly.  For later levels the variant
    proposes join partners per query itemset; Hamming and covering verify
    during the query (so F is just the deduplicated candidates), MinHash
    defers verification to an explicit support scan of its candidates.
    Degenerate levels (alpha == theta) and oversized covering families
    fall back to the exact join for that level.
    """
    config.validate()
    theta_count = support_threshold(config.theta, db.n)
    fis = FrequentItemsetSet(theta_count=theta_count)
    stats: list[LevelStats] = []
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    current = frequent_singletons(db, theta_count)
    timings["level1:scan"] = time.perf_counter() - t0
    scanned = len(db.columns)
    stats.append(_level_row(db.n, 1, current, candidates=scanned, emitted=scanned,
                            verifications=scanned))
    while current:
        fis.levels.append(current)
        if config.max_level is not None and len(stats) >= config.max_level:
            break
        current, row = _produce_level(db, config, current, len(stats) + 1, theta_count, timings)
        stats.append(row)

    return MiningReport(config=config, db_n=db.n, db_m=db.m, levels=stats,
                        itemsets=fis, timings=timings)


@dataclass(frozen=True)
class _Variant:
    """How one LSH variant screens a level's join partners.  The hooks look
    their functions up on the module at call time, so a function replaced
    on its module (by a test or an observer) is the one that runs."""

    derive: Callable    # (config, ctx) -> params; may raise DegenerateLevel / FamilyTooLarge
    build: Callable     # (level, params, ctx, seed) -> index
    query: Callable     # (index, record, params, ctx, config, compatible) -> result with .partners
    phi: Callable       # (params, ctx) -> cost of one hash evaluation in transaction units
    defers_verify: bool  # False: the query verified its partners (.verified, .inspections)
                         # True: the query only approved them (.approved); verify here


_LSH_VARIANTS = {
    "hamming": _Variant(
        derive=lambda config, ctx: hamming_lsh.derive_params(ctx, config.epsilon, config.delta),
        build=lambda level, params, ctx, seed: hamming_lsh.build_index(level, params, ctx, seed),
        query=lambda index, q, params, ctx, config, compatible: hamming_lsh.query(
            index, q, ctx, compatible),
        phi=lambda params, ctx: params.k * params.L,
        defers_verify=False,
    ),
    "minhash": _Variant(
        derive=lambda config, ctx: minhash_lsh.derive_params(ctx, config.epsilon, config.delta),
        build=lambda level, params, ctx, seed: minhash_lsh.build_sketch(level, params, ctx, seed),
        query=lambda sketch, q, params, ctx, config, compatible: minhash_lsh.query(
            sketch, q, params, ctx, compatible),
        phi=lambda params, ctx: params.rows,
        defers_verify=True,
    ),
    "covering": _Variant(
        derive=lambda config, ctx: covering_lsh.derive_params(
            ctx, config.epsilon, config.delta, mask_dim_cap=config.mask_dim_cap),
        build=lambda level, params, ctx, seed: covering_lsh.build_index(
            level, covering_lsh.build_family(params, seed), ctx, params),
        query=lambda index, q, params, ctx, config, compatible: covering_lsh.query(
            index, q, ctx, compatible, early_exit=config.covering_early_exit),
        phi=lambda params, ctx: int(math.ceil(math.log(ctx.m_l) / params.c)) + 1,
        defers_verify=False,
    ),
}


def _produce_level(db, config, current, level, theta_count, timings):
    """One level step, from `current` to `level`: join, screen if LSH runs
    here, build, price the row."""
    m_l = len(current)
    tag = f"level{level}"

    t0 = time.perf_counter()
    sweep = join_level(current, theta_count)
    timings[f"{tag}:sweep"] = time.perf_counter() - t0

    variant = _LSH_VARIANTS.get(config.variant)
    params = fallback = None
    if variant is not None and m_l >= 2:
        ctx = LevelContext(n=db.n, m_l=m_l, alpha_count=max(r.support for r in current),
                           theta_count=theta_count)
        try:
            params = variant.derive(config, ctx)
        except (DegenerateLevel, covering_lsh.FamilyTooLarge) as exc:
            fallback = exc.reason
    if params is None:
        unions, emitted = sweep.frequent, sweep.distinct_candidates
        verifications, hashes, phi, tn, fp = emitted, 0, 0, 0, 0
    else:
        seed = np.random.SeedSequence([config.seed, level])
        unions, verifications, tn, fp = _screen_level(variant, config, current, ctx, params, seed,
                                                      sweep, tag, timings)
        emitted, hashes, phi = len(unions), 2 * m_l, variant.phi(params, ctx)

    t0 = time.perf_counter()
    nxt = build_level(current, unions, theta_count)   # drops only unverified unions
    if params is not None and variant.defers_verify:
        timings[f"{tag}:verify"] = time.perf_counter() - t0
    return nxt, _level_row(db.n, level, nxt, sweep.distinct_candidates, emitted,
                           verifications, sweep=sweep, hashes=hashes, phi=phi, tn=tn, fp=fp,
                           fallback=fallback)


def _screen_level(variant, config, current, ctx, params, seed, sweep, tag, timings):
    """One LSH level: build, query every record with its compatible
    partners.  Returns the unions found (each with the first pair found to
    form it), the level's support verifications, TN and FP."""
    t0 = time.perf_counter()
    index = variant.build(current, params, ctx, seed)
    timings[f"{tag}:build"] = time.perf_counter() - t0

    found: dict[tuple[int, ...], tuple[int, int]] = {}
    query_s = 0.0
    inspections = tn = fp = 0
    for i, q in enumerate(current):
        compatible = sweep.partners(i)
        t0 = time.perf_counter()
        res = variant.query(index, q, params, ctx, config, compatible)
        query_s += time.perf_counter() - t0
        negatives = compatible.keys() - sweep.positives[i]
        hit = len(negatives.intersection(res.approved if variant.defers_verify else res.verified))
        fp += hit
        tn += len(negatives) - hit
        if not variant.defers_verify:
            inspections += res.inspections
        for j in res.partners:
            found.setdefault(add_item(q.items, compatible[j]), (i, j))
    timings[f"{tag}:query"] = query_s
    # a deferred verification checks each distinct union once, in build_level
    return found, len(found) if variant.defers_verify else inspections, tn, fp


def _level_row(n, level, nxt, candidates, emitted, verifications, sweep=None, hashes=0, phi=0,
               tn=0, fp=0, fallback=None) -> LevelStats:
    """The level's report row, and the only place that prices it by the
    paper's cost model: n reads per support verification, phi per hash
    evaluation.  A level ran LSH iff it hashed (twice per record)."""
    return LevelStats(
        level=level, frequent_count=len(nxt), candidates=candidates, emitted_candidates=emitted,
        candidate_pairs=sweep.candidate_pairs if sweep else 0,
        frequent_pairs=sweep.frequent_pairs if sweep else 0,
        transactions_read=n * verifications, hash_bits_read=hashes * phi,
        overhead_hashes=hashes, true_negatives=tn, false_positives=fp, phi=phi,
        savings_estimate=(n - phi) * tn, lsh_active=hashes > 0, fallback_reason=fallback,
    )


@dataclass
class ComparisonReport:
    report: MiningReport
    oracle_count: int
    output_count: int
    missed: list[tuple[tuple[int, ...], int]]
    sub_threshold: list[tuple[tuple[int, ...], int]]
    per_level_misses: dict[int, int]

    @property
    def clean(self) -> bool:
        return not self.missed and not self.sub_threshold


def compare_with_oracle(db: TransactionDatabase, config: MiningConfig) -> ComparisonReport:
    """Run the configured variant and diff it against brute force."""
    oracle = brute_force_mine(db, config.theta)
    return diff_against_oracle(lsh_apriori_mine(db, config), oracle)


def diff_against_oracle(report: MiningReport, oracle: FrequentItemsetSet) -> ComparisonReport:
    """Diff a mining report against the brute-force itemsets of its database.

    Reports every frequent itemset the variant missed and every emitted
    itemset below threshold (the latter must always be empty: the support
    filter is exact).  Per-level miss counts are attached to the report's
    level rows where those levels were attempted.
    """
    out = report.itemsets.as_dict()
    oracle_dict = oracle.as_dict()

    missed = sorted((items, supp) for items, supp in oracle_dict.items() if items not in out)
    sub = sorted((items, supp) for items, supp in out.items()
                 if supp < report.itemsets.theta_count)
    per_level: dict[int, int] = {}
    for items, _ in missed:
        per_level[len(items)] = per_level.get(len(items), 0) + 1
    for row in report.levels:
        row.misses_vs_oracle = per_level.get(row.level, 0)
    return ComparisonReport(report=report,
                            oracle_count=len(oracle_dict), output_count=len(out),
                            missed=missed, sub_threshold=sub, per_level_misses=per_level)


def accounting_check(stats: LevelStats, n: int) -> bool:
    """Verify the level's counters: TN + FP must equal twice the number of
    compatible pairs with infrequent unions, and the savings estimate must
    be (n - phi) * TN.  Vacuously true for levels where no LSH ran."""
    if not stats.lsh_active:
        return True
    identity = (stats.true_negatives + stats.false_positives
                == 2 * (stats.candidate_pairs - stats.frequent_pairs))
    savings = stats.savings_estimate == (n - stats.phi) * stats.true_negatives
    return identity and savings
