"""Level-wise mining driver: exact joins or LSH-screened joins, plus the
I/O accounting that makes the variants comparable.

`_produce_level` is the one level step, from one `exact.Level` to the
next; the output keeps the levels, whose records are built only when one
is iterated.  It starts with the array join of `exact.join_level`, the
only place that decides which pairs are compatible.  Each level then
chooses some of the join's ordered pairs: the frequent ones on exact and
fallback levels, on an LSH level the partners of one query through the
per-variant hooks of `_LSH_VARIANTS`.  One `exact.build_level` call of
their `PairSweep.unions` makes the next level.  Hamming and covering
screen through one masked-projection index (`hamming_lsh.MaskIndex`)
and differ only in where their keys come from and in the early-exit
budget.  MinHash compares the sketch rows of every pair.

Accounting model ("reading a transaction" = touching one bit of a column):
every level verifies each distinct candidate once, as Apriori does, and
`_level_row` charges n per verification: n * emitted_candidates on every
row.  An LSH level verifies through the batched `verify` that
`_screen_level` hands the query (and then applies to MinHash's approved
pairs): a union's co-support is the popcount of its pair's packed
vectors, read the first time the level meets the union.  The join's
co-support serves only the accounting.  Hashing work is tracked
separately as hash_bits_read.  Each ordered compatible pair whose union
the join found below threshold is a false positive if the level verified
it and a true negative otherwise.  Both are counted pair by pair, so the
identity TN + FP == 2 * (candidate_pairs - frequent_pairs) that
`accounting_check` tests stays a check on them.
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
    brute_force_mine,
    build_level,
    frequent_singletons,
    join_level,
    pair_cosupport,
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
    emitted_candidates: int    # distinct unions this variant verified (<= candidates)
    candidate_pairs: int       # compatible ordered-pair count / 2 (join multiset size)
    frequent_pairs: int        # such pairs whose union meets the threshold
    transactions_read: int     # n * emitted_candidates: n per support verification
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
    screens the join's compatible pairs, and each distinct union of the
    pairs it proposes is verified once against the database: during the
    query for Hamming and covering, after it for MinHash's sketch-approved
    pairs.
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
    scanned = len(db.items)
    stats.append(_level_row(db.n, 1, current, candidates=scanned, emitted=scanned))
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
    """How one LSH variant screens a level's join pairs.  The hooks look
    their functions up on the module at call time, so a function replaced
    on its module (by a test or an observer) is the one that runs."""

    derive: Callable    # (config, ctx) -> params; may raise DegenerateLevel / FamilyTooLarge
    build: Callable     # (level, params, ctx, seed) -> index
    query: Callable     # (index, sweep, params, ctx, config, verify) -> .partners (pair indices)
    phi: Callable       # (params, ctx) -> cost of one hash evaluation in transaction units


_LSH_VARIANTS = {
    "hamming": _Variant(
        derive=lambda config, ctx: hamming_lsh.derive_params(ctx, config.epsilon, config.delta),
        build=lambda level, params, ctx, seed: hamming_lsh.build_index(level, params, ctx, seed),
        query=lambda index, sweep, params, ctx, config, verify: hamming_lsh.query(
            index, sweep, ctx, verify),
        phi=lambda params, ctx: params.k * params.L,
    ),
    "minhash": _Variant(
        derive=lambda config, ctx: minhash_lsh.derive_params(ctx, config.epsilon, config.delta),
        build=lambda level, params, ctx, seed: minhash_lsh.build_sketch(level, params, ctx, seed),
        query=lambda sketch, sweep, params, ctx, config, verify: minhash_lsh.query(
            sketch, sweep, params),
        phi=lambda params, ctx: params.rows,
    ),
    "covering": _Variant(
        derive=lambda config, ctx: covering_lsh.derive_params(
            ctx, config.epsilon, config.delta, mask_dim_cap=config.mask_dim_cap),
        build=lambda level, params, ctx, seed: covering_lsh.build_index(
            level, covering_lsh.build_family(params, seed), ctx, params),
        query=lambda index, sweep, params, ctx, config, verify: covering_lsh.query(
            index, sweep, ctx, verify, early_exit=config.covering_early_exit),
        phi=lambda params, ctx: int(math.ceil(math.log(ctx.m_l) / params.c)) + 1,
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
        ctx = LevelContext(n=db.n, m_l=m_l, alpha_count=int(current.supports.max()),
                           theta_count=theta_count)
        try:
            params = variant.derive(config, ctx)
        except (DegenerateLevel, covering_lsh.FamilyTooLarge) as exc:
            fallback = exc.reason
    chosen, emitted, tn, fp = np.flatnonzero(sweep.pair_frequent), sweep.distinct_candidates, 0, 0
    hashes = phi = 0
    if params is not None:
        seed = np.random.SeedSequence([config.seed, level])
        chosen, emitted, tn, fp = _screen_level(variant, config, current, ctx, params, seed,
                                                sweep, tag, timings)
        hashes, phi = 2 * m_l, variant.phi(params, ctx)

    nxt = build_level(current, *sweep.unions(chosen), theta_count)   # drops unions below threshold
    return nxt, _level_row(db.n, level, nxt, sweep.distinct_candidates, emitted, sweep=sweep,
                           hashes=hashes, phi=phi, tn=tn, fp=fp, fallback=fallback)


def _screen_level(variant, config, current, ctx, params, seed, sweep, tag, timings):
    """One LSH level: build, screen the join's ordered pairs in one query,
    verify what it returns.  Returns the query's partners, the number of
    distinct unions read, TN and FP."""
    t0 = time.perf_counter()
    index = variant.build(current, params, ctx, seed)
    timings[f"{tag}:build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    support = np.full(sweep.distinct_candidates, -1, dtype=np.int64)   # union -> co-support
    verified = np.zeros((2, sweep.candidate_pairs), dtype=bool)   # per ordered pair
    verify_s = 0.0

    def verify(sel):   # co-support of each selected pair, read once per union per level
        nonlocal verify_s
        t = time.perf_counter()
        u = sweep.union(sel)
        unread = support[u] < 0
        new, at = np.unique(u[unread], return_index=True)
        read = sel[unread][at]
        support[new] = pair_cosupport(current.packed, *sweep.members(read)[:2])
        verified.reshape(-1)[sel] = True
        verify_s += time.perf_counter() - t
        return support[u]

    partners = variant.query(index, sweep, params, ctx, config, verify).partners
    verify(partners)   # MinHash's sketch-approved pairs are read here
    timings[f"{tag}:query"] = time.perf_counter() - t0 - verify_s
    timings[f"{tag}:verify"] = verify_s
    negative = ~sweep.pair_frequent   # per unordered pair, in both directions
    tn = int(np.count_nonzero(~verified & negative))
    fp = int(np.count_nonzero(verified & negative))
    return partners, int(np.count_nonzero(support >= 0)), tn, fp


def _level_row(n, level, nxt, candidates, emitted, sweep=None, hashes=0, phi=0, tn=0, fp=0,
               fallback=None) -> LevelStats:
    """The level's report row, and the only place that prices it by the
    paper's cost model: n reads per distinct candidate verified, phi per
    hash evaluation.  A level ran LSH iff it hashed (twice per record)."""
    return LevelStats(
        level=level, frequent_count=len(nxt), candidates=candidates, emitted_candidates=emitted,
        candidate_pairs=sweep.candidate_pairs if sweep else 0,
        frequent_pairs=sweep.frequent_pairs if sweep else 0,
        transactions_read=n * emitted, hash_bits_read=hashes * phi,
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
    """Verify the level's counters.  On every level the reads must be n per
    verified candidate, and no more candidates verified than the join
    formed.  On a level where LSH ran, TN + FP must also equal twice the
    number of compatible pairs with infrequent unions, and the savings
    estimate must be (n - phi) * TN."""
    if (stats.transactions_read != n * stats.emitted_candidates
            or stats.emitted_candidates > stats.candidates):
        return False
    if not stats.lsh_active:
        return True
    identity = (stats.true_negatives + stats.false_positives
                == 2 * (stats.candidate_pairs - stats.frequent_pairs))
    savings = stats.savings_estimate == (n - stats.phi) * stats.true_negatives
    return identity and savings
