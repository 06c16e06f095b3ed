"""Bit-sampling LSH over padded vectors, and the level screen it shares
with the covering variant.

L hash tables, each keyed by k uniformly sampled bit positions of the
padded vector (the bit-sampling family of Gionis, Indyk & Motwani, VLDB
1999).  Record a's key in table t is the k bits of P(a) at row t of the
projections, its query key the same bits of Q(a), each packed into uint64
words; both are read off the level's packed vectors and padding runs
(`transform.padding_runs`), and no vector is padded.

`MaskIndex.screen` screens a whole level at once.  For every compatible
ordered pair (q, a) of the join it finds the first table in which Q(q)
and P(a) share a key, in one of two ways (`MaskIndex.first_tables`).  The
pairwise path compares the key rows of every pair in every table, a chunk
of pairs at a time: O(pairs x tables).  The sort path sorts each table's
P and Q keys, filed once per join filing and hashed with the filing's
(l-1)-subset group, so only compatible pairs meet; it checks each
meeting's whole key rows and numbers its pair in closed form from the
two filings: O(tables x F log F + meetings) for F = m_l * l filings,
the bit-sampling lookup of Gionis, Indyk & Motwani.  `sort_pays` picks the sort path iff
the pairwise path's words, pairs x key words per table, exceed
SORT_FACTOR times a sort of the table's 2F keys.  Heavily shared keys
(small k, covering's all-zero phi) make the meetings approach pairs x
tables; the sort path counts a chunk's meetings before it checks any,
and gives way to the pairwise path when they exceed 1 / MEETING_FACTOR of
its words.  Each query then visits its colliding partners by (first
table, partner index), the order in which probing its buckets table by
table would meet them, and verifies them through the caller's `verify`
(which decides what is read and charged) in two batches: every query's
first `budget` partners, then the rest of each query that found a
similar partner among those.  A query that found none there gives up
early, as a per-record probe would after `budget` fruitless inspections;
an index with no budget (covering's) has every query verify all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .exact import Level, PairSweep
from .transform import (DegenerateLevel, LevelContext, _ceil, check_index_bytes, check_tolerances,
                        padding_runs)

# The sorted screen hashes each key, XOR its filing's group times MIX, to
# the high 32 bits of its product with MIX (Fibonacci hashing), an odd
# 64-bit constant; every meeting's key rows are compared, so no result
# depends on it.
MIX = np.uint64(0x9E3779B97F4A7C15)
HIGH, LOW = np.uint64(0xFFFFFFFF00000000), np.uint64(0xFFFFFFFF)
# How many times more a sort step of one key costs than comparing one key
# word of one pair (`sort_pays`).  Measured per level screen, both paths in
# process, 2-vCPU host, median of 5, against pairs * key_words / (2F *
# ceil(log2 2F)): at 19.95 (`negatives`, 400 singletons) sorting is 12x
# faster for Hamming and 9x for covering's 511 tables; at 4.2 (60 random
# singletons, n = 2000) 1.0-1.9x faster; at 2.79 (`wide`, 40 singletons)
# 1.6x slower; at 0.02-1.0 (every `dense-deep` level) 2-7x slower.
SORT_FACTOR = 4
# How many times more one meeting of the sort path costs than comparing one
# key word of one pair in one table (`first_tables`).  Measured on a
# `negatives`-size level (400 singletons, n = 2000, 63 tables), both paths
# in process, 2-vCPU host, min of 3: the two paths cost the same where the
# meetings are 0.025-0.03 of pairs * key_words * tables, for Hamming (k from
# 1 to 29) and for covering (phi zero on all but 3 to 90 positions); at
# covering's all-zero phi (ratio 1.0) sorting is 43x slower.
MEETING_FACTOR = 32


@dataclass(frozen=True)
class HammingLshParams:
    rho: float
    k: int
    L: int
    early_exit_budget: int | None   # None: no query exits early


def derive_params(ctx: LevelContext, epsilon: float, delta: float) -> HammingLshParams:
    """Choose (rho, k, L) for the level.

    rho = (a-t)/(a-(1-e)t), k = ceil(log_{(1+2a)/(1+2(1-e)t)} m_l),
    L = ceil(m_l^rho * ln(1/delta)), early exit budget ceil(L/delta) (none where it overflows),
    where a and t are the level's weight and threshold fractions.  Raises DegenerateLevel
    when a == t (rho would be 0 and the gap empty), and FamilyTooLarge when 2 x m_l x L
    keys of ceil(k/64) words exceed `transform.MAX_INDEX_BYTES`.
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
    L_raw = ctx.m_l**rho * math.log(1.0 / delta)   # inf as delta -> 0
    check_index_bytes(16 * ctx.m_l * L_raw * ((k + 63) // 64), "Hamming index")
    L = max(1, _ceil(L_raw))
    return HammingLshParams(rho, k, L, _ceil(L / delta) if math.isfinite(L / delta) else None)


@dataclass
class QueryResult:
    """What one level's screen did.  Pairs are indices into the level's
    ordered pairs.  `verified` lists the pairs the screen verified, grouped
    by query record in ascending order, each query's in visit order, with
    their co-supports in `co`; `partners` are those meeting the threshold,
    in the same order.  `exited` flags the query records that gave up
    early."""

    first: np.ndarray      # per pair: first colliding table, or the table count if none
    verified: np.ndarray
    co: np.ndarray
    partners: np.ndarray
    exited: np.ndarray     # bool per record

    @property
    def inspections(self) -> int:   # support verifications: one per verified pair
        return len(self.verified)

    @property
    def early_exit(self) -> int:    # queries that gave up early
        return int(np.count_nonzero(self.exited))


@dataclass
class MaskIndex:
    """One table per mask: per record a and table t, the key of P(a) in
    `p_keys[a, t]` and of Q(a) in `q_keys[a, t]`, each a row of uint64
    words.  Q(q) collides with P(a) in table t iff the two rows are equal:
    Hamming's rows are the sampled bits themselves, covering's the
    fingerprints of its masked vectors (`covering_lsh`), whose rare chance
    equality costs the screen one verification."""

    p_keys: np.ndarray   # (m_l, tables, words) uint64
    q_keys: np.ndarray
    early_exit_budget: int | None   # None: no query exits early

    @property
    def tables(self) -> list[dict[bytes, list[int]]]:
        """Per table, the records under each P key row, keyed by the row's
        bytes: built on each access, for inspection; the screen never
        reads it."""
        rows = np.ascontiguousarray(self.p_keys.transpose(1, 0, 2))
        tables = []
        for keys in rows.view(f"V{rows.itemsize * rows.shape[2]}")[..., 0].tolist():
            table: dict = {}
            for idx, key in enumerate(keys):
                table.setdefault(key, []).append(idx)
            tables.append(table)
        return tables

    def collisions(self, q: np.ndarray, a: np.ndarray) -> np.ndarray:
        """(pairs, tables) bool: where the key rows of Q(q[p]) and P(a[p]) agree."""
        same = self.q_keys.take(q, axis=0) == self.p_keys.take(a, axis=0)
        return same[:, :, 0] if same.shape[2] == 1 else same.all(axis=2)

    def first_tables(self, sweep: PairSweep) -> np.ndarray:
        """Per ordered pair, the first table in which the key rows of Q(q)
        and P(a) are equal, or the table count if none: by sorting each
        table's keys where `sort_pays`, unless the keys of a table meet
        more than pairs * key_words / MEETING_FACTOR times, else by
        comparing the key rows of every pair, each read off `sweep.members`."""
        key_words = self.p_keys.shape[2]
        if sort_pays(len(sweep), key_words, sweep.filings.shape[1]):
            first = self.sorted_first_tables(sweep, most=len(sweep) * key_words / MEETING_FACTOR)
            if first is not None:
                return first
        q, a, _ = sweep.members(np.arange(len(sweep)))
        return self.pairwise_first_tables(q, a)

    def pairwise_first_tables(self, q: np.ndarray, a: np.ndarray) -> np.ndarray:
        """`first_tables` of the pairs (q[p], a[p]) by comparing their key
        rows in every table, PAIR_CHUNK_WORDS words of each operand at a
        time: O(pairs x tables), whatever collides."""
        first = np.empty(len(q), dtype=np.int32)
        step = exact.chunk_rows(self.p_keys.shape[1] * self.p_keys.shape[2])   # a pair's key rows
        for s in range(0, len(q), step):
            first[s:s + step] = _first_true(self.collisions(q[s:s + step], a[s:s + step]))
        return first

    def sorted_first_tables(self, sweep: PairSweep, most: float = math.inf) -> np.ndarray | None:
        """`first_tables` from one sort of each table's P and Q keys, a
        chunk of tables at a time, or None as soon as a chunk's keys meet
        more than `most` times per table.  Each record's keys are filed
        once per filing of the join, hashed with the filing's group, so a Q
        filing meets the P filings of its own group and equal key, and
        others only by chance.  A meeting settles the pair's first table
        if it is one: the same group, another record and the same whole key
        row, not just the same 32-bit hash.  The work is the sorts plus the
        meetings, not pairs x tables."""
        owner, _, end = sweep.filings
        filings, tables = len(owner), self.p_keys.shape[1]
        first = np.full(len(sweep), tables, dtype=np.int32)
        group = np.tile(end.astype(np.uint64) * MIX, 2)
        step = exact.chunk_rows(2 * filings)   # tables whose keys one sort takes
        for t0 in range(0, tables if len(sweep) else 0, step):
            keys = np.concatenate([self.p_keys[:, t0:t0 + step, 0].T[:, owner],
                                   self.q_keys[:, t0:t0 + step, 0].T[:, owner]], axis=1)
            count, meetings = _meetings(keys ^ group, filings)
            if count > most * len(keys):
                return None
            for t, fq, fa in meetings:
                mine = (fq != fa) & (end[fq] == end[fa])
                t, fq, fa = t[mine] + t0, fq[mine], fa[mine]
                real = (self.q_keys[owner[fq], t] == self.p_keys[owner[fa], t]).all(axis=1)
                np.minimum.at(first, sweep.index(fq[real], fa[real]), t[real].astype(np.int32))
        return first

    def screen(self, sweep: PairSweep, ctx: LevelContext, verify) -> QueryResult:
        """Verify, through `verify(pair_indices) -> co-supports`, the pairs
        that collide in some table, in each query's visit order, under the
        early-exit budget, or under one that no query reaches if it is
        None.  Only the colliding pairs are read off `sweep`."""
        first = self.first_tables(sweep)
        hit = np.flatnonzero(first < self.p_keys.shape[1])
        q, a, _ = sweep.members(hit)
        order = np.lexsort((a, first[hit], q))
        visit, q = hit[order], q[order]
        budget = len(visit) + 1 if self.early_exit_budget is None else self.early_exit_budget
        counts = np.bincount(q, minlength=len(self.p_keys))
        head = exact.run_positions(counts) < budget
        co = np.empty(len(visit), dtype=np.int64)
        co[head] = verify(visit[head])
        found = np.zeros(len(self.p_keys), dtype=bool)
        found[q[head][co[head] >= ctx.theta_count]] = True
        exited = (counts >= budget) & ~found
        tail = ~head & found[q]
        co[tail] = verify(visit[tail])
        keep = head | tail
        verified, co = visit[keep], co[keep]
        return QueryResult(first, verified, co, verified[co >= ctx.theta_count], exited)


def sort_pays(pairs: int, key_words: int, filings: int) -> bool:
    """Whether a level screens by sorting keys: iff comparing every ordered
    pair's key in a table, pairs * key_words words, costs more than
    SORT_FACTOR sorts' worth of the table's 2 * filings keys,
    2F * ceil(log2 2F)."""
    keys = 2 * filings
    return pairs * key_words > SORT_FACTOR * keys * (keys - 1).bit_length()


def _meetings(keys: np.ndarray, filings: int):
    """Per row of `keys` (one table: the filings' P keys, then their Q
    keys), every Q filing with every P filing whose key has the same
    32-bit hash: their count, and a generator of them as arrays (row, Q
    filing, P filing) in row order, about PAIR_CHUNK_WORDS at a time."""
    width = keys.shape[1]
    # the hash in the high half and the column in the low: a plain sort
    # groups equal hashes, P columns first
    ranked = np.sort(keys * MIX & HIGH | np.arange(width, dtype=np.uint64), axis=1).reshape(-1)
    hashes = ranked >> np.uint64(32)
    same = hashes[1:] == hashes[:-1]   # as the key before it
    same[width - 1::width] = False     # in another table
    shared = np.flatnonzero(np.r_[same, False] | np.r_[False, same])   # keys in runs of two or more
    column = (ranked[shared] & LOW).astype(np.int64)
    new = np.r_[True, ~same[shared[1:] - 1]]
    run = np.cumsum(new) - 1
    is_p = column < filings
    q_at = np.flatnonzero(~is_p)
    count = np.bincount(run[is_p], minlength=len(new))[run[q_at]]   # the P keys it meets
    q_at, count = q_at[count > 0], count[count > 0]
    head = np.flatnonzero(new)[run[q_at]]   # its run's first P key
    total = np.cumsum(count)
    meetings = int(total[-1]) if len(total) else 0
    cuts = np.searchsorted(total, np.arange(exact.PAIR_CHUNK_WORDS, meetings,
                                            exact.PAIR_CHUNK_WORDS))

    def chunks():
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(q_at)]):
            c = count[lo:hi]
            q = np.repeat(q_at[lo:hi], c)
            p = np.repeat(head[lo:hi], c) + exact.run_positions(c)
            yield shared[q] // width, column[q] - filings, column[p]

    return meetings, chunks()


def _first_true(hit: np.ndarray) -> np.ndarray:
    """Per row, the first True column, or the column count if none."""
    first = hit.argmax(axis=1)
    first[~hit[np.arange(len(hit)), first]] = hit.shape[1]
    return first


def build_index(level: Level, params: HammingLshParams, ctx: LevelContext,
                seed, projections: np.ndarray | None = None) -> MaskIndex:
    """Key every record's P- and Q-padded vector in each of the L tables.

    All randomness (the L position sets) is drawn up front from the seed;
    `projections` can be supplied directly to pin the sample in tests.  A
    position sampled twice is read twice, which groups the records as
    reading it once would.  A key is that of the own bits (once per record)
    ORed with that of the role's padding run (once per run length).
    """
    if projections is None:
        rng = np.random.default_rng(seed)
        projections = rng.integers(0, ctx.padded_length, size=(params.L, params.k), dtype=np.int64)
    else:
        projections = np.asarray(projections, dtype=np.int64)
        if projections.shape != (params.L, params.k):
            raise ValueError(f"projections must have shape {(params.L, params.k)}")
        if ((projections < 0) | (projections >= ctx.padded_length)).any():
            raise ValueError(f"projections must lie in [0, {ctx.padded_length})")
    lengths, run, starts = padding_runs(level.supports, ctx)
    offsets = [projections[..., None] - start for start in starts]   # P's run, then Q's
    run_keys = [_pack_bits((offset >= 0) & (offset < lengths)) for offset in offsets]
    own = np.minimum(projections, ctx.n)   # row n of the own bits is 0
    words = (params.k + 63) // 64
    step = exact.chunk_rows(max(-(-(ctx.n + 1) // 8), -(-params.L * params.k // 8),
                                params.L * words))   # own bits, sampled bits, keys
    keys = [np.empty((len(level), params.L, words), dtype=np.uint64) for _ in range(2)]
    for s in range(0, len(level), step):
        bits = np.unpackbits(level.packed[s:s + step].view(np.uint8).T, axis=0,
                             count=ctx.n + 1, bitorder="little")
        own_keys = _pack_bits(bits[own])
        for out, run_key in zip(keys, run_keys):
            np.bitwise_or(own_keys, run_key[run[s:s + step]], out=out[s:s + step])
    return MaskIndex(*keys, early_exit_budget=params.early_exit_budget)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """(tables, k, records) bits as (records, tables, ceil(k/64)) uint64
    words, bit j in word j // 64."""
    j = np.arange(bits.shape[1])
    weight = np.zeros((len(j), (len(j) + 63) // 64), dtype=np.uint64)
    weight[j, j >> 6] = np.uint64(1) << (j & 63).astype(np.uint64)
    return np.einsum("tkr,kw->rtw", bits, weight)


def query(index: MaskIndex, sweep: PairSweep, ctx: LevelContext, verify) -> QueryResult:
    """Screen the join's ordered pairs and verify every query's colliding
    partners through `verify`, each query stopping early after
    `early_exit_budget` fruitless inspections."""
    return index.screen(sweep, ctx, verify)
