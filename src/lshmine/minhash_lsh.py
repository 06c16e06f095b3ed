"""Asymmetric MinHash over padded vectors.

A sketch of `rows` minwise values per itemset estimates the padded Jaccard
similarity.  One query screens the whole level, a join group at a time:
for every compatible ordered pair (q, a) it counts the sketch rows on which
P(a) and Q(q) agree, and approves the pair iff that count reaches rows *
accept_threshold.  It reads no database; the engine verifies the unions.

The sketch is rejection-sampled minwise hashing (Shrivastava, "Simple and
Efficient Weighted Minwise Hashing", NIPS 2016).  Row r is a stream of
uniform positions in [0, n'), and a padded vector's value on it is the
index of the first sample it holds.  Two vectors agree on a row exactly
when the first sample in their union lies in their intersection, with
probability |P(a) & Q(q)| / |P(a) | Q(q)|, their padded Jaccard
similarity, as for min-wise permutations (Broder, Charikar, Frieze &
Mitzenmacher, JCSS 2000), and with no ties.  Sample t of row r is the level
generator's raw 32-bit half t * rows + r (each 64-bit word low half first:
numpy fixes raw streams, not `Generator` methods) mapped to [0, n') by
Lemire's multiply-shift; a half its rejection step refuses becomes n',
which no vector holds, so every position is exactly uniform.

P(v) and Q(v) each hold alpha of the n' positions, so a (record, row) cell
takes n'/alpha samples on average.  The build draws a block of samples of
every row at a time and resolves each open cell at the first it holds.  A
sample is held by v's own bits, shared by both roles, or by the role's run
of alpha - |v| ones from n (P) or n + alpha (Q), both read off one bit
table, the level's packed transpose (`_held_bits`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .exact import Level, PairSweep
from .transform import LevelContext, _ceil, check_index_bytes, check_tolerances

# A block's length is the least power of two of samples after which a cell
# is open with probability at most BLOCK_MISS, q^length <= BLOCK_MISS for
# q = 1 - alpha/n' (32 on `negatives` and `wide`, 16-64 on `dense-deep`).
# Measured on the bench levels (seed 1), in process, alternating, 2-vCPU
# host, min of 25 summed builds: 1/4, 1/16 and 1/64 take 2.8, 1.6 and 1.15
# ms on `negatives`, 16.8, 11.5 and 11.4 on `dense-deep`, 1.4, 0.85 and 0.71
# on `wide`; 1/256 to 1/5,000 are no faster.
BLOCK_MISS = 2.0 ** -6
# The least join group size, in records, whose pairs `query` counts by
# broadcast (`_group_matches`), not stacked with the groups of its size.
# Measured on one group of random uint8 sketches per size (16 to 200
# records, 57 to 1,117 rows), both ways in process, 2-vCPU host, min of 9:
# the broadcast overtakes the stacked compare at 48-64 records for 281 rows
# and 64-96 for 875 and 1,117 (6.5 against 5.3 ms at 64), and leads from 16
# on at 57 rows (0.1 ms at 64).  It broadcasts `negatives`' one group of
# 400 and stacks `wide`'s 40 and `dense-deep`'s at most 11.
BROADCAST_GROUP = 64


@dataclass(frozen=True)
class MinhashParams:
    omega: float              # Jaccard value of a pair exactly at (1-eps)*theta co-support
    eps_mh: float             # estimation tolerance fed to the sketch-size bound
    rows: int                 # sketch rows (the lambda of the size bound)
    accept_threshold: float   # estimated-JS cutoff for adding a partner


def derive_params(ctx: LevelContext, epsilon: float, delta: float) -> MinhashParams:
    """omega = (1-e)t/(2a-(1-e)t), eps_mh = a*e/(a+(a-t)(1-e)),
    rows = ceil(2/(omega*eps_mh^2) * ln(1/delta)), accept = (1-eps_mh)t/(2a-t).

    alpha == theta degenerates gracefully (eps_mh == epsilon).  Raises
    FamilyTooLarge when the 2 x m_l x rows values, priced at 32 bits each,
    exceed `transform.MAX_INDEX_BYTES`.
    """
    check_tolerances(epsilon, delta)
    alpha, theta = ctx.alpha, ctx.theta
    low = (1.0 - epsilon) * theta
    omega = low / (2.0 * alpha - low)
    eps_mh = alpha * epsilon / (alpha + (alpha - theta) * (1.0 - epsilon))
    scale = omega * eps_mh * eps_mh
    rows_raw = (2.0 / scale) * math.log(1.0 / delta) if scale > 0.0 else math.inf
    check_index_bytes(8 * ctx.m_l * rows_raw, "MinHash sketch")
    rows = max(1, _ceil(rows_raw))
    accept = (1.0 - eps_mh) * theta / (2.0 * alpha - theta)
    return MinhashParams(omega=omega, eps_mh=eps_mh, rows=rows, accept_threshold=accept)


@dataclass
class MinhashSketch:
    records: np.ndarray        # (m_l, rows) first held sample of the P-padded records
    query_records: np.ndarray  # (m_l, rows) first held sample of the Q-padded records
    seed: object               # what `perms` redraws: the level's seed, n' and the
    padded_length: int         # samples the build drew a row
    samples: int

    columns = property(lambda self: self.records.T)               # (rows, m_l)
    query_columns = property(lambda self: self.query_records.T)   # (rows, m_l)
    # (rows, samples) int64 positions the build drew, redrawn on access for inspection only
    perms = property(lambda self: _sampler(self.seed, self.records.shape[1],
                                           self.padded_length)(self.samples).T)


def build_sketch(level: Level, params: MinhashParams, ctx: LevelContext, seed) -> MinhashSketch:
    """Each P-padded and Q-padded record's first held sample on each of
    `rows` seeded sample streams, drawn a block of samples at a time.  The
    values take the least unsigned type that holds the largest of them."""
    n, alpha, length = ctx.n, ctx.alpha_count, ctx.padded_length
    if length > np.iinfo(np.int32).max:
        raise ValueError(f"padded length {length} does not fit int32")
    if len(level) and level.n != n:
        raise ValueError(f"vector length {level.n} != level n {n}")
    m, rows = len(level), params.rows
    if not m:
        return MinhashSketch(*np.zeros((2, 0, rows), dtype=np.uint8), seed, length, 0)
    table = _held_bits(level, ctx)
    draw = _sampler(seed, rows, length)
    # a power of two up to 128 (`_first_hits`) whose samples and held words fit chunks
    fits = min(exact.chunk_rows(rows), exact.chunk_rows(table.shape[1]))
    block = min(1 << (_ceil(math.log(BLOCK_MISS) / math.log1p(-alpha / length)) - 1).bit_length(),
                128, 1 << fits.bit_length() - 1)
    step = exact.chunk_rows(block * table.shape[1])
    values = np.full((rows, 2, m), 255, dtype=np.uint8)   # the dtype's largest: open
    samples = 0
    while (live := np.flatnonzero((values == np.iinfo(values.dtype).max).any(axis=(1, 2)))).size:
        at = draw(block)
        if samples + block >= np.iinfo(values.dtype).max:
            wide = np.min_scalar_type(2 * (samples + block))
            values = np.where(values == np.iinfo(values.dtype).max, np.iinfo(wide).max,
                              values.astype(wide))
        for s in range(0, len(live), step):
            r = live[s:s + step]
            first = _first_hits(table, at.take(r, axis=1)).reshape(len(r), 2, -1)[:, :, :m]
            found = np.full(first.shape, np.iinfo(values.dtype).max, dtype=values.dtype)
            np.add(first, samples, out=found, where=first < 128, dtype=values.dtype)
            values[r] = np.minimum(values.take(r, axis=0), found)
        samples += block
    values = values.astype(np.min_scalar_type(values.max()), copy=False)
    return MinhashSketch(*np.ascontiguousarray(values.transpose(1, 2, 0)), seed, length, samples)


def _sampler(seed, rows: int, length: int):
    """The map from a count c to the next c samples of every row, (c, rows)
    int64 positions in [0, length]: row r's t-th sample is the seed's raw
    32-bit half t * rows + r, x, mapped to x * length >> 32, or to
    `length` where the product's low half is below 2^32 mod length."""
    bits = np.random.default_rng(seed).bit_generator
    reject = (1 << 32) % length
    carry = np.empty(0, dtype=np.uint32)

    def draw(count):
        nonlocal carry
        need = count * rows
        words = bits.random_raw((need - len(carry) + 1) // 2).astype("<u8", copy=False)
        halves = np.concatenate((carry, words.view("<u4"))) if len(carry) else words.view("<u4")
        carry = halves[need:].copy()
        product = halves[:need].astype(np.uint64) * np.uint64(length)
        positions = (product >> np.uint64(32)).view(np.int64)
        positions[product.astype(np.uint32) < reject] = length
        return positions.reshape(count, rows)
    return draw


def _held_bits(level: Level, ctx: LevelContext) -> np.ndarray:
    """(n' + 1, 2 * ceil(m_l / 64)) uint64: row j holds the records whose
    P(v) holds position j in its first half, whose Q(v) does in its second,
    record i at bit i % 64 of word i // 64; row n' none.  The own rows are
    the packed level's 8 x 8 bit blocks (8 records' bytes) transposed, a
    chunk of words at a time."""
    m, n, alpha = len(level), ctx.n, ctx.alpha_count
    if (level.supports > alpha).any():
        raise ValueError(f"popcount {level.supports.max()} exceeds alpha_count {alpha}")
    groups = -(-m // 8)
    half = -(-groups // 8) * 8   # bytes a role
    table = np.zeros((ctx.padded_length + 1, 2 * half), dtype=np.uint8)
    step = exact.chunk_rows(8 * groups)
    for s in range(0, level.packed.shape[1], step):
        chunk = level.packed[:, s:s + step]
        eights = np.zeros((8 * groups, 8 * chunk.shape[1]), dtype=np.uint8)
        eights[:m] = chunk.view(np.uint8)
        block = _transpose_bits(eights.reshape(groups, 8, -1).transpose(0, 2, 1))
        rows = table[64 * s:min(n, 64 * (s + step))]
        rows[:, :groups] = rows[:, half:half + groups] = block.reshape(groups, -1)[:, :len(rows)].T
    runs = alpha - level.supports
    step = 8 * exact.chunk_rows(m)
    for d in range(0, alpha, step):
        longer = np.packbits(runs > np.arange(d, min(alpha, d + step))[:, None], axis=1,
                             bitorder="little")
        table[n + d:n + d + len(longer), :groups] = longer   # P's run, from n
        table[n + alpha + d:n + alpha + d + len(longer), half:half + groups] = longer   # Q's
    return table.view("<u8")


def _first_hits(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(rows, 64 * words) uint8: per row of samples `index`, (block, rows)
    rows of `table` with block a power of two up to 128, and per record bit
    of a table row, the offset of the first sample holding it, or 128 if
    none does.  A bit is kept at its first holder only; plane k < 7 ORs the
    samples whose offset has bit k, plane 7 the bits none holds."""
    block, rows = index.shape
    held = table.take(index, axis=0)   # (block, rows, words)
    seen = np.bitwise_or.accumulate(held, axis=0)
    held[1:] &= ~seen[:-1]
    planes = np.zeros((8, *held.shape[1:]), dtype=np.uint64)
    for k in range(block.bit_length() - 1):
        np.bitwise_or.reduce(held.reshape(block >> k + 1, 2, 1 << k, *held.shape[1:])[:, 1],
                             axis=(0, 1), out=planes[k])
    np.invert(seen[-1], out=planes[7])
    return _transpose_bits(planes.view(np.uint8).transpose(1, 2, 0)).reshape(rows, -1)


def _transpose_bits(eights: np.ndarray) -> np.ndarray:
    """`eights`, (..., 8) uint8, with bit c of byte r moved to bit r of byte
    c: a copy whose every 8 bytes, as a uint64, take the delta swaps of an
    8 x 8 bit transpose (Warren, "Hacker's Delight", section 7-3)."""
    words = np.ascontiguousarray(eights).view("<u8")
    for mask, shift in ((0x00AA00AA00AA00AA, 7), (0x0000CCCC0000CCCC, 14), (0xF0F0F0F0, 28)):
        swap = (words ^ (words >> np.uint64(shift))) & np.uint64(mask)
        words ^= swap ^ (swap << np.uint64(shift))
    return words.view(np.uint8)


def estimate_js(col_a: np.ndarray, col_q: np.ndarray) -> float:
    """Fraction of sketch rows whose minwise values agree."""
    if col_a.shape != col_q.shape:
        raise ValueError("sketch columns must have the same row count")
    return float(np.count_nonzero(col_a == col_q)) / len(col_a)


@dataclass
class MinhashQueryResult:
    """Per ordered pair of the level, the sketch rows on which P(a) and Q(q)
    agree, and the pairs that count approves, ascending (the others on access)."""

    matches: np.ndarray
    need: float            # rows * accept_threshold, less float noise
    approved: np.ndarray   # matches >= need

    rejected = property(lambda self: np.flatnonzero(self.matches < self.need))
    partners = property(lambda self: self.approved)   # FI_q of every query, as pairs


def query(sketch: MinhashSketch, sweep: PairSweep, params: MinhashParams) -> MinhashQueryResult:
    """Sketch-only screening of the join's ordered pairs by join group.  A
    group of BROADCAST_GROUP records or more is counted by `_group_matches`.
    The groups of a smaller size g are stacked as (groups, g, rows) blocks
    and Q(x) compared with P(y) for every x, y of a group, PAIR_CHUNK_WORDS
    words of compares at a time: group pair k, the k-th (x, y) of
    `np.triu_indices(g, 1)`, is pair start + k, and (y, x) its reverse."""
    records, query_records = sketch.records, sketch.query_records   # one row per record
    half = sweep.candidate_pairs
    matches = np.empty(len(sweep), dtype=np.int32)
    owner, _, end = sweep.filings
    head = np.flatnonzero(np.diff(end, prepend=-1))   # each group's first filing
    size = end[head] - head
    broadcast = size >= BROADCAST_GROUP
    for s in head[broadcast].tolist():
        _group_matches(records, query_records, owner[s:end[s]], int(sweep.start[s]), half,
                       matches)
    rows, width = params.rows, np.min_scalar_type(params.rows)
    for g in np.flatnonzero(np.bincount(size[(size > 1) & ~broadcast])).tolist():
        heads = head[size == g]
        x, y = np.triu_indices(g, 1)
        span = exact.chunk_rows(-(-g * g * records.itemsize // 8))   # sketch rows a chunk compares
        for c in range(0, len(heads), max(1, span // rows)):
            first = heads[c:c + max(1, span // rows)]
            members = owner.take(first[:, None] + np.arange(g))
            p, q = records.take(members, axis=0), query_records.take(members, axis=0)
            counts = np.zeros((len(first), g, g), dtype=width)   # Q(x) against P(y)
            for b in range(0, rows, span):
                counts += (q[:, :, None, b:b + span] == p[:, None, :, b:b + span]).sum(
                    axis=-1, dtype=width)
            at = sweep.start.take(first)[:, None] + np.arange(len(x))
            matches[at], matches[at + half] = counts[:, x, y], counts[:, y, x]
    # integer comparison against rows*threshold avoids float-boundary flapping
    need = params.accept_threshold * params.rows - 1e-9
    return MinhashQueryResult(matches, need, np.flatnonzero(matches >= need))


def _group_matches(records, query_records, group, first_pair, half, matches):
    """Write the matches of one join group's pairs: for its records R and
    x < y, ordered pair first_pair + k (the k-th of `np.triu_indices(g, 1)`)
    gets M[x, y] and its reverse, half + first_pair + k, gets M[y, x], where
    M[x, y] counts the sketch rows on which Q(R[x]) and P(R[y]) agree.  A
    block of query records x at a time is compared with the partners y >=
    its first, PAIR_CHUNK_WORDS words of (rows, block, partners) compares."""
    p, q = records[group].T.copy(), query_records[group].T.copy()   # (rows, g)
    rows, g = p.shape
    width = np.min_scalar_type(rows)
    step = exact.chunk_rows(rows * g // 8)
    at = first_pair
    for b in range(0, g - 1, step):
        block = slice(b, b + step)
        later = np.arange(b, g) > np.arange(b, min(g, b + step))[:, None]   # y > x
        count = int(np.count_nonzero(later))
        for out, x, y in ((at, q, p), (half + at, p, q)):
            matches[out:out + count] = (x[:, block, None] == y[:, None, b:]).sum(
                axis=0, dtype=width)[later]
        at += count
