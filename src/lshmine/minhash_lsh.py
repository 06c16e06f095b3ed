"""Asymmetric MinHash over padded vectors.

A sketch of `rows` minwise values per itemset estimates the padded Jaccard
similarity.  One query screens the whole level: for every compatible
ordered pair (q, a) of the join it counts the sketch rows on which P(a) and
Q(q) agree, and approves the pair iff that count reaches rows *
accept_threshold.  It counts a join group at a time: a large group
compares its records' rows by broadcast, and the small groups' pairs
(`PairSweep.group_pairs`) gather their two rows each.  The database is
never read at query time; the engine verifies the approved pairs' unions.

Each sketch row gives every padded position an independent uniform 32-bit
hash value, and a vector's minwise value on it is the least over its one
positions.  Min-wise hashing needs only that each row's argmin be uniform
(Broder, Charikar, Frieze & Mitzenmacher, JCSS 2000), which independent
values give up to ties: two positions tie with probability 2^-32, far
inside eps_mh even at n = 100k.  The values are the level generator's raw
64-bit words, each split into its low then its high 32 bits: numpy fixes
bit generators' raw streams, not its `Generator` methods' output.

The sketch is built a chunk of rows at a time (`_hash_rows`): a build holds
the sketch, what depends on the level alone and the chunk it reads (with
the next while it is drawn), never the rows x (n + 2 alpha) matrix.  P(v)
and Q(v) share v's own positions, and their padding is a run of alpha-|v|
ones from n and n+alpha (`transform.padding_runs`).  So on each row h

    base(v) = min of h over v's own positions
    P(v)    = min(base(v), min(h[n : n+alpha-|v|]))
    Q(v)    = min(base(v), min(h[n+alpha : n+2*alpha-|v|]))

with both padding minima dropped when |v| == alpha.  base(v) is found among
each row's candidates, the own positions below the level's cut tau =
CUT_FACTOR * 2^32 / s_min (s_min the lightest weight): a record of weight s
has none on a row with probability about e^(-CUT_FACTOR * s / s_min), the
threshold view of bottom-k sketches (Cohen & Kaplan, PODC 2007).  Cells
with none gather the record's own positions; at cut 0, where probing
would cost more (`candidate_cut`), every cell does.  A cut-0 level first
groups its transactions into classes, the positions whose columns of the
level's bit matrix are equal (`transaction_classes`), as Apriori
implementations merge identical transactions (Borgelt, FIMI 2003): a
record's minimum is then the least of its classes' minima
(`class_minima`).  Each role's run minima are the minima of its run's
segments between the level's distinct run lengths, then their running
minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import exact
from .exact import Level, PairSweep
from .transform import LevelContext, _ceil, check_index_bytes, check_tolerances, padding_runs

TOP = np.iinfo(np.uint32).max
# The level's cut is CUT_FACTOR * 2^32 / s_min: a row's CUT_FACTOR * n / s_min
# candidates on average, and a cell of the lightest record misses them with
# probability (1 - CUT_FACTOR / s_min)^s_min < e^-CUT_FACTOR (3.4e-4 at 8).
# Measured on the `negatives` and `wide` level-1 levels (seed 1), in
# process on a 2-vCPU host, min of 7: of 2, 4, 6, 8, 12 and 16, 8 is the
# fastest (1.5 and 1.3 ms, against 17.6 and 15.1 ms gathering every cell);
# at 6 the misses' gather makes the step 1.9-2.0x slower, at 12 the probes
# 1.1-1.2x.
CUT_FACTOR = 8
# How many gathered own positions one probe of a candidate costs
# (`candidate_cut`).  Measured on ten synthetic levels (n 800 to 20,000,
# 11 to 400 records of one weight from 50 to 2,000, 57 to 1,117 rows), both
# ways in process, 2-vCPU host, min of 7: a probe costs 1.8-9.7 ns (the
# most where few records share the compare over the rows), a gathered
# position 0.5-2.5 ns, and at 4 the cut picks the faster way on all ten
# (the closest at 1.01x).
PROBE_COST = 4
# The least join group size, in records, whose pairs `query` counts by
# broadcast (`_group_matches`) rather than by gathering each pair's rows.
# Measured on one group of random sketches per size (24 to 400 records, 57
# to 1,117 rows), both ways in process, 2-vCPU host, min of 15: the
# broadcast overtakes the gather at about 36, 52, 60 and 96 records for 57,
# 281, 875 and 1,117 rows, and costs 0.65-1.0 ns a sketch value against the
# gather's 1.1-2.3 ns at 400 records.  At 64 the rule picks the faster way
# or one within 10% of it (1,117 rows: 6.5 against 6.0 ms).  On the bench
# workloads (seed 1) it broadcasts `negatives`' one group of 400 (57 rows:
# 17.7 -> 4.8 ms, median of 15) and gathers `wide`'s 40 and `dense-deep`'s
# at most 11, as before.
BROADCAST_GROUP = 64
# The hash values a chunk of sketch rows holds (4 MiB; `_hash_rows`), the build's
# largest block: malloc trims its heap past twice the largest block freed.  In
# processes of 30 MinHash mines per bench workload (seed 1, 2-vCPU host), 2^18
# and 2^19 cost `dense-deep` 2,000-2,200 page faults a mine; 2^20 costs none, and
# its mines are within 3% of the whole matrix's (medians of 16 alternating).
SKETCH_CHUNK_VALUES = 1 << 20
# The odd factor of the column digests that sort a cut-0 level's
# transactions into classes (`transaction_classes`): 2^64 / the golden ratio
DIGEST_FACTOR = np.uint64(0x9E3779B97F4A7C15)
# The delta swaps that transpose the 8 x 8 bit block a uint64 holds, bit
# 8r + c to bit 8c + r (Warren, "Hacker's Delight", section 7-3)
TRANSPOSE_8X8 = tuple((np.uint64(mask), np.uint64(shift)) for mask, shift in
                      ((0x00AA00AA00AA00AA, 7), (0x0000CCCC0000CCCC, 14), (0x00000000F0F0F0F0, 28)))


@dataclass(frozen=True)
class MinhashParams:
    omega: float              # Jaccard value of a pair exactly at (1-eps)*theta co-support
    eps_mh: float             # estimation tolerance fed to the sketch-size bound
    rows: int                 # sketch rows (the lambda of the size bound)
    accept_threshold: float   # estimated-JS cutoff for adding a partner


def derive_params(ctx: LevelContext, epsilon: float, delta: float) -> MinhashParams:
    """omega = (1-e)t/(2a-(1-e)t), eps_mh = a*e/(a+(a-t)(1-e)),
    rows = ceil(2/(omega*eps_mh^2) * ln(1/delta)), accept = (1-eps_mh)t/(2a-t).

    alpha == theta degenerates gracefully (eps_mh == epsilon).  Raises FamilyTooLarge
    when the 2 x m_l x rows 32-bit minima exceed `transform.MAX_INDEX_BYTES`.
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
    records: np.ndarray        # (m_l, rows) minwise values of the P-padded records
    query_records: np.ndarray  # (m_l, rows) minwise values of the Q-padded records
    seed: object               # the level's seed and padded length, which `perms` redraws from
    padded_length: int

    columns = property(lambda self: self.records.T)               # (rows, m_l)
    query_columns = property(lambda self: self.query_records.T)   # (rows, m_l)
    # (rows, padded_length) uint32 hash values, redrawn on access for inspection only
    perms = property(lambda self: np.concatenate(
        [h for _, h in _hash_rows(self.seed, self.records.shape[1], self.padded_length)]))


def build_sketch(level: Level, params: MinhashParams, ctx: LevelContext, seed) -> MinhashSketch:
    """The minwise value of every P-padded and Q-padded record on `rows`
    rows of seeded hash values, drawn a chunk of rows at a time."""
    n, length = ctx.n, ctx.padded_length
    if length > np.iinfo(np.int32).max:
        raise ValueError(f"padded length {length} does not fit int32")
    if len(level) and level.n != n:
        raise ValueError(f"vector length {level.n} != level n {n}")
    lengths, run, starts = padding_runs(level.supports, ctx)
    least_own = own_minima(level.packed, n, candidate_cut(level.supports, n))
    padded = lengths > 0
    ends = lengths[padded]
    heads = np.r_[0, ends[:-1]]   # each segment's first run position
    sketch = np.empty((2, len(run), params.rows), dtype=np.uint32)
    for s, hashes in _hash_rows(seed, params.rows, length):
        base = least_own(hashes[:, :n])
        for out, start in zip(sketch, starts):   # a run's minimum: its segments' running minimum
            run_min = np.full((len(lengths), len(hashes)), TOP, dtype=np.uint32)
            if len(ends):
                segments = np.minimum.reduceat(hashes[:, start:start + ends[-1]], heads, axis=1)
                run_min[padded] = np.minimum.accumulate(segments, axis=1).T
            np.minimum(base, run_min[run], out=out[:, s:s + len(hashes)])
        del hashes   # one chunk at a time (`_hash_rows`)
    return MinhashSketch(sketch[0], sketch[1], seed, length)


def _hash_rows(seed, rows: int, length: int):
    """(first row, (chunk rows, length) uint32) per SKETCH_CHUNK_VALUES values'
    worth of rows: the seed's raw words split into their low then high 32
    bits, row by row, a word cut by a chunk boundary carried over."""
    bits = np.random.default_rng(seed).bit_generator
    step = max(1, SKETCH_CHUNK_VALUES // length)
    carry = np.empty(0, dtype=np.uint32)
    for s in range(0, rows, step):
        count = min(step, rows - s) * length
        drawn = bits.random_raw((count - len(carry) + 1) // 2).astype("<u8", copy=False).view("<u4")
        values = np.concatenate((carry, drawn)) if len(carry) else drawn
        carry = values[count:].copy()
        yield s, values[:count].reshape(-1, length)
        del values, drawn   # before the next draw, as the caller drops its view


def candidate_cut(supports: np.ndarray, n: int) -> int:
    """The level's cut: CUT_FACTOR * 2^32 / s_min, or 0 (every cell
    gathered) where probing each row's CUT_FACTOR * n / s_min candidates,
    PROBE_COST each, would cost at least gathering the mean record's own
    positions.  A nonzero cut is below 2^32, as its s_min exceeds
    PROBE_COST * CUT_FACTOR."""
    if not len(supports):
        return 0
    lightest = int(supports.min())
    if PROBE_COST * CUT_FACTOR * n >= lightest * supports.mean():
        return 0
    return CUT_FACTOR * 2**32 // lightest


def own_minima(packed: np.ndarray, n: int, cut: int):
    """The map from a (rows, n) block `own` of hash values to the (m_l, rows)
    uint32 least value of each row over each record's own positions (2^32-1
    if empty), what depends on the level alone found once.  A cell takes its
    record's least candidate (below `cut`), else the least of its gathered
    own positions, or at cut 0 of its classes' minima where they list fewer."""
    if not cut:
        weight = int(np.bitwise_count(packed).sum())   # sum of |v|
        classes = transaction_classes(packed, n) if weight > n else None
        # The gather reads sum |v| own positions a row, the classes n (the
        # class minima's pass over the own block) plus sum |classes(v)|.
        # Measured on 109 synthetic cut-0 levels (n 500 to 6,000, 4 to 400
        # records, 60 to 1,100 rows), both ways in process, 2-vCPU host, min
        # of 5: the rule picks the faster way on 93, where the classes run
        # up to 49x faster; the other 16 lose at most 1.9x (2.7 ms), 10 of
        # them on levels of 4 or 10 records.  On `dense-deep` (seed 1) it
        # sends levels 2-7 to the classes, 11-85x fewer rows, and keeps
        # level 8's 4 records of 85 transactions on the gather.
        if classes is not None and n + len(classes.members) < weight:
            return lambda own: class_minima(own, classes, len(packed))
    ones = cache(lambda i: np.flatnonzero(np.unpackbits(packed[i].view(np.uint8),
                                                        bitorder="little")))
    def minima(own):
        rows = len(own)
        base = np.full((len(packed), rows), TOP, dtype=np.uint32)
        row, pos = np.divmod(np.flatnonzero(own < cut), n) if cut else ((), ())
        if len(pos):
            inverse = ~own[row, pos]   # the least candidate in a record is its most inverse
            counts = np.bincount(row, minlength=rows)
            probed = np.flatnonzero(counts)
            at = (np.cumsum(counts) - counts)[probed]
            step = exact.chunk_rows(max(8 * packed.shape[1], len(pos) // 2))   # unpacked, or probes
            for s in range(0, len(packed), step):
                bits = np.unpackbits(packed[s:s + step].view(np.uint8), axis=1, bitorder="little")
                found = np.multiply(bits.take(pos, axis=1), inverse, dtype=np.uint32)   # 0: absent
                base[s:s + step, probed] = ~np.maximum.reduceat(found, at, axis=1)
        missed = base == TOP
        lost = np.flatnonzero(missed.any(axis=0))
        if len(lost):
            block = np.ascontiguousarray((own if len(lost) == rows else own[lost]).T)
            for i in np.flatnonzero(missed.any(axis=1)).tolist():
                base[i, lost] = block[ones(i)].min(axis=0, initial=TOP)   # empty v: padding decides
        return base
    return minima


@dataclass(frozen=True)
class TransactionClasses:
    """A level's transactions grouped by the records that hold them: the
    positions whose columns of the level's (m_l, n) bit matrix are equal
    form a class.  The positions no record holds are left out; the other
    classes come largest first."""

    positions: np.ndarray   # the held positions, class by class
    sizes: np.ndarray       # each class's position count, descending
    records: np.ndarray     # the nonempty records, most classes first
    counts: np.ndarray      # each of those records' class count |classes(v)|
    members: np.ndarray     # their classes, record by record, ascending

    @cached_property
    def folds(self):   # `_least_rows`' folds of the classes' positions, then the records' classes
        return _folds(self.positions, self.sizes), _folds(self.members, self.counts)


def transaction_classes(packed: np.ndarray, n: int) -> TransactionClasses | None:
    """Group the level's n transactions into classes, or None where every
    held class is one position (the classes would list every record's own
    positions).  The held positions are sorted by a 64-bit digest of their column
    keys (`_column_keys`), the key itself where m_l <= 64, so that equal
    columns lie next to each other; neighbours share a class only if their
    whole keys are equal."""
    m = len(packed)
    keys = _column_keys(packed, n)
    held = np.flatnonzero(keys.any(axis=1))
    keys = keys[held]
    digest = keys[:, 0].copy()
    for word in keys[:, 1:].T:
        digest *= DIGEST_FACTOR
        digest ^= word
    by_digest = np.argsort(digest)
    order, keys = held[by_digest], keys[by_digest]
    same = (keys[1:] == keys[:-1]).all(axis=1)
    if not same.any():
        return None
    first = np.flatnonzero(np.append(True, ~same))
    sizes = np.diff(first, append=len(order))
    rank = np.argsort(-sizes, kind="stable")   # largest class first
    # (m_l, classes): a record holds all of a class or none of it
    holds = np.unpackbits(keys[first[rank]].view(np.uint8), axis=1, count=m, bitorder="little").T
    counts = np.count_nonzero(holds, axis=1)
    records = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
    return TransactionClasses(order[np.argsort(np.repeat(-sizes, sizes), kind="stable")],
                              sizes[rank], records, counts[records], np.nonzero(holds[records])[1])


def _column_keys(packed: np.ndarray, n: int) -> np.ndarray:
    """(n, ceil(m_l / 64)) uint64: row j is column j of the level's packed
    bit matrix, record i at bit i % 64 of word i // 64.  The records' bytes
    are regrouped so that a uint64 holds 8 records' bits at 8 positions,
    and each such block is transposed in place."""
    m, words = packed.shape
    groups = -(-m // 8)
    eights = np.zeros((8 * groups, 8 * words), dtype=np.uint8)
    eights[:m] = packed.view(np.uint8)
    block = np.ascontiguousarray(eights.reshape(groups, 8, -1).transpose(0, 2, 1)).view("<u8")[..., 0]
    for mask, shift in TRANSPOSE_8X8:
        swap = (block ^ (block >> shift)) & mask
        block ^= swap ^ (swap << shift)
    keys = np.zeros((n, -(-groups // 8) * 8), dtype=np.uint8)
    keys[:, :groups] = block.view(np.uint8).reshape(groups, -1)[:, :n].T
    return keys.view("<u8")


def class_minima(own: np.ndarray, classes: TransactionClasses, m: int) -> np.ndarray:
    """(m, rows) uint32, as `own_minima`: each class's minimum on every row,
    from a transposed chunk of the own block's rows at a time, then each
    record's least over its classes' minima."""
    rows, n = own.shape
    minima = np.empty((len(classes.sizes), rows), dtype=np.uint32)
    folds, record_folds = classes.folds
    step = exact.chunk_rows(n // 2)
    for s in range(0, rows, step):
        minima[:, s:s + step] = _least_rows(np.ascontiguousarray(own[s:s + step].T), folds)
    base = np.full((m, rows), TOP, dtype=np.uint32)
    base[classes.records] = _least_rows(minima, record_folds)
    return base


def _folds(index: np.ndarray, sizes: np.ndarray):
    """How `_least_rows` takes groups of `index` that lie one after another
    with the given sizes, descending, each at least 1: the first groups'
    indices and where each starts, each group reduced whole, then the heads
    of the rest, and each fold pass's indices, pass t the t-th of every
    group still that long.  The split minimises the first groups plus the
    passes."""
    heads = np.cumsum(sizes) - sizes
    split = int(np.argmin(np.arange(len(sizes) + 1) + np.append(sizes, 0)))
    rest, rest_heads = sizes[split:], heads[split:]
    passes = [index[rest_heads[:np.count_nonzero(rest > t)] + t]
              for t in range(1, int(rest[0]) if len(rest) else 0)]
    whole = index[:heads[split]] if len(rest) else index
    return whole, heads[:split], index[rest_heads], passes


def _least_rows(source: np.ndarray, folds) -> np.ndarray:
    """(groups, source.shape[1]) uint32: row g is the least of the rows of
    `source` that group g names, in the order `_folds` gives.  The groups
    reduced whole take one reduction where their rows fit a chunk, one
    each otherwise."""
    whole, heads, rest_heads, passes = folds
    out = np.empty((len(heads) + len(rest_heads), source.shape[1]), dtype=np.uint32)
    if len(whole) * source.shape[1] <= 2 * exact.PAIR_CHUNK_WORDS:
        if len(heads):
            np.minimum.reduceat(source.take(whole, axis=0), heads, axis=0, out=out[:len(heads)])
    else:
        for g, rows in enumerate(np.split(whole, heads[1:])):
            source.take(rows, axis=0).min(axis=0, out=out[g])
    rest = out[len(heads):]
    source.take(rest_heads, axis=0, out=rest)
    for index in passes:
        np.minimum(rest[:len(index)], source.take(index, axis=0), out=rest[:len(index)])
    return out


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
    """Sketch-only screening of the join's ordered pairs by join group: no
    database reads happen here.  A group of BROADCAST_GROUP records or more
    counts its pairs' matches by broadcast (`_group_matches`); the smaller
    groups' pairs (`sweep.group_pairs`, read by `sweep.members`) are gathered
    PAIR_CHUNK_WORDS sketch values of each operand at a time."""
    records, query_records = sketch.records, sketch.query_records   # one row per record
    rows, half = params.rows, sweep.candidate_pairs
    matches = np.empty(len(sweep), dtype=np.int32)
    owner, _, end = sweep.filings
    head = np.flatnonzero(np.diff(end, prepend=-1))   # each group's first filing
    broadcast = end[head] - head >= BROADCAST_GROUP
    for s in head[broadcast].tolist():
        _group_matches(records, query_records, owner[s:end[s]], int(sweep.start[s]), half,
                       matches)
    small = sweep.group_pairs(head[~broadcast])
    step = exact.chunk_rows(rows)
    for s in range(0, len(small), step):
        at = small[s:s + step]
        q, a, _ = sweep.members(at)
        matches[at] = np.count_nonzero(records[a] == query_records[q], axis=1)
        matches[at + half] = np.count_nonzero(records[q] == query_records[a], axis=1)
    # integer comparison against rows*threshold avoids float-boundary flapping
    need = params.accept_threshold * params.rows - 1e-9
    return MinhashQueryResult(matches, need, np.flatnonzero(matches >= need))


def _group_matches(records, query_records, group, first_pair, half, matches):
    """Write the matches of one join group's pairs: for its records R and
    x < y, ordered pair first_pair + k (the k-th of `np.triu_indices(g, 1)`)
    gets M[x, y] and its reverse, half + first_pair + k, gets M[y, x], where
    M[x, y] counts the sketch rows on which Q(R[x]) and P(R[y]) agree.  A
    block of query records x at a time compares its rows against the
    partners y >= the block's first, so the (rows, block, partners) compare
    stays within PAIR_CHUNK_WORDS words; M sums it in the least unsigned
    type that holds `rows`."""
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
