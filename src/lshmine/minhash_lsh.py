"""Asymmetric MinHash over padded vectors.

A sketch of `rows` minwise values per itemset estimates the padded Jaccard
similarity; partners whose estimate clears the accept threshold go into
FI_q.  One query screens the whole level: for every compatible ordered
pair (q, a) of the join, it counts the sketch rows on which P(a) and Q(q)
agree, a chunk of pairs at a time, and approves the pair iff that count
reaches rows * accept_threshold.  The database itself is never read at
query time; the mining engine verifies each distinct union of the
approved pairs exactly.

Each sketch row gives every padded position an independent uniform 32-bit
hash value; a vector's minwise value on that row is the least value over
its one positions.  Min-wise hashing needs only that each row's argmin be
uniform over the set (Broder, Charikar, Frieze & Mitzenmacher, JCSS 2000),
which independent values give up to ties.  Two positions tie with
probability 2^-32, so a row's minima of P(a) and Q(q) agree at different
positions with probability at most about |P(a) u Q(q)| / 2^32 (under
5e-5 even at n = 100k), far inside eps_mh.  The values are the level
generator's raw 64-bit words, each split into its low then its high 32
bits: numpy fixes bit generators' raw streams, not the output of its
`Generator` methods.

The sketch is built in one pass.  P(v) and Q(v) share v's own |v|
positions, and their padding is a run of alpha-|v| ones from n and
n+alpha (`transform.padding_runs`).  So on each row h

    base(v) = min of h over v's own positions
    P(v)    = min(base(v), cummin(h[n : n+alpha])[alpha-|v|-1])
    Q(v)    = min(base(v), cummin(h[n+alpha : n+2*alpha])[alpha-|v|-1])

with both padding minima dropped when |v| == alpha.  base(v) is one gather
of |v| rows from the transposed own-position block, shared by both roles;
the two running minima are taken once per level.  Every record's P and Q
column is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .exact import Level, PairSweep
from .transform import LevelContext, _ceil, check_tolerances, padding_runs

DEFAULT_ROW_CAP = 2_000_000


@dataclass(frozen=True)
class MinhashParams:
    omega: float              # Jaccard value of a pair exactly at (1-eps)*theta co-support
    eps_mh: float             # estimation tolerance fed to the sketch-size bound
    rows: int                 # sketch rows (the lambda of the size bound)
    accept_threshold: float   # estimated-JS cutoff for adding a partner


def derive_params(ctx: LevelContext, epsilon: float, delta: float) -> MinhashParams:
    """omega = (1-e)t/(2a-(1-e)t), eps_mh = a*e/(a+(a-t)(1-e)),
    rows = ceil(2/(omega*eps_mh^2) * ln(1/delta)), accept = (1-eps_mh)t/(2a-t).

    alpha == theta degenerates gracefully (eps_mh == epsilon).  Raises when
    the row count would exceed DEFAULT_ROW_CAP, which happens as epsilon -> 0.
    """
    check_tolerances(epsilon, delta)
    alpha, theta = ctx.alpha, ctx.theta
    low = (1.0 - epsilon) * theta
    omega = low / (2.0 * alpha - low)
    eps_mh = alpha * epsilon / (alpha + (alpha - theta) * (1.0 - epsilon))
    scale = omega * eps_mh * eps_mh
    if scale <= 0.0:
        raise ValueError("tolerance too small: omega*eps_mh^2 underflowed")
    rows_raw = (2.0 / scale) * math.log(1.0 / delta)
    if not rows_raw <= DEFAULT_ROW_CAP:
        raise ValueError(f"tolerance too small: sketch would need {rows_raw:.3g} rows "
                         f"(cap {DEFAULT_ROW_CAP})")
    rows = max(1, _ceil(rows_raw))
    accept = (1.0 - eps_mh) * theta / (2.0 * alpha - theta)
    return MinhashParams(omega=omega, eps_mh=eps_mh, rows=rows, accept_threshold=accept)


@dataclass
class MinhashSketch:
    # (rows, padded_length) uint32: the per-row hash values of the padded
    # positions.  It keeps the name it had when it held permutations, since
    # the benchmark's probe reads `perms.nbytes`.
    perms: np.ndarray
    columns: np.ndarray        # (rows, m_l) minwise values of the P-padded records
    query_columns: np.ndarray  # (rows, m_l) minwise values of the Q-padded records


def build_sketch(level: Level, params: MinhashParams, ctx: LevelContext, seed) -> MinhashSketch:
    """Draw `rows` rows of seeded 32-bit hash values of the padded universe
    and record the minwise value of every P-padded and Q-padded record on
    each: the generator's first ceil(rows * padded_length / 2) raw words,
    split into 32-bit values as the module docstring says, row by row."""
    n, alpha, length = ctx.n, ctx.alpha_count, ctx.padded_length
    if length > np.iinfo(np.int32).max:
        raise ValueError(f"padded length {length} does not fit int32")
    if len(level) and level.n != n:
        raise ValueError(f"vector length {level.n} != level n {n}")
    lengths, run, starts = padding_runs(level.supports, ctx)
    rows = params.rows
    words = np.random.default_rng(seed).bit_generator.random_raw((rows * length + 1) // 2)
    hashes = words.astype("<u8", copy=False).view("<u4")[:rows * length].reshape(rows, length)
    top = np.iinfo(np.uint32).max
    own = np.ascontiguousarray(hashes[:, :n].T)   # one row per transaction
    base = np.empty((len(level), rows), dtype=np.uint32)   # one row per record
    for i, row in enumerate(level.packed):
        ones = np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))
        base[i] = own[ones].min(axis=0, initial=top)   # empty v: padding decides
    length = lengths[run]
    columns = []
    for start in starts:
        run_min = np.minimum.accumulate(hashes[:, start:start + alpha].T, axis=0)
        columns.append(np.minimum(base, run_min[length - 1], out=base.copy(),
                                  where=(length > 0)[:, None]).T)
    return MinhashSketch(perms=hashes, columns=columns[0], query_columns=columns[1])


def estimate_js(col_a: np.ndarray, col_q: np.ndarray) -> float:
    """Fraction of sketch rows whose minwise values agree."""
    if col_a.shape != col_q.shape:
        raise ValueError("sketch columns must have the same row count")
    return float(np.count_nonzero(col_a == col_q)) / len(col_a)


@dataclass
class MinhashQueryResult:
    """Per ordered pair of the level, the sketch rows on which P(a) and Q(q)
    agree, and the pairs (indices into the level's ordered pairs) approved
    by that count, ascending; `rejected`, the others, is listed on access."""

    matches: np.ndarray
    need: float            # rows * accept_threshold, less float noise
    approved: np.ndarray   # matches >= need

    @property
    def rejected(self) -> np.ndarray:
        return np.flatnonzero(self.matches < self.need)

    @property
    def partners(self) -> np.ndarray:   # FI_q of every query, as pairs
        return self.approved


def query(sketch: MinhashSketch, sweep: PairSweep, params: MinhashParams) -> MinhashQueryResult:
    """Sketch-only screening of the join's ordered pairs, PAIR_CHUNK_WORDS
    sketch values of each operand at a time: no database reads happen here."""
    columns, query_columns = (np.ascontiguousarray(c.T) for c in
                              (sketch.columns, sketch.query_columns))   # one row per record
    matches = np.empty(len(sweep), dtype=np.int32)
    step = exact.chunk_rows(params.rows)
    for s in range(0, len(matches), step):
        same = columns[sweep.a[s:s + step]] == query_columns[sweep.q[s:s + step]]
        matches[s:s + step] = np.count_nonzero(same, axis=1)
    # integer comparison against rows*threshold avoids float-boundary flapping
    need = params.accept_threshold * params.rows - 1e-9
    return MinhashQueryResult(matches, need, np.flatnonzero(matches >= need))
