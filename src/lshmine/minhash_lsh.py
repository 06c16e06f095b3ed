"""Asymmetric MinHash over padded vectors.

A sketch of `rows` minwise values per itemset estimates the padded Jaccard
similarity; partners whose estimate clears the accept threshold go into
FI_q.  One query screens the whole level: for every compatible ordered
pair (q, a) of the join, it counts the sketch rows on which P(a) and Q(q)
agree, a chunk of pairs at a time, and approves the pair iff that count
reaches rows * accept_threshold.  The database itself is never read at
query time; the mining engine verifies each distinct union of the
approved pairs exactly.

The sketch is built in one pass.  P(v) and Q(v) share v's own |v|
positions, and their padding is a run of alpha-|v| ones from the fixed
offsets n and n+alpha.  So under each permutation

    base(v) = min of the permutation over v's own positions
    P(v)    = min(base(v), cummin(perm[n : n+alpha])[alpha-|v|-1])
    Q(v)    = min(base(v), cummin(perm[n+alpha : n+2*alpha])[alpha-|v|-1])

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
from .exact import Level, OrderedPairs
from .transform import LevelContext, _ceil, check_tolerances

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
    perms: np.ndarray          # (rows, padded_length) independent permutations
    columns: np.ndarray        # (rows, m_l) minwise values of the P-padded records
    query_columns: np.ndarray  # (rows, m_l) minwise values of the Q-padded records


def build_sketch(level: Level, params: MinhashParams, ctx: LevelContext, seed) -> MinhashSketch:
    """Draw `rows` seeded permutations of the padded universe and record the
    minwise value of every P-padded and Q-padded record under each."""
    n, alpha, length = ctx.n, ctx.alpha_count, ctx.padded_length
    if length > np.iinfo(np.int32).max:
        raise ValueError(f"padded length {length} does not fit int32")
    if len(level) and level.n != n:
        raise ValueError(f"vector length {level.n} != level n {n}")
    if (level.supports > alpha).any():
        raise ValueError(f"popcount {level.supports.max()} exceeds alpha_count {alpha}")
    rng = np.random.default_rng(seed)
    perms = np.tile(np.arange(length, dtype=np.int32), (params.rows, 1))
    rng.permuted(perms, axis=1, out=perms)
    own = np.ascontiguousarray(perms[:, :n].T)   # one row per transaction
    base = np.empty((params.rows, len(level)), dtype=np.int32)
    for i, row in enumerate(level.packed):
        ones = np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))
        base[:, i] = own[ones].min(axis=0, initial=length)   # empty v: padding decides
    gap = alpha - level.supports   # padding ones per record
    padded = gap > 0
    columns = []
    for offset in (n, n + alpha):
        run_min = np.minimum.accumulate(perms[:, offset:offset + alpha], axis=1)
        col = base.copy()
        col[:, padded] = np.minimum(base[:, padded], run_min[:, gap[padded] - 1])
        columns.append(col)
    return MinhashSketch(perms=perms, columns=columns[0], query_columns=columns[1])


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


def query(sketch: MinhashSketch, pairs: OrderedPairs, params: MinhashParams) -> MinhashQueryResult:
    """Sketch-only screening of the level's ordered pairs, PAIR_CHUNK_WORDS
    sketch values of each operand at a time: no database reads happen here."""
    columns, query_columns = (np.ascontiguousarray(c.T) for c in
                              (sketch.columns, sketch.query_columns))   # one row per record
    matches = np.empty(len(pairs.q), dtype=np.int32)
    step = exact.chunk_rows(params.rows)
    for s in range(0, len(matches), step):
        same = columns[pairs.a[s:s + step]] == query_columns[pairs.q[s:s + step]]
        matches[s:s + step] = np.count_nonzero(same, axis=1)
    # integer comparison against rows*threshold avoids float-boundary flapping
    need = params.accept_threshold * params.rows - 1e-9
    return MinhashQueryResult(matches, need, np.flatnonzero(matches >= need))
