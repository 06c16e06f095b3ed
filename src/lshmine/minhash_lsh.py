"""Asymmetric MinHash over padded vectors.

A sketch of `rows` minwise values per itemset estimates the padded Jaccard
similarity; partners whose estimate clears the accept threshold go into
FI_q.  The database itself is never read at query time; the level-wise
driver re-verifies the surviving candidates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ItemsetRecord
from .transform import PREPROCESS, QUERY, LevelContext, _ceil, check_tolerances, padded_one_positions

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
    ctx: LevelContext
    perms: np.ndarray      # (rows, padded_length) independent permutations
    columns: np.ndarray    # (rows, m_l) minwise values of the P-padded records


def build_sketch(level: list[ItemsetRecord], params: MinhashParams, ctx: LevelContext,
                 seed) -> MinhashSketch:
    """Draw `rows` seeded permutations of the padded universe and record the
    minwise value of every P-padded vector under each."""
    rng = np.random.default_rng(seed)
    perms = np.tile(np.arange(ctx.padded_length, dtype=np.int64), (params.rows, 1))
    rng.permuted(perms, axis=1, out=perms)
    if level:
        columns = np.stack(
            [perms[:, padded_one_positions(r.vector, ctx, PREPROCESS)].min(axis=1) for r in level],
            axis=1,
        )
    else:
        columns = np.empty((params.rows, 0), dtype=np.int64)
    return MinhashSketch(ctx=ctx, perms=perms, columns=columns)


def sketch_query_column(sketch: MinhashSketch, q: ItemsetRecord) -> np.ndarray:
    """Minwise values of Q(q) under the sketch's permutations."""
    ones = padded_one_positions(q.vector, sketch.ctx, QUERY)
    return sketch.perms[:, ones].min(axis=1)


def estimate_js(col_a: np.ndarray, col_q: np.ndarray) -> float:
    """Fraction of sketch rows whose minwise values agree."""
    if col_a.shape != col_q.shape:
        raise ValueError("sketch columns must have the same row count")
    return float(np.count_nonzero(col_a == col_q)) / len(col_a)


@dataclass
class MinhashQueryResult:
    approved: dict[int, float]           # idx -> estimated JS (compatible, estimate >= accept)
    rejected: dict[int, float]           # idx -> estimated JS (compatible, estimate < accept)

    @property
    def partners(self) -> list[int]:   # FI_q as record indices, ascending
        return list(self.approved)


def query(sketch: MinhashSketch, q: ItemsetRecord, params: MinhashParams,
          ctx: LevelContext, compatible) -> MinhashQueryResult:
    """Sketch-only screening of the `compatible` indices (q's join
    partners): no database reads happen here."""
    qcol = sketch_query_column(sketch, q)
    idx = sorted(compatible)
    matches = np.count_nonzero(sketch.columns[:, idx] == qcol[:, None], axis=0)
    # integer comparison against rows*threshold avoids float-boundary flapping
    need = params.accept_threshold * params.rows - 1e-9
    result = MinhashQueryResult(approved={}, rejected={})
    for i, hits in zip(idx, matches.tolist()):
        est = hits / params.rows
        if hits >= need:
            result.approved[i] = est
        else:
            result.rejected[i] = est
    return result
