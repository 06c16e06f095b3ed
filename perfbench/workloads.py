"""Seeded workload generators and the FIMI writer used by the benchmark.

The inputs are made here with numpy and written with this module's own
writer, never with ``lshmine.generate_synthetic`` or
``lshmine.write_transactions``, so a change to the program's dataset layer
cannot change what the benchmark feeds it.  Each generator returns the
row matrix the benchmark later recounts supports from.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One generated input: its row matrix (rows = transactions) and threshold."""

    hits: np.ndarray        # bool (n, m); hits[j, i] iff item i occurs in transaction j
    theta: float

    @property
    def n(self) -> int:
        return self.hits.shape[0]

    @property
    def m(self) -> int:
        return self.hits.shape[1]

    @property
    def theta_count(self) -> int:
        return threshold_count(self.theta, self.n)


def threshold_count(theta: float, n: int) -> int:
    """ceil(theta * n), taking a product within float noise of an integer as
    that integer.  Computed here, not by lshmine, so the gate's threshold
    does not come from the program it checks."""
    t = theta * n
    nearest = round(t)
    if abs(t - nearest) < 1e-9 * max(1, n):
        return max(1, nearest)
    return max(1, math.ceil(t))


def negatives(seed: int) -> Instance:
    """Every singleton frequent, no pair frequent: n=2000, m=400, theta=0.3.

    Each item occurs in theta_count+1 .. theta_count+4 distinct random rows.
    Two items then share about theta_count^2/n rows, far below theta_count,
    so the level-2 join makes C(m, 2) = 79,800 candidates and no answers.
    """
    n, m, theta = 2000, 400, 0.3
    rng = np.random.default_rng([seed, 1])
    tc = threshold_count(theta, n)
    hits = np.zeros((n, m), dtype=bool)
    for item in range(m):
        rows = rng.choice(n, size=tc + 1 + int(rng.integers(0, 4)), replace=False)
        hits[rows, item] = True
    return Instance(hits, theta)


def dense_deep(seed: int) -> Instance:
    """Planted patterns, as in the Agrawal-Srikant synthetic generator:
    n=800, m=11, theta=0.075 (theta_count 60).

    Pattern p is the window of 8 consecutive items starting at position p
    of a random item order; each of the 4 patterns fills 85 rows on its own.
    The remaining 460 rows hold each item with probability 0.2 (a row left
    empty gets one random item).  The frequent itemsets are then exactly the
    subsets of the patterns (pattern support 85 against theta_count 60; an
    itemset in no pattern has about 15 noise rows), whatever the seed: 639
    itemsets on 8 levels, joins that are mostly frequent at first and mostly
    infrequent deeper down.  Every level's heaviest itemset clears
    theta_count by at least 25, so covering falls back at every level, and
    the heaviest singleton stays below theta_count + 511, where covering's
    parameter derivation would overflow instead (as it does on `wide`).
    """
    n, m, theta = 800, 11, 0.075
    pattern_size, patterns, pattern_rows, noise_density = 8, 4, 85, 0.2
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(m)
    rows = rng.permutation(n)
    hits = np.zeros((n, m), dtype=bool)
    for p in range(patterns):
        block = rows[p * pattern_rows:(p + 1) * pattern_rows]
        hits[np.ix_(block, order[p:p + pattern_size])] = True
    noise = rows[patterns * pattern_rows:]
    hits[noise] = rng.random((len(noise), m)) < noise_density
    empty = noise[~hits[noise].any(axis=1)]
    hits[empty, rng.integers(0, m, size=len(empty))] = True   # keep n fixed
    return Instance(hits, theta)


def wide(seed: int) -> Instance:
    """Long transaction vectors, few items: n=5000 rows over m=40 items,
    theta=0.12 (theta_count 600).

    Each item occurs in exactly 1500 random rows, so every singleton is
    frequent, the heaviest one (which sets the LSH parameters) is the same
    for every seed, and two items share about 450 rows (at most about 510),
    so no pair is frequent.
    """
    n, m, support = 5000, 40, 1500
    rng = np.random.default_rng([seed, 3])
    hits = np.zeros((n, m), dtype=bool)
    for item in range(m):
        hits[rng.choice(n, size=support, replace=False), item] = True
    return Instance(hits, 0.12)


GENERATORS = {"negatives": negatives, "dense-deep": dense_deep, "wide": wide}


def generate(name: str, seed: int) -> Instance:
    """The named workload for `seed`, with rows that hold no item removed
    (the FIMI loader skips empty lines, so they would not count toward n)."""
    inst = GENERATORS[name](seed)
    keep = inst.hits.any(axis=1)
    if not keep.all():
        inst = Instance(inst.hits[keep], inst.theta)
    return inst


def write_fimi(inst: Instance, path: Path) -> str:
    """Write one line per transaction (ascending item ids); return the file's sha256."""
    lines = [" ".join(map(str, np.flatnonzero(row).tolist())) for row in inst.hits]
    data = ("\n".join(lines) + "\n").encode("ascii")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def recount(inst: Instance, items) -> int:
    """Support of `items` counted directly from the row matrix."""
    return int(np.count_nonzero(inst.hits[:, list(items)].all(axis=1)))
