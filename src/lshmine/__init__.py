"""Frequent-itemset mining with LSH-pruned candidate generation.

Exact Apriori plus three randomized variants over an asymmetric padding of
the vertical bitmap database: bit-sampling Hamming LSH, MinHash sketching,
and a covering projection family with no false negatives.  Every run is
instrumented with transaction-read, hash-overhead, and true-negative /
false-positive counters against an exact per-level sweep.
"""

from .dataset import (
    BitVector,
    DatasetError,
    ItemsetRecord,
    TransactionDatabase,
    co_support,
    generate_synthetic,
    load_transactions,
    support_threshold,
    write_transactions,
)
from .engine import (
    ComparisonReport,
    LevelStats,
    MiningConfig,
    MiningReport,
    accounting_check,
    compare_with_oracle,
    lsh_apriori_mine,
)
from .exact import FrequentItemsetSet, Level, apriori_mine, brute_force_mine, join_level
from .transform import (
    DegenerateLevel,
    LevelContext,
    PaddedVector,
    pad_preprocess,
    pad_query,
    padded_hamming,
    padded_jaccard,
)

__all__ = [
    "BitVector",
    "ComparisonReport",
    "DatasetError",
    "DegenerateLevel",
    "FrequentItemsetSet",
    "ItemsetRecord",
    "Level",
    "LevelContext",
    "LevelStats",
    "MiningConfig",
    "MiningReport",
    "PaddedVector",
    "TransactionDatabase",
    "accounting_check",
    "apriori_mine",
    "brute_force_mine",
    "co_support",
    "compare_with_oracle",
    "generate_synthetic",
    "join_level",
    "load_transactions",
    "lsh_apriori_mine",
    "pad_preprocess",
    "pad_query",
    "padded_hamming",
    "padded_jaccard",
    "support_threshold",
    "write_transactions",
]

__version__ = "0.1.0"
