"""Command-line surface: mine, compare against the brute-force oracle,
benchmark variants side by side, and generate synthetic data.

Reports go to stdout (or --output) as JSON documents with schema_version
"lshmine-report/3", or as fixed-column CSV; everything else goes to
stderr.  Seeds default to a fixed constant so published runs reproduce.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .dataset import DatasetError, generate_synthetic, load_transactions, write_transactions
from .engine import (
    VARIANTS,
    ComparisonReport,
    LevelStats,
    MiningConfig,
    MiningReport,
    diff_against_oracle,
    lsh_apriori_mine,
)
from .exact import brute_force_mine

SCHEMA_VERSION = "lshmine-report/3"
CSV_COLUMNS = ["variant", "level", "candidates", "transactions_read", "hash_overhead",
               "true_negatives", "false_positives", "wall_clock_ms"]
EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_DIFF = 3
EXIT_INTERNAL = 4


def config_document(config: MiningConfig) -> dict:
    return dataclasses.asdict(config)


def level_document(row: LevelStats) -> dict:
    return dataclasses.asdict(row)


def report_document(report: MiningReport, comparison: dict | None = None) -> dict:
    """The serializable report.  Wall-clock timings are deliberately left
    out so identical (input, config, seed) runs serialize byte-identically."""
    itemsets = [{"items": list(items), "support": support}
                for items, support in report.itemsets.as_dict().items()]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_document(report.config),
        "database": {"n": report.db_n, "m": report.db_m},
        "theta_count": report.itemsets.theta_count,
        "levels": [level_document(row) for row in report.levels],
        "itemsets": itemsets,
        "comparison": comparison,
    }


def report_json(report: MiningReport, comparison: dict | None = None) -> str:
    return json.dumps(report_document(report, comparison), indent=2, sort_keys=True) + "\n"


def comparison_document(comp: ComparisonReport) -> dict:
    return {
        "oracle_count": comp.oracle_count,
        "output_count": comp.output_count,
        "missed": [{"items": list(items), "support": supp} for items, supp in comp.missed],
        "sub_threshold": [{"items": list(items), "support": supp}
                          for items, supp in comp.sub_threshold],
        "per_level_misses": {str(l): c for l, c in sorted(comp.per_level_misses.items())},
    }


def _level_wall_ms(report: MiningReport, level: int) -> float:
    prefix = f"level{level}:"
    return 1000.0 * sum(v for k, v in report.timings.items() if k.startswith(prefix))


def report_csv(reports: list[MiningReport], timing: bool = False) -> str:
    """One row per (variant, level).  wall_clock_ms stays 0 unless timing
    was requested, keeping the default output deterministic."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for row in report.levels:
            wall = _level_wall_ms(report, row.level) if timing else 0
            writer.writerow([
                report.config.variant, row.level, row.candidates, row.transactions_read,
                row.hash_bits_read, row.true_negatives, row.false_positives,
                f"{wall:.3f}" if timing else "0",
            ])
    return buf.getvalue()


def _emit(text: str, output: str):
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="FIMI transaction file")
    p.add_argument("--output", default="-", help="report destination (default stdout)")
    p.add_argument("--theta", type=float, required=True, help="support threshold in (0,1)")
    p.add_argument("--epsilon", type=float, default=None, help="LSH tolerance in (0,1)")
    p.add_argument("--delta", type=float, default=None, help="LSH error probability in (0,1)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-level", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lshmine",
                                     description="Frequent-itemset mining with LSH-pruned joins")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine one database with one variant")
    _add_common_flags(p_mine)
    p_mine.add_argument("--variant", choices=VARIANTS, default="exact")
    p_mine.add_argument("--format", choices=["json", "csv"], default="json")
    p_mine.add_argument("--timing", action="store_true", help="fill wall_clock_ms in CSV output")

    p_cmp = sub.add_parser("compare", help="diff a variant against the brute-force oracle")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--variant", choices=VARIANTS, default="exact")
    p_cmp.add_argument("--trials", type=int, default=1,
                       help="repeat with seeds seed..seed+trials-1 and report miss rates")

    p_bench = sub.add_parser("bench", help="run several variants and emit CSV counters")
    _add_common_flags(p_bench)
    p_bench.add_argument("--variants", default=",".join(VARIANTS),
                         help="comma-separated variant list")
    p_bench.add_argument("--timing", action="store_true", help="fill wall_clock_ms")

    p_gen = sub.add_parser("gen", help="write a synthetic FIMI database")
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--n", type=int, required=True, help="transaction count")
    p_gen.add_argument("--m", type=int, required=True, help="item count")
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    return parser


def _config_from_args(args, variant: str) -> MiningConfig:
    return MiningConfig(
        theta=args.theta, variant=variant, epsilon=args.epsilon, delta=args.delta,
        seed=args.seed, max_level=args.max_level,
    )


def cmd_mine(args) -> int:
    config = _config_from_args(args, args.variant)
    config.validate()
    db = load_transactions(args.input)
    report = lsh_apriori_mine(db, config)
    if args.format == "json":
        _emit(report_json(report), args.output)
    else:
        _emit(report_csv([report], timing=args.timing), args.output)
    print(f"mined {report.itemsets.count()} itemsets in {report.itemsets.max_level()} levels",
          file=sys.stderr)
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _config_from_args(args, args.variant)
    config.validate()
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    db = load_transactions(args.input)
    oracle = brute_force_mine(db, config.theta)

    first = None
    missed_any = False
    sub_total = 0
    level_misses: dict[int, int] = {}
    for i in range(args.trials):
        trial = dataclasses.replace(config, seed=config.seed + i)
        comp = diff_against_oracle(lsh_apriori_mine(db, trial), oracle)
        if first is None:
            first = comp
        missed_any = missed_any or bool(comp.missed)
        sub_total += len(comp.sub_threshold)
        for l, c in comp.per_level_misses.items():
            level_misses[l] = level_misses.get(l, 0) + c

    per_level = []
    for l, records in enumerate(oracle.levels, start=1):
        oracle_count = len(records)
        denom = oracle_count * args.trials
        per_level.append({
            "level": l,
            "oracle_count": oracle_count,
            "miss_rate": (level_misses.get(l, 0) / denom) if denom else 0.0,
            "bound_delta_2l": (config.delta * 2**l) if config.delta is not None else None,
        })
    comparison = comparison_document(first)
    comparison.update({
        "trials": args.trials,
        "missed_any": missed_any,
        "sub_threshold_total": sub_total,
        "per_level": per_level,
    })
    _emit(report_json(first.report, comparison), args.output)

    failed = (config.variant == "covering" and missed_any) or sub_total > 0
    if failed:
        print("compare FAILED: covering miss or sub-threshold output detected", file=sys.stderr)
        return EXIT_DIFF
    print(f"compare ok over {args.trials} trial(s); oracle itemsets: {first.oracle_count}",
          file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("--variants names no variant")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    db = load_transactions(args.input)
    reports = []
    for v in variants:
        config = _config_from_args(args, v)
        config.validate()
        reports.append(lsh_apriori_mine(db, config))
    _emit(report_csv(reports, timing=args.timing), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    db = generate_synthetic(args.n, args.m, args.density, args.seed)
    write_transactions(db, args.output)
    print(f"wrote {db.n} transactions over {db.m} items to {args.output}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"mine": cmd_mine, "compare": cmd_compare, "bench": cmd_bench, "gen": cmd_gen}
    try:
        return commands[args.command](args)
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # any other failure: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
