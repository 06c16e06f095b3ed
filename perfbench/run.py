"""lshmine benchmark: mine one seeded workload with every variant and report
the metrics listed in BENCHMARK.json.

    python3 perfbench/run.py --workload negatives --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; lshmine is imported from the checkout's
src/.  The workload is generated from --seed and written as a FIMI file under
perfbench/out/.  Each variant's operation (load + mine) runs in a fresh child
process with BLAS/OpenMP pinned to one thread; the children run one after
another, each for a quarter of --seconds, so only one computes at a time.
Times are reported at a fixed machine speed: each measured mean is scaled
by NOMINAL_REFERENCE_S over the mean time of a fixed reference kernel that
the children time between their mining calls (see NOTES.md, "Steadiness");
the raw wall times are per-layer metrics.
Every operation's output goes through the correctness gate (gate.py);
exceptions and gate failures are counted against the operations attempted
and the run goes on.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer ones (each child then also
mines once with every layer wrapped).  See NOTES.md for what each metric
means.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

VARIANTS = ("exact", "hamming", "minhash", "covering")
# Reported times are wall times scaled to a machine on which child.reference()
# takes this long (about its time on the 2-vCPU VM the benchmark was tuned on).
NOMINAL_REFERENCE_S = 0.005
DEADLINE_S = 170.0    # the whole run must end within 180 s


class BenchError(Exception):
    """The run cannot produce a result."""


def run_child(variant: str, path: Path, theta: float, seconds: float, trace: bool,
              deadline: float) -> dict:
    """Load and mine `path` with `variant` in a fresh child process for
    `seconds` (and, traced, once more with every layer wrapped); return the
    child's outcome with all its timing samples."""
    command = [sys.executable, str(HERE / "child.py"), "--input", str(path),
               "--theta", repr(theta), "--variant", variant, "--seconds", repr(seconds)]
    if trace:
        command += ["--trace", str(OUT / f"spans-{variant}.npz")]
    log = OUT / f"child-{variant}.log"
    with open(log, "w") as stderr:
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=stderr, text=True,
                                  cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{variant} child still busy at the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = (log.read_text().strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"{variant} child exited with {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reads(op: dict) -> int:
    return sum(row["transactions_read"] for row in op["levels"])


def level_sum(op: dict, field: str, first_level: int = 1) -> int:
    return sum(row[field] for row in op["levels"] if row["level"] >= first_level)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def at_nominal_speed(seconds: float, reference_s) -> float:
    """`seconds` measured while the reference kernel took `reference_s`
    (samples), scaled to a machine on which it takes NOMINAL_REFERENCE_S."""
    return seconds * NOMINAL_REFERENCE_S / mean(reference_s)


def level_params(op: dict) -> list[dict]:
    """Each derive_params return value (or its exception) with its level and
    the level's fallback reason."""
    rows = {row["level"]: row for row in op["levels"]}
    out = []
    for level, params in enumerate(op["params"], start=2):
        entry = {"level": level, **params}
        if level in rows and rows[level]["fallback_reason"]:
            entry["fallback"] = rows[level]["fallback_reason"]
        out.append(entry)
    return out


def end_to_end(ops: dict, exact_ref: dict | None) -> dict[str, float]:
    import gate

    m = {"setup_s": at_nominal_speed(mean([t for op in ops.values() for t in op["setup_s"]]),
                                     [t for op in ops.values() for t in op["reference_s"]])}
    for v, op in ops.items():
        m[f"mine_s.{v}"] = at_nominal_speed(mean(op["mine_s"]), op["reference_s"])
        m[f"peak_rss_mb.{v}"] = op["peak_rss_mb"]
        m[f"reads.{v}"] = reads(op)
        if v in ("hamming", "minhash"):
            got = gate.as_dict(op["itemsets"])
            m[f"recall.{v}"] = ratio(sum(1 for k in exact_ref or () if k in got),
                                     len(exact_ref or ()))
    return m


def per_layer(ops: dict) -> dict[str, float]:
    m = {"dataset.rss_after_load_mb": statistics.median(op["rss_after_load_mb"]
                                                        for op in ops.values()),
         "reference_s": mean([t for op in ops.values() for t in op["reference_s"]]),
         "wall.setup_s": mean([t for op in ops.values() for t in op["setup_s"]])}
    for v, op in ops.items():
        tr = op["trace"]
        spans = tr["spans"]
        m[f"wall.mine_s.{v}"] = mean(op["mine_s"])
        for name, values in op["phase_s"].items():
            m[f"{name}.{v}"] = mean(values)
        m[f"exact.union_if_compatible.calls.{v}"] = spans["exact.union_if_compatible"]["calls"]
        m[f"exact.union_if_compatible.self_s.{v}"] = spans["exact.union_if_compatible"]["self_s"]
        m[f"engine.candidates.{v}"] = level_sum(op, "candidates")
        m[f"engine.emitted_candidates.{v}"] = level_sum(op, "emitted_candidates")
        m[f"engine.verify_yield.{v}"] = ratio(level_sum(op, "frequent_count", 2),
                                              level_sum(op, "emitted_candidates", 2))
        m[f"cli.report_json_s.{v}"] = tr["report_json_s"]
        m[f"trace.overhead_s.{v}"] = tr["mine_s"] - mean(op["mine_s"])
        if v == "exact":
            continue
        tn, fp = level_sum(op, "true_negatives"), level_sum(op, "false_positives")
        m[f"transform.pad_calls.{v}"] = tr["pad_calls"]
        m[f"transform.pad_s.{v}"] = tr["pad_s"]
        m[f"engine.hash_bits_read.{v}"] = level_sum(op, "hash_bits_read")
        m[f"engine.true_negatives.{v}"] = tn
        m[f"engine.false_positives.{v}"] = fp
        m[f"engine.lsh_levels.{v}"] = level_sum(op, "lsh_active")
        m[f"engine.fallback_levels.{v}"] = sum(r["fallback_reason"] is not None
                                               for r in op["levels"])
        m[f"engine.reads_vs_exact.{v}"] = ratio(reads(op), reads(ops["exact"]))
        m[f"engine.screen_rate.{v}"] = ratio(tn, tn + fp)

    def span_s(v, name, field="total_s"):
        return ops[v]["trace"]["spans"][name][field]

    def count(v, name):
        return ops[v]["trace"]["counters"].get(name, 0)

    m["hamming_lsh.build_s"] = span_s("hamming", "hamming_lsh.build_index")
    m["hamming_lsh.query_s"] = span_s("hamming", "hamming_lsh.query")
    m["hamming_lsh.inspections"] = count("hamming", "hamming_lsh.inspections")
    m["hamming_lsh.early_exits"] = count("hamming", "hamming_lsh.early_exits")
    m["hamming_lsh.inspection_yield"] = ratio(count("hamming", "hamming_lsh.partners"),
                                              count("hamming", "hamming_lsh.inspections"))
    m["dataset.co_support.calls.hamming"] = span_s("hamming", "dataset.co_support", "calls")
    m["minhash_lsh.build_s"] = span_s("minhash", "minhash_lsh.build_sketch")
    m["minhash_lsh.query_s"] = span_s("minhash", "minhash_lsh.query")
    m["minhash_lsh.approved"] = count("minhash", "minhash_lsh.approved")
    m["minhash_lsh.rejected"] = count("minhash", "minhash_lsh.rejected")
    m["minhash_lsh.sketch_bytes"] = count("minhash", "minhash_lsh.sketch_bytes")
    m["covering_lsh.build_s"] = (span_s("covering", "covering_lsh.build_family")
                                 + span_s("covering", "covering_lsh.build_index"))
    m["covering_lsh.query_s"] = span_s("covering", "covering_lsh.query")
    m["covering_lsh.masks"] = count("covering", "covering_lsh.masks")
    m["covering_lsh.table_entries"] = count("covering", "covering_lsh.table_entries")
    m["covering_lsh.inspection_yield"] = ratio(count("covering", "covering_lsh.partners"),
                                               count("covering", "covering_lsh.inspections"))
    m["dataset.co_support.calls.covering"] = span_s("covering", "dataset.co_support", "calls")
    return m


def bench(args) -> dict:
    if not (SRC / "lshmine" / "__init__.py").is_file():
        raise BenchError(f"no lshmine sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gate
    from lshmine import brute_force_mine, load_transactions
    from lshmine.exact import BRUTE_FORCE_MAX_ITEMS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S

    OUT.mkdir(exist_ok=True)
    inst = workloads.generate(args.workload, args.seed)
    path = OUT / f"{args.workload}.dat"
    fingerprint = {"workload": args.workload, "seed": args.seed,
                   "sha256": workloads.write_fimi(inst, path),
                   "n": inst.n, "m": inst.m, "theta": inst.theta, "theta_count": inst.theta_count}
    oracle = None
    if inst.m <= BRUTE_FORCE_MAX_ITEMS:
        oracle = brute_force_mine(load_transactions(path), inst.theta).as_dict()

    measure_s = args.seconds / 2 if args.trace else args.seconds   # leave time for the traced mines
    ops = {v: run_child(v, path, inst.theta, measure_s / len(VARIANTS), bool(args.trace), deadline)
           for v in VARIANTS}

    exact_ref, failures = gate.check_all(ops, inst, oracle)
    fingerprint["params"] = {v: level_params(ops[v]) for v in VARIANTS if v != "exact"}

    computed = per_layer(ops) if args.trace else end_to_end(ops, exact_ref)
    missing = [s["name"] for s in wanted if s["name"] not in computed]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    result = {
        "correct": gate.correct(failures),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {s["name"]: {"value": computed[s["name"]], "unit": s["unit"]} for s in wanted},
    }
    for op in ops.values():
        del op["itemsets"]
    record = {"result": result, "fingerprint": fingerprint, "failures": failures, "ops": ops}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        out = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    res = out["result"]
    print(json.dumps(out["fingerprint"]))
    for f in out["failures"]:
        print(f"FAILED {f['variant']}: {'; '.join(f['problems'])}")
    for name, metric in res["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"operations: {res['failed']} failed of {res['attempted']} attempted")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
