"""One benchmark operation in its own process: load a FIMI file and mine it
with one variant, then print one JSON line with everything measured.

    python3 perfbench/child.py --input FILE --theta 0.3 --variant hamming \\
        --seconds 8 [--trace SPANS.npz]

The child reloads the file for LOAD_SHARE of --seconds and mines for the
rest, each at least once.  Timed calls are grouped into batches lasting at
least BATCH_S, and each batch gives one sample (its mean).  After each
mining batch the child also times `reference()`, a fixed kernel that does
not use lshmine, for REFERENCE_SHARE of the batch's time, so the parent can
express mining time in units of the machine's speed at that moment.  Each
timed call starts from a collected heap, as in a fresh `lshmine mine`
process.  Every mining repeat must give the same itemsets and level
counters as the first.  With --trace the child then loads and mines once
more with every layer wrapped (see probe.py) and writes the spans to the
given .npz file.  lshmine must be importable (the parent puts the
checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import numpy as np

BATCH_S = 0.1
LOAD_SHARE = 0.1
REFERENCE_SHARE = 0.1
ADDRESS_SPACE_LIMIT = 3 << 30   # a runaway allocation fails here instead of exhausting the host
EPSILON, DELTA, MINING_SEED = 0.5, 0.1, 1   # the `lshmine mine` defaults


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


REFERENCE_MATRIX = np.random.default_rng(0).random((512, 256)) < 0.3


def reference() -> float:
    """Seconds taken by a fixed kernel that mixes numpy column ANDs with
    Python tuple and dict work, as the miner does, but calls nothing in
    lshmine: a change to the program cannot change it, while a slow phase
    of the machine slows it as it slows mining (about 7 ms on a 2-vCPU VM)."""
    t0 = time.perf_counter()
    a = REFERENCE_MATRIX
    {i: tuple(np.flatnonzero(a[:, i]).tolist()) for i in range(a.shape[1])}
    {(i, j): int(np.count_nonzero(a[:, i] & a[:, j]))
     for i in range(a.shape[1] - 4) for j in range(i + 1, i + 5)}
    return time.perf_counter() - t0


def batches(step, seconds: float, after_batch=None) -> list[float]:
    """Call `step` (which returns the seconds it timed) until `seconds` of
    wall time have passed, at least once.  Consecutive calls are grouped
    into batches of at least BATCH_S timed; each batch gives one sample, its
    mean.  A millisecond operation's sample then averages many calls instead
    of catching one slow or fast call.  `after_batch(seconds)` runs after
    each batch with the batch's timed total."""
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        batch, count = 0.0, 0
        while not count or batch < BATCH_S:
            batch += step()
            count += 1
        samples.append(batch / count)
        if after_batch is not None:
            after_batch(batch)
    return samples


def config_for(lshmine, theta: float, variant: str, max_level=None):
    lsh = variant != "exact"
    return lshmine.MiningConfig(theta=theta, variant=variant, epsilon=EPSILON if lsh else None,
                                delta=DELTA if lsh else None, seed=MINING_SEED,
                                max_level=max_level)


def outcome(report, cli) -> dict:
    return {
        "itemsets": [[list(r.items), r.support] for r in report.itemsets.all_records()],
        "theta_count": report.itemsets.theta_count,
        "db": [report.db_n, report.db_m],
        "levels": [cli.level_document(row) for row in report.levels],
    }


class Operation:
    """The loaded database and everything measured on it so far."""

    def __init__(self, args):
        import lshmine
        from lshmine import cli, engine

        import probe

        self.lshmine, self.cli, self.engine, self.probe = lshmine, cli, engine, probe
        self.args = args
        self.config = config_for(lshmine, args.theta, args.variant)
        self.db = None
        self.setup_s = self.load(0.0)
        self.rss_after_load_mb = rss_mb()
        self.first = self.error = self.params = None
        self.nondeterministic = False
        self.reference_s = []
        self.phase_s = {"engine.sweep_s": [], "engine.verify_s": [], "engine.untimed_s": []}

    def load(self, seconds: float) -> list[float]:
        def step():
            self.db = None   # only one database in memory at a time
            gc.collect()
            t0 = time.perf_counter()
            self.db = self.lshmine.load_transactions(self.args.input)
            return time.perf_counter() - t0
        return batches(step, seconds)

    def mine(self, seconds: float) -> list[float]:
        probe = self.probe
        recorder = probe.Probe(spans=False)

        def step():
            recorder.params.clear()
            gc.collect()
            t0 = time.perf_counter()
            try:
                report = self.engine.lsh_apriori_mine(self.db, self.config)
            except Exception as exc:
                report = None
                self.error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if self.params is None:
                self.params = list(recorder.params)
            if report is not None:
                self.record(report, elapsed)
            return elapsed

        with probe.installed(recorder, probe.PARAM_TARGETS):
            return batches(step, seconds, self.calibrate)

    def calibrate(self, batch_s: float):
        """Time `reference()` for REFERENCE_SHARE of `batch_s`, at least once."""
        spent = 0.0
        while not spent or spent < REFERENCE_SHARE * batch_s:
            self.reference_s.append(reference())
            spent += self.reference_s[-1]

    def record(self, report, wall: float):
        timed = report.timings
        for phase in ("sweep", "verify"):
            self.phase_s[f"engine.{phase}_s"].append(
                sum(v for k, v in timed.items() if k.endswith(":" + phase)))
        self.phase_s["engine.untimed_s"].append(wall - sum(timed.values()))
        got = outcome(report, self.cli)
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.nondeterministic = True

    def completed_levels(self):
        """For an operation that raised: the report of the deepest max_level
        that still completes, i.e. the levels mined before the failure."""
        last, level = None, 1
        while True:
            try:
                last = self.engine.lsh_apriori_mine(
                    self.db, config_for(self.lshmine, self.args.theta, self.args.variant, level))
            except Exception:
                return last
            if len(last.levels) < level:
                return last
            level += 1

    def trace(self, path: str) -> dict:
        probe, cli, engine = self.probe, self.cli, self.engine
        tracer = probe.Probe(spans=True)
        tracer.op_id = 1
        error, report_json_s = None, 0.0
        self.db = None
        gc.collect()
        with probe.installed(tracer, probe.TRACE_TARGETS):
            db = self.lshmine.load_transactions(self.args.input)
            gc.collect()
            t0 = time.perf_counter()
            try:
                report = engine.lsh_apriori_mine(db, self.config)
            except Exception as exc:
                error = type(exc).__name__
            mine_s = time.perf_counter() - t0
            if error is None:
                t0 = time.perf_counter()
                cli.report_json(report)
                report_json_s = time.perf_counter() - t0
        tracer.save(path)
        pad_calls, pad_s = tracer.outermost(probe.PAD_FUNCTIONS)
        return {"error": error, "mine_s": mine_s, "report_json_s": report_json_s,
                "spans": tracer.summary(), "counters": dict(tracer.counters),
                "pad_calls": pad_calls, "pad_s": pad_s, "span_count": len(tracer.start)}

    def result(self) -> dict:
        """The untraced outcome: the first repeat's output, or for an
        operation that raised, the levels completed before the failure."""
        first = self.first
        if first is None:
            partial = self.completed_levels()
            first = outcome(partial, self.cli) if partial else {"itemsets": [], "levels": []}
        return {"variant": self.args.variant, "error": self.error,
                "nondeterministic": self.nondeterministic, "params": self.params or [],
                "rss_after_load_mb": self.rss_after_load_mb, "peak_rss_mb": rss_mb(),
                "phase_s": self.phase_s, "reference_s": self.reference_s, **first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--variant", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS.npz")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    op = Operation(args)
    setup_s = op.setup_s + op.load(args.seconds * LOAD_SHARE)
    mine_s = op.mine(args.seconds * (1 - LOAD_SHARE))
    out = dict(op.result(), setup_s=setup_s, mine_s=mine_s)
    out["trace"] = op.trace(args.trace) if args.trace else None
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
