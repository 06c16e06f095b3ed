"""Correctness gate applied to every mining operation the benchmark runs.

An operation passes when it raised nothing and:
- no emitted itemset is below the threshold;
- every emitted support equals a recount from the benchmark's own row matrix;
- covering's output equals the exact output;
- exact's output equals `brute_force_mine` where the item universe allows it;
- `engine.accounting_check` holds on every level row;
- every mining repeat gave the same itemsets and level counters as the first.
"""

from __future__ import annotations

from lshmine import LevelStats, accounting_check

from workloads import Instance, recount


def as_dict(itemsets) -> dict[tuple[int, ...], int]:
    """[[items, support], ...] as {items tuple: support}."""
    return {tuple(items): support for items, support in itemsets}


def diff_summary(got: dict, want: dict) -> str:
    missed = sum(1 for k in want if k not in got)
    extra = sum(1 for k in got if k not in want)
    wrong = sum(1 for k, s in got.items() if k in want and want[k] != s)
    return f"{missed} missed, {extra} extra, {wrong} with another support"


def check(op: dict, inst: Instance, exact: dict | None, oracle: dict | None) -> list[str]:
    """Problems found in one operation's outcome (empty when it passes).

    `exact` is the exact variant's output on this input and `oracle` the
    brute-force output, each None where unavailable.
    """
    if op.get("error"):
        return [op["error"]]
    problems = []
    tc = inst.theta_count
    if op["db"] != [inst.n, inst.m] or op["theta_count"] != tc:
        problems.append(f"loaded n, m, theta_count {op['db']}, {op['theta_count']} "
                        f"!= generated {inst.n}, {inst.m}, {tc}")
    got = as_dict(op["itemsets"])
    if len(got) != len(op["itemsets"]):
        problems.append("an itemset was emitted twice")
    below = [items for items, s in got.items() if s < tc]
    if below:
        problems.append(f"{len(below)} itemsets below threshold {tc}, e.g. {below[0]}")
    bad = [items for items, s in got.items() if recount(inst, items) != s]
    if bad:
        problems.append(f"{len(bad)} supports differ from the recount, e.g. {bad[0]}")
    if op["variant"] == "covering":
        if exact is None:
            problems.append("no exact output to compare covering with")
        elif got != exact:
            problems.append(f"covering output != exact output: {diff_summary(got, exact)}")
    if op["variant"] == "exact" and oracle is not None and got != oracle:
        problems.append(f"exact output != brute force: {diff_summary(got, oracle)}")
    for row in op["levels"]:
        if not accounting_check(LevelStats(**row), inst.n):
            problems.append(f"accounting identity fails at level {row['level']}")
    if op["nondeterministic"]:
        problems.append("a repeat gave other itemsets or counters than the first")
    return problems


def check_all(ops: dict, inst: Instance, oracle: dict | None) -> tuple[dict | None, list[dict]]:
    """Check every variant's operation (`ops` maps variant to outcome; exact
    first, since the covering check needs its output).  Return exact's
    output (None if it failed) and one entry per failed operation."""
    exact, failures = None, []
    for variant, op in ops.items():
        problems = check(op, inst, exact, oracle)
        if problems:
            failures.append({"variant": variant, "raised": op["error"] is not None,
                             "problems": problems})
        elif variant == "exact":
            exact = as_dict(op["itemsets"])
    return exact, failures


def correct(failures: list[dict]) -> bool:
    """An operation that raised produced no output, so only gate findings on
    produced outputs make a run incorrect; both kinds count as failed."""
    return all(f["raised"] for f in failures)
