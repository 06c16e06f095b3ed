"""Wrappers that observe calls into lshmine's public functions from outside.

A `Probe` wraps each target function in every lshmine module that binds it,
whether the module defines it or imported it by name, so calls made through
``module.func`` and through a from-import are both seen.  With spans on,
every wrapped call records one span (name, start, end, parent, operation
id) in compact arrays kept in memory until `save` writes them out.  With
spans off only the return-value observers run, which is what the untraced
children use to record each level's derived parameters.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass

import numpy as np

MODULES = ("dataset", "transform", "exact", "engine", "hamming_lsh", "minhash_lsh",
           "covering_lsh", "cli")


class Probe:
    def __init__(self, spans: bool):
        self.spans = spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.params: list[dict] = []

    def wrap(self, qualname: str, fn, observe=None):
        nid = self._ids.setdefault(qualname, len(self._ids))
        if nid == len(self.names):
            self.names.append(qualname)
        stack = self._stack
        clock = time.perf_counter

        if not self.spans:
            def observed(*args, **kwargs):
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if observe is not None:
                        observe(self, None, exc)
                    raise
                if observe is not None:
                    observe(self, out, None)
                return out
            return observed

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.end[sid] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, None, exc)
                raise
            self.end[sid] = clock()
            stack.pop()
            if observe is not None:
                observe(self, out, None)
            return out
        return traced

    def span_table(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, and self seconds
        (duration minus the part covered by child spans)."""
        t = self.span_table()
        dur = t["end"] - t["start"]
        has_parent = t["parent"] >= 0
        child = np.bincount(t["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        out = {}
        for nid, qualname in enumerate(self.names):
            sel = t["name"] == nid
            out[qualname] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                             "self_s": float(self_s[sel].sum())}
        return out

    def outermost(self, group) -> tuple[int, float]:
        """Count and inclusive seconds of the calls into `group` (span names)
        made from outside it, so nested calls within the group count once."""
        t = self.span_table()
        ids = np.array([i for i, q in enumerate(self.names) if q in group], dtype=np.int32)
        inside = np.isin(t["name"], ids)
        parent_inside = np.where(t["parent"] >= 0, inside[np.maximum(t["parent"], 0)], False)
        sel = inside & ~parent_inside
        return int(sel.sum()), float((t["end"] - t["start"])[sel].sum())

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.span_table())


def _modules():
    return [importlib.import_module(f"lshmine.{name}") for name in MODULES] + \
        [importlib.import_module("lshmine")]


@contextmanager
def installed(probe: Probe, targets):
    """Bind `probe`'s wrappers for `targets` ((module, function, observer)
    triples) in every lshmine module that binds the function; restore the
    originals on exit."""
    mods = _modules()
    saved = []
    try:
        for module_name, func_name, observe in targets:
            original = getattr(importlib.import_module(f"lshmine.{module_name}"), func_name)
            wrapper = probe.wrap(f"{module_name}.{func_name}", original, observe)
            for mod in mods:
                if getattr(mod, func_name, None) is original:
                    saved.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)
        yield probe
    finally:
        for mod, func_name, original in reversed(saved):
            setattr(mod, func_name, original)


# Return-value observers: they turn what a layer hands back into counters.

def record_params(probe: Probe, out, exc):
    if exc is not None:
        probe.params.append({"error": type(exc).__name__})
    else:
        fields = asdict(out) if is_dataclass(out) else {}
        probe.params.append({k: v for k, v in fields.items()
                             if k in ("k", "L", "rows", "mask_dim")})


def _count(**fields):
    def observe(probe: Probe, out, exc):
        if exc is None:
            for key, get in fields.items():
                probe.counters[key] += get(out)
    return observe


def _sketch_bytes(probe: Probe, out, exc):
    if exc is None:
        size = out.perms.nbytes + out.columns.nbytes
        key = "minhash_lsh.sketch_bytes"
        probe.counters[key] = max(probe.counters[key], size)


PARAM_TARGETS = [
    ("hamming_lsh", "derive_params", record_params),
    ("minhash_lsh", "derive_params", record_params),
    ("covering_lsh", "derive_params", record_params),
]

TRACE_TARGETS = PARAM_TARGETS + [
    ("dataset", "load_transactions", None),
    ("dataset", "co_support", None),
    ("transform", "pad_preprocess", None),
    ("transform", "pad_query", None),
    ("transform", "padded_bits_array", None),
    ("transform", "padded_one_positions", None),
    ("exact", "union_if_compatible", None),
    ("engine", "lsh_apriori_mine", None),
    ("hamming_lsh", "build_index", None),
    ("hamming_lsh", "query", _count(**{
        "hamming_lsh.inspections": lambda r: r.inspections,
        "hamming_lsh.early_exits": lambda r: int(r.early_exit),
        "hamming_lsh.partners": lambda r: len(r.partners)})),
    ("minhash_lsh", "build_sketch", _sketch_bytes),
    ("minhash_lsh", "query", _count(**{
        "minhash_lsh.approved": lambda r: len(r.approved),
        "minhash_lsh.rejected": lambda r: len(r.rejected)})),
    ("covering_lsh", "build_family", _count(**{
        "covering_lsh.masks": lambda f: len(f.masks)})),
    ("covering_lsh", "build_index", _count(**{
        "covering_lsh.table_entries":
            lambda ix: sum(len(bucket) for table in ix.tables for bucket in table.values())})),
    ("covering_lsh", "query", _count(**{
        "covering_lsh.inspections": lambda r: r.inspections,
        "covering_lsh.partners": lambda r: len(r.partners)})),
    ("cli", "report_json", None),
]

PAD_FUNCTIONS = ("transform.pad_preprocess", "transform.pad_query",
                 "transform.padded_bits_array", "transform.padded_one_positions")
