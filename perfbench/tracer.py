"""Span tracing of pdacache from outside the package.

``install`` replaces pdacache's public functions, at every name a caller
resolves them by, with wrappers that record one span per call: name, start,
end, parent span and operation id.  Spans stay in memory until the run ends.
A layer's self time is its spans' duration minus the time their child spans
cover.  Counts (codewords, cells, pairs, bytes, ...) are taken from each
call's arguments and result inside a ``trace.count`` span, so the cost of
counting is reported on its own and charged to no layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# Per-layer metrics reported by a traced run, as per-operation means.
LAYER_METRICS = {
    "gf.field_new.calls": "count",
    "gf.field_new.self_s": "s",
    "gf.mds_generate.self_s": "s",
    "gf.codewords": "count",
    "designs.row_matrix.self_s": "s",
    "designs.rows": "count",
    "framework.column_set.self_s": "s",
    "framework.construct.self_s": "s",
    "framework.cells": "count",
    "framework.symbols": "count",
    "schemes.build.self_s": "s",
    "schemes.predict.self_s": "s",
    "pda.verify_pda.self_s": "s",
    "pda.verify_pda.pairs": "count",
    "pda.pda_params.self_s": "s",
    "pda.symbol_positions.calls": "count",
    "pda.symbol_positions.self_s": "s",
    "pda.to_json.self_s": "s",
    "pda.from_json.self_s": "s",
    "pda.json_bytes": "bytes",
    "sim.random_instance.self_s": "s",
    "sim.place.self_s": "s",
    "sim.cached_packets": "count",
    "sim.deliver.self_s": "s",
    "sim.decode.self_s": "s",
    "sim.signals": "count",
    "sim.xor_bytes": "bytes",
    "sim.bytes_broadcast": "bytes",
    "sim.bytes_uncoded": "bytes",
    "cli.construct.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.simulate.self_s": "s",
    "cli.compare.self_s": "s",
    "tables.table.self_s": "s",
    "op.self_s": "s",
    "op.traced_s": "s",
    "trace.count.self_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()

    def enter(self, name):
        self.stack.append(len(self.spans))
        parent = self.stack[-2] if len(self.stack) > 1 else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        return self.stack[-1]

    def exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name, n):
        self.counts[name] += n

    def totals(self, scales):
        """(self seconds by span name, calls by span name, op span seconds);
        a span of operation i counts scales[i] reference seconds per second."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        op_s = 0.0
        for i, (name, start, end, _, op) in enumerate(self.spans):
            scale = scales[op] if op is not None and op < len(scales) else 1.0
            self_s[name] += (end - start - covered[i]) * scale
            calls[name] += 1
            if name == "op":
                op_s += (end - start) * scale
        return self_s, calls, op_s

    def layer_metrics(self, ops, scales):
        """Every LAYER_METRICS entry except the trace.* ratios, per op."""
        self_s, calls, op_s = self.totals(scales)
        out = {}
        for name in LAYER_METRICS:
            if name.startswith("trace.") and name != "trace.count.self_s":
                continue
            if name == "op.traced_s":
                total = op_s
            elif name.endswith(".self_s"):
                total = self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                total = calls.get(name[: -len(".calls")], 0)
            else:
                total = self.counts.get(name, 0)
            out[name] = total / ops if ops else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _traced(tracer, fn, name, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if count is not None:
            index = tracer.enter("trace.count")
            try:
                count(tracer, result, args)
            finally:
                tracer.exit(index)
        return result

    return traced


def gain_counts(p):
    """Occurrences of each symbol of a PDA, as a Counter symbol -> gain."""
    return Counter(c for row in p.grid for c in row if c is not None)


def _pairs(p):
    return sum(g * (g - 1) // 2 for g in gain_counts(p).values())


def _count_deliver(t, transcript, args):
    signals = transcript.signals
    packet = len(signals[0]) if signals else 0
    nonstar = sum(gain_counts(args[0].pda).values())
    t.add("sim.signals", len(signals))
    t.add("sim.bytes_broadcast", sum(len(s) for s in signals))
    t.add("sim.bytes_uncoded", nonstar * packet)
    t.add("sim.xor_bytes", nonstar * packet)


def _count_decode(t, recovered, args):
    signals = args[2].signals
    packet = len(signals[0]) if signals else 0
    t.add("sim.xor_bytes", 2 * _pairs(args[0].pda) * packet)


def _count_construct(t, p, args):
    t.add("framework.cells", p.F * p.K)
    t.add("framework.symbols", len(gain_counts(p)))


# (span name, attribute names, counter); each attribute is wrapped in every
# module of MODULES that defines it, so callers see the wrapper whichever
# name they resolve.
FUNCTIONS = (
    ("gf.field_new", ("field_new",), None),
    ("gf.mds_generate", ("mds_generate",), lambda t, r, a: t.add("gf.codewords", len(r.codewords))),
    (
        "designs.row_matrix",
        ("oa_trivial", "oa_from_mds", "full_grid", "matrix_from_rows"),
        lambda t, r, a: t.add("designs.rows", len(r.rows)),
    ),
    ("framework.column_set", ("full_column_set", "weight_column_set"), None),
    ("framework.construct", ("construct",), _count_construct),
    ("schemes.build", ("build",), None),
    (
        "schemes.predict",
        ("predict", "predict_theorem3", "predict_theorem6", "predict_theorem7", "predict_szg_second"),
        None,
    ),
    ("pda.verify_pda", ("verify_pda",), lambda t, r, a: t.add("pda.verify_pda.pairs", _pairs(a[0]))),
    ("pda.pda_params", ("pda_params",), None),
    ("sim.random_instance", ("random_instance",), None),
    ("sim.place", ("place",), lambda t, r, a: t.add("sim.cached_packets", sum(len(c) for c in r))),
    ("sim.deliver", ("deliver",), _count_deliver),
    ("sim.decode", ("decode",), _count_decode),
    ("cli.construct", ("cmd_construct",), None),
    ("cli.verify", ("cmd_verify",), None),
    ("cli.simulate", ("cmd_simulate",), None),
    ("cli.compare", ("cmd_compare",), None),
)

MODULES = ("", ".gf", ".designs", ".framework", ".schemes", ".pda", ".sim", ".tables", ".cli")

# Pda methods: (span name, attribute, counter).
METHODS = (
    ("pda.symbol_positions", "symbol_positions", None),
    ("pda.to_json", "to_json", lambda t, r, a: t.add("pda.json_bytes", len(r))),
    ("pda.from_json", "from_json", lambda t, r, a: t.add("pda.json_bytes", len(a[-1]))),
)


def _wrap_descriptor(tracer, raw, name, count):
    """Wrap a method, a classmethod, or a cached_property (the form a
    memoized symbol_positions would take)."""
    if isinstance(raw, classmethod):
        return classmethod(_traced(tracer, raw.__func__, name, count))
    if isinstance(raw, functools.cached_property):
        wrapped = functools.cached_property(_traced(tracer, raw.func, name, count))
        wrapped.attrname = raw.attrname
        return wrapped
    return _traced(tracer, raw, name, count)


def install(tracer, pdacache):
    """Wrap pdacache's layer boundaries; return the number of names wrapped."""
    import importlib

    wrapped = {}  # id(original) -> wrapper, so one function has one wrapper
    n = 0
    modules = [importlib.import_module("pdacache" + suffix) for suffix in MODULES]
    for span, attrs, count in FUNCTIONS:
        for attr in attrs:
            for mod in modules:
                fn = mod.__dict__.get(attr)
                if not callable(fn):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = (fn, _traced(tracer, fn, span, count))
                setattr(mod, attr, wrapped[id(fn)][1])
                n += 1
    pda_cls = pdacache.pda.Pda
    for span, attr, count in METHODS:
        raw = pda_cls.__dict__.get(attr)
        if raw is not None:
            setattr(pda_cls, attr, _wrap_descriptor(tracer, raw, span, count))
            n += 1
    tables = pdacache.tables.TABLES
    for key, fn in list(tables.items()):
        tables[key] = _traced(tracer, fn, "tables.table", None)
        n += 1
    return n
