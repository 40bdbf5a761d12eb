"""Spans around the program's public functions, and the per-layer metrics they give.

The traced run replaces each function in ``SPAN_TARGETS`` with a wrapper on
the module (or class) attribute its callers look up, for as long as the
``patched`` context is open.  A span records its name, start, end, parent
span and operation id; spans stay in memory and are written out at the end.
Nothing under ``src/`` knows about them.

A span's self time is its duration minus the part of its interval covered
by the union of its children's intervals.  Children opened on the ``bench``
command's pool threads take the span open on the operation's thread as
their parent, which is right for a closed loop with one client.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter

from mmsfair import bagfill, cli, core, harness, oracle, pipeline, transforms

# (owner, attribute, span name).  An owner is a module, or a class for methods.
SPAN_TARGETS = [
    (oracle, "mms", "oracle.mms"),
    (pipeline, "reduce", "transforms.reduce"),
    (pipeline, "to_ordered", "transforms.to_ordered"),
    (pipeline, "normalize", "transforms.normalize"),
    (pipeline, "lift_ordered", "transforms.lift"),
    (pipeline, "lift_reductions", "transforms.lift"),
    (pipeline, "run_bag_fill", "bagfill.run_bag_fill"),
    (pipeline, "complete_allocation", "bagfill.complete_allocation"),
    (pipeline, "approx_mms", "pipeline.approx_mms"),
    (cli, "approx_mms", "pipeline.approx_mms"),
    (harness, "verify", "harness.verify"),
    (cli, "verify", "harness.verify"),
    (core, "instance_from_json", "core.codec"),
    (core, "allocation_from_json", "core.codec"),
    (pipeline.SolveReport, "to_json", "core.codec"),
    (core, "validate_instance", "core.validate"),
    (pipeline, "validate_instance", "core.validate"),
    (core, "validate_allocation", "core.validate"),
    (oracle, "validate_allocation", "core.validate"),
    (transforms, "validate_allocation", "core.validate"),
    (bagfill, "validate_allocation", "core.validate"),
    (harness, "validate_allocation", "core.validate"),
    (cli, "main", "cli.bench"),
]

# The span an oracle search runs under names the stage it serves.  "op" is
# the operation itself: the share queries of shares-rational are base shares.
ORACLE_CALLERS = {
    "pipeline.approx_mms": "base",
    "op": "base",
    "transforms.reduce": "reduce",
    "transforms.normalize": "normalize",
    "harness.verify": "verify",
}

# Per-layer metric -> unit.  The order is the order printed.
PER_LAYER_UNITS = {
    "oracle.mms.calls": "count",
    "oracle.mms.distinct": "count",
    "oracle.mms.distinct_ratio": "ratio",
    "oracle.mms.certified_calls": "count",
    "oracle.mms.self_s": "s",
    "oracle.mms.self_s.base": "s",
    "oracle.mms.self_s.reduce": "s",
    "oracle.mms.self_s.normalize": "s",
    "oracle.mms.self_s.verify": "s",
    "transforms.reduce.calls": "count",
    "transforms.reduce.rounds": "count",
    "transforms.reduce.self_s": "s",
    "transforms.to_ordered.self_s": "s",
    "transforms.normalize.self_s": "s",
    "transforms.lift.self_s": "s",
    "core.codec.calls": "count",
    "core.codec.self_s": "s",
    "core.validate.self_s": "s",
    "bagfill.runs": "count",
    "bagfill.fill_events": "count",
    "bagfill.self_s": "s",
    "pipeline.approx_mms.calls": "count",
    "pipeline.approx_mms.self_s": "s",
    "harness.verify.calls": "count",
    "harness.verify.self_s": "s",
    "cli.bench.calls": "count",
    "cli.bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "info")

    def __init__(self, sid, name, start, parent, op):
        self.id, self.name, self.start, self.end = sid, name, start, start
        self.parent, self.op, self.info = parent, op, None

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


def _span_info(name, args, kwargs, result):
    """What a span keeps beyond its timing: the raw inputs of a search, or a count."""
    if name == "oracle.mms":
        valuation, parts, good_set = args[:3]
        if kwargs.get("certificate") is not None:
            return "certified"
        return parts, tuple(valuation[g] for g in good_set)
    if name == "transforms.reduce":
        return len(result.records)
    if name == "bagfill.run_bag_fill":
        return sum(1 for e in result.trace if e.kind == "fill")
    return None


class Tracer:
    """Collects spans from every thread; one operation is open at a time."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None  # the stack of the thread running the operation

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = None
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, name, 0.0, parent, self.op)
            self.spans.append(span)
        stack.append(span)
        span.start = span.end = perf_counter()
        return stack, span

    @contextmanager
    def operation(self, op_id: int):
        """The root span of one operation; spans opened inside carry its id."""
        self.op = op_id
        stack, span = self._open("op")
        self._op_stack = stack
        try:
            yield
        finally:
            span.end = perf_counter()
            stack.pop()
            self._op_stack = None
            self.op = None

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            stack, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.info = _span_info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Install a wrapper for every SPAN_TARGETS entry; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name in SPAN_TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def search_key(parts: int, values: tuple) -> tuple:
    """gcd-reduced sorted integer weights plus parts: equal keys, equal searches."""
    denom = 1
    for v in values:
        denom = lcm(denom, Fraction(v).denominator)
    weights = sorted(int(v * denom) for v in values)
    g = 0
    for w in weights:
        g = gcd(g, w)
    if g > 1:
        weights = [w // g for w in weights]
    return parts, tuple(weights)


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _union_length(children.get(s.id, []), s.start, s.end)
            for s in spans}


def per_layer(spans: list, overhead_ratio: float) -> dict:
    """Every PER_LAYER_UNITS metric from one traced run's spans."""
    own = self_times(spans)
    name_of = {s.id: s.name for s in spans}
    counts, selfs = {}, {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
        selfs[s.name] = selfs.get(s.name, 0.0) + own[s.id]

    searches = [s for s in spans if s.name == "oracle.mms"]
    certified = sum(1 for s in searches if s.info == "certified")
    keys = {search_key(*s.info) for s in searches if s.info != "certified"}
    searched = len(searches) - certified
    by_caller = dict.fromkeys(("base", "reduce", "normalize", "verify"), 0.0)
    for s in searches:
        stage = ORACLE_CALLERS.get(name_of.get(s.parent))
        if stage is not None:
            by_caller[stage] += own[s.id]

    def total(name):
        return sum(s.info for s in spans if s.name == name)

    m = {
        "oracle.mms.calls": len(searches),
        "oracle.mms.distinct": len(keys),
        "oracle.mms.distinct_ratio": len(keys) / searched if searched else 1.0,
        "oracle.mms.certified_calls": certified,
        "oracle.mms.self_s": selfs.get("oracle.mms", 0.0),
        "transforms.reduce.calls": counts.get("transforms.reduce", 0),
        "transforms.reduce.rounds": total("transforms.reduce"),
        "transforms.reduce.self_s": selfs.get("transforms.reduce", 0.0),
        "transforms.to_ordered.self_s": selfs.get("transforms.to_ordered", 0.0),
        "transforms.normalize.self_s": selfs.get("transforms.normalize", 0.0),
        "transforms.lift.self_s": selfs.get("transforms.lift", 0.0),
        "core.codec.calls": counts.get("core.codec", 0),
        "core.codec.self_s": selfs.get("core.codec", 0.0),
        "core.validate.self_s": selfs.get("core.validate", 0.0),
        "bagfill.runs": counts.get("bagfill.run_bag_fill", 0),
        "bagfill.fill_events": total("bagfill.run_bag_fill"),
        "bagfill.self_s": selfs.get("bagfill.run_bag_fill", 0.0)
                          + selfs.get("bagfill.complete_allocation", 0.0),
        "pipeline.approx_mms.calls": counts.get("pipeline.approx_mms", 0),
        "pipeline.approx_mms.self_s": selfs.get("pipeline.approx_mms", 0.0),
        "harness.verify.calls": counts.get("harness.verify", 0),
        "harness.verify.self_s": selfs.get("harness.verify", 0.0),
        "cli.bench.calls": counts.get("cli.bench", 0),
        "cli.bench.self_s": selfs.get("cli.bench", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for stage, seconds in by_caller.items():
        m[f"oracle.mms.self_s.{stage}"] = seconds
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
