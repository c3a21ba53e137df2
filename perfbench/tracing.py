"""Spans around calls into gup's layers, recorded from the benchmark side.

A Tracer replaces chosen functions with timing wrappers at every module
attribute that binds them (a function imported with ``from x import f``
is bound in two modules, and a wrapper on one of them misses calls made
through the other).  Each call becomes one span: name, operation id,
parent span, start, end and optional counters.  Spans stay in memory
until the run ends.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans; summing self times over all spans
of an operation gives back the operation's traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: "int | None"
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            # clip to the parent so a child can never make self time negative
            children[s.parent].append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.id: (s.end - s.start) - covered_length(children[s.id]) for s in spans
    }


def descendants(spans, root_id: int) -> list:
    """All spans below root_id, at any depth."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    found, stack = [], list(children[root_id])
    while stack:
        s = stack.pop()
        found.append(s)
        stack.extend(children[s.id])
    return found


class Tracer:
    """In-memory span recorder with attribute-level function wrapping."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func, counter=None):
        """Timing wrapper for func; counter(args, kwargs, result) -> dict."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, tracer.op, name, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self, modules, targets) -> None:
        """Wrap each target function wherever one of the modules binds it.

        targets maps a span name to (function, counter or None).
        """
        wrappers = {
            id(func): (func, self.wrap(name, func, counter))
            for name, (func, counter) in targets.items()
        }
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                }
                if s.counts:
                    record["counts"] = s.counts
                handle.write(json.dumps(record) + "\n")


def span_totals(spans) -> dict:
    """Per span name: calls, summed self time and summed counters."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        entry = totals[s.name]
        entry["calls"] += 1
        entry["self_s"] += selfs[s.id]
        for key, value in s.counts.items():
            entry[key] += value
    return {name: dict(entry) for name, entry in totals.items()}
