"""Spans for the traced run, recorded from outside the program.

The traced run wraps public entry points of each layer (the attribute the
caller looks up, e.g. ``repro.mdx.evaluator.parse_query``) so every call
records a span: name, start, end, parent span and request id.  Spans
stay in memory and are written out once, when the run ends.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.  The program's own tracer stays off.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

__all__ = ["Patcher", "Span", "Tracer", "layer_stats", "load_spans"]


class Span:
    __slots__ = ("id", "name", "parent", "rid", "start", "end")

    def __init__(self, ident, name, parent, rid, start, end=None):
        self.id = ident
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = start
        self.end = start if end is None else end

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid=None):
        """Record one span; a root span starts a new request unless
        ``rid`` names one (children inherit their parent's)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent.rid if parent is not None else next(self._rids)
        record = Span(
            next(self._ids),
            name,
            parent.id if parent is not None else None,
            rid,
            time.perf_counter(),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(record.to_dict()) + "\n")


def load_spans(path: str) -> list:
    """The spans :meth:`Tracer.dump` wrote to ``path``."""
    with open(path, encoding="utf-8") as handle:
        return [Span(*(d[key] for key in Span.__slots__)) for d in map(json.loads, handle)]


class Patcher:
    """Wrap attributes in spans for the duration of a ``with`` block."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def wrap(self, owner, attr: str, span_name: str, after=None, rid_of=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(span, result, args, kwargs)`` runs outside the span, for
        counters computed from the call's output; ``rid_of(args)`` names
        the request a root span belongs to.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self.tracer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            rid = rid_of(args) if rid_of is not None else None
            with tracer.span(span_name, rid) as record:
                result = function(*args, **kwargs)
            if after is not None:
                after(record, result, args, kwargs)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_stats(spans, since: float = float("-inf")) -> dict:
    """Per span name: calls, total/median inclusive ms and median self ms
    over spans that started at or after ``since``."""
    children: dict = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append((record.start, record.end))
    grouped: dict = {}
    for record in spans:
        if record.start < since:
            continue
        duration = record.end - record.start
        own = duration - _covered(
            children.get(record.id, ()), record.start, record.end
        )
        entry = grouped.setdefault(record.name, {"ms": [], "self_ms": []})
        entry["ms"].append(duration * 1000.0)
        entry["self_ms"].append(own * 1000.0)
    out = {}
    for name, entry in grouped.items():
        out[name] = {
            "calls": len(entry["ms"]),
            "total_ms": sum(entry["ms"]),
            "ms": statistics.median(entry["ms"]),
            "self_ms": statistics.median(entry["self_ms"]),
            "self_total_ms": sum(entry["self_ms"]),
        }
    return out
