"""Span recording for the traced run, and the arithmetic over spans.

The benchmark wraps the package's public functions from outside: ``Probes``
replaces a function object in every ``orthantwalks`` namespace that holds it,
so callers inside the package and in the benchmark record a span whenever
they call it.  Spans nest per thread through a thread-local stack; a span
started on a pool thread has no parent, so busy time sums across threads
while a waiting parent's self time is not reduced by work on other threads.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None  # id of the enclosing span on the same thread
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects finished spans in memory; thread-safe for appends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_of=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``attrs_of(args, kwargs, result)`` returns the span's counters.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = self.clock()
        result = done = None
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = self.clock()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of and done else {}
            self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                   start, end, attrs))


# ---------------------------------------------------------------- arithmetic

def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanSummary:
    """Busy time, self time and call counts per span name."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def _outermost(self, name):
        out = []
        for s in self.named(name):
            p = self.by_id.get(s.parent)
            while p is not None and p.name != name:
                p = self.by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def busy(self, name, keep=None):
        """Summed duration of ``name`` spans not nested in another ``name`` span,
        optionally only those for which ``keep(span)`` holds.

        Spans on different threads add up, so busy time can exceed wall time.
        """
        return sum(s.duration for s in self._outermost(name) if keep is None or keep(s))

    def self_time(self, name):
        """Summed duration of ``name`` spans minus the part their children cover."""
        total = 0.0
        for s in self.named(name):
            kids = [(c.start, c.end) for c in self.children[s.id]]
            total += s.duration - _covered(kids, s.start, s.end)
        return total

    def calls(self, name):
        return len(self.named(name))

    def attr_sum(self, name, key):
        return sum(s.attrs.get(key, 0) for s in self.named(name))

    def attr_max(self, name, key):
        return max((s.attrs.get(key, 0) for s in self.named(name)), default=0)


def ratio(part, whole):
    """``part / whole`` for fraction metrics; an empty base is an error."""
    if whole <= 0:
        raise ValueError("fraction of an empty base")
    return part / whole


# ------------------------------------------------------------- instrumenting

class Probes:
    """Installs span-recording wrappers and restores the originals on close."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def function(self, module, attr, name, attrs_of=None):
        """Wrap ``module.attr`` wherever an ``orthantwalks`` module binds it.

        ``name`` is a span name or a callable ``(args, kwargs) -> name | None``;
        ``None`` calls through without a span.
        """
        original = getattr(module, attr)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if span is None:
                return original(*args, **kwargs)
            return tracer.call(span, original, args, kwargs, attrs_of)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "orthantwalks" or n.startswith("orthantwalks.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        return wrapper

    def method(self, cls, attrs, name):
        """Wrap one function bound under several class attributes (e.g. __mul__, __rmul__)."""
        original = getattr(cls, attrs[0])
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs)

        wrapper.__wrapped__ = original
        for attr in attrs:
            if cls.__dict__.get(attr) is original:
                self._set(cls, attr, wrapper)

    def attribute(self, owner, attr, value):
        self._set(owner, attr, value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
