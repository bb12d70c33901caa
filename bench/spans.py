"""In-memory span recording and the arithmetic over recorded spans.

A span is one timed call: its name, start and end on ``time.perf_counter``,
the index of the span that was open when it started (its parent, -1 for none)
and a dict of counts attached to it.  Spans are appended in start order, so
a parent always has a smaller index than its children.  Nothing is written
until the caller asks for ``to_json``.
"""

import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; ``open`` returns a handle that ``close`` takes."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent, attrs))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self._clock()

    def count(self, key, amount=1):
        """Add ``amount`` to counter ``key`` of the innermost open span."""
        if not self._stack:
            return
        span = self.spans[self._stack[-1]]
        if span.attrs is None:
            span.attrs = {}
        span.attrs[key] = span.attrs.get(key, 0) + amount

    def to_json(self):
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]


class NullTracer:
    """Stands in for a Tracer when tracing is off: records nothing."""

    def open(self, name, attrs=None):
        return -1

    def close(self, idx):
        pass


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [s.duration - covered(s.start, s.end,
                                 [(spans[c].start, spans[c].end) for c in children[i]])
            for i, s in enumerate(spans)]


def nearest(spans, predicate):
    """For each span, the index of the nearest enclosing span (itself
    included) that satisfies ``predicate``, or -1."""
    out = []
    for i, s in enumerate(spans):
        if predicate(s):
            out.append(i)
        elif s.parent >= 0:
            out.append(out[s.parent])
        else:
            out.append(-1)
    return out
