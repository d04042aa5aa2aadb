"""Spans, counters and the arithmetic the benchmark reports from them.

A span is one timed call into a layer: name, thread, start, end and the
span that caused it. Spans are recorded from the benchmark's own code by
replacing a module attribute (the name a caller looks up) with a timing
wrapper, so nothing in the package itself changes. A span opened on a
thread that has no open span of its own (a pool worker) gets the
innermost open span of the thread that created the tracer as its parent:
that is the call which started the pool.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters from any thread; the wrappers it
    installs stay until restore()."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if (main and stack is not main) else None
        sid = next(self._ids)
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            # list.append is atomic, so worker threads need no lock here.
            self.spans.append(Span(sid, name, threading.get_ident(), start,
                                   end, parent))

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # -- attribute wrapping ----------------------------------------------

    def replace(self, owner, attr: str, make) -> bool:
        """Set owner.attr = make(original); False (and noted) if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))
        return True

    def wrap(self, owner, attr: str, name: str, after=None) -> bool:
        """Record a span called name around every call of owner.attr.

        after(fn, args, kwargs, dur), if given, runs once a call has
        returned, to record counters from its arguments.
        """
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if after is None:
                    return self.call(name, fn, *args, **kwargs)
                start = self.clock()
                out = self.call(name, fn, *args, **kwargs)
                after(fn, args, kwargs, self.clock() - start)
                return out
            return traced
        return self.replace(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Layer:
    """Calls, total time and self time of the spans with one name."""
    calls: int = 0
    total: float = 0.0
    self: float = 0.0


def summarize(spans) -> dict[str, Layer]:
    """Per span name: calls, total time and self time.

    A span's self time is its duration minus the part of its interval
    that its direct children cover; children on two threads that overlap
    in time are counted once.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out: dict[str, Layer] = {}
    for s in spans:
        layer = out.setdefault(s.name, Layer())
        layer.calls += 1
        layer.total += s.dur
        layer.self += s.dur - union_length(children.get(s.id, ()))
    return out


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def median(values) -> float:
    return percentile(values, 50.0)
