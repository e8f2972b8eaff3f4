"""In-memory spans recorded around calls into the compiler's modules.

A Tracer patches public functions under the name their caller looks up
(for example translate.parse_forms, not sexpr.parse_forms, because translate
imported the name).  Each call becomes a span: name, start, end, parent, op
id, thread, and counts taken from its arguments or result.  Spans stay in
memory until the run ends; self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._op = None
        # parent for spans opened on a thread with no open span of its own,
        # such as prover jobs in the harness's worker pool
        self._fallback = None
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, counts: dict | None = None, pool_parent: bool = False):
        """Record one span; yields its counts dict so the caller can add to it."""
        stack = self._stack()
        parent = stack[-1] if stack else self._fallback
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, 0.0, 0.0, parent, self._op, threading.get_ident(), counts or {})
        stack.append(sid)
        saved = self._fallback
        if pool_parent:
            self._fallback = sid
        span.start = time.perf_counter()
        try:
            yield span.counts
        finally:
            span.end = time.perf_counter()
            self._fallback = saved
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; nested spans share its id."""
        with self._lock:
            self._op = self._next  # the id the root span is about to get
        try:
            with self.span("op." + kind) as counts:
                yield counts
        finally:
            self._op = None

    def patch(self, owner, attr: str, name: str, count=None, pool_parent: bool = False):
        """Replace owner.attr by a wrapper that records a span per call.

        count(result, args, kwargs) returns extra counts for the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, pool_parent=pool_parent) as counts:
                result = original(*args, **kwargs)
                if count is not None:
                    counts.update(count(result, args, kwargs))
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def patched(self, install):
        """install(self) patches; everything is restored on exit."""
        install(self)
        try:
            yield self
        finally:
            self.unpatch()

    def write_jsonl(self, path: str, selfs: dict) -> None:
        """One JSON object per span, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {
                    "id": s.sid,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "thread": s.thread,
                    "self": selfs[s.sid],
                }
                rec.update(s.counts)
                fh.write(json.dumps(rec) + "\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.dur - _covered(s.start, s.end, children.get(s.sid, ())) for s in spans}

