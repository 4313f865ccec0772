"""Causal span tracing across planes.

A span is one timed unit of work — an edge batch send, a gateway seal,
an inference phase, a serving scatter-gather round — tagged with the
plane it ran on and correlated across processes by the *existing*
identifiers the data plane already carries (per-link envelope ``seq``
numbers, request ids, window boundaries). Nothing is added to the wire
format: correlation keys ride as span attributes only, so envelope
bytes and the Table 5 ledger kinds are untouched by tracing.

Parentage within a process is tracked on a thread-local stack (the
threaded transport runs one site per thread), so nested ``span()``
blocks produce a causal tree without any explicit context plumbing.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable


class _NullSpan:
    """Shared no-op context manager returned when telemetry is off —
    zero allocation on the disabled path."""

    __slots__ = ()
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "plane", "name", "span_id", "parent_id", "attrs", "t0")

    def __init__(
        self,
        tracer: "Tracer",
        plane: str,
        name: str,
        parent_id: int,
        attrs: dict,
    ):
        self.tracer = tracer
        self.plane = plane
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id = parent_id
        self.attrs = attrs
        self.t0 = 0.0

    def set(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self.tracer._stack().append(self.span_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        duration = time.perf_counter() - self.t0
        stack = self.tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self.tracer._finish(self, duration)


class Tracer:
    """Produces spans and hands the finished records to a sink
    (normally the telemetry flight recorder)."""

    def __init__(self, sink: Callable[[dict], None]):
        self._sink = sink
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def span(self, plane: str, name: str, **attrs: object) -> _Span:
        return _Span(self, plane, name, self.current_id(), attrs)

    def fork(self, namespace: int) -> None:
        """Restart span ids in ``namespace`` and drop the span stack.

        A forked child process inherits the parent's id counter and
        open-span stack; without a fresh namespace its spans would reuse
        the parent's (and its siblings') ids, and its first spans would
        claim a parent that never ran in this process."""
        self._ids = itertools.count((namespace << 32) + 1)
        self._local = threading.local()

    def _finish(self, span: _Span, duration: float) -> None:
        entry: dict = {
            "type": "span",
            "plane": span.plane,
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "duration": duration,
        }
        entry.update(span.attrs)
        self._sink(entry)
