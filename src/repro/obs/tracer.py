"""Hierarchical span tracing.

A :class:`Span` records one timed operation: a name, free-form
attributes, a parent link, the *real* wall-clock duration
(``time.perf_counter``) and the *simulated* duration (seconds of
FEAM's scheduler-visible work, accrued from the
:class:`~repro.core.config.FeamConfig` timing model by the
instrumentation that owns the span).  Spans nest through a per-thread
stack, so instrumented code never passes span objects around; code
that hands work to another thread passes ``parent=`` explicitly (the
new thread's stack starts empty).

Two tracer implementations share the interface:

* :class:`Tracer` -- the in-memory collector: finished spans accumulate
  on ``tracer.spans`` (lock-protected, finish order) for the exporters
  in :mod:`repro.obs.export`;
* :class:`NullTracer` -- the default when no collector is installed.
  ``span()`` hands back one shared, stateless context manager; the
  whole instrumentation layer costs a dict build and two method calls
  per span (bounded by the micro-benchmark in
  ``tests/test_obs_tracer.py``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Optional


@dataclasses.dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    name: str
    span_id: int
    parent_id: Optional[int]
    attrs: dict
    start_wall: float
    #: Real elapsed seconds (perf_counter), set when the span exits.
    wall_seconds: Optional[float] = None
    #: Simulated seconds of FEAM work attributed to this span.
    sim_seconds: float = 0.0
    thread: str = ""
    status: str = "ok"

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def add_sim_seconds(self, seconds: float) -> None:
        self.sim_seconds += seconds


class _NullSpan:
    """The shared do-nothing span/context-manager."""

    __slots__ = ()

    def set_attrs(self, **attrs) -> None:
        pass

    def add_sim_seconds(self, seconds: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-collector default: every span is the shared null span."""

    enabled = False

    def span(self, name: str, parent: Optional[Span] = None,
             **attrs) -> _NullSpan:
        return NULL_SPAN

    def current_span(self) -> None:
        return None

    def snapshot(self) -> list:
        return []

    def discard_subtrees(self, is_root) -> int:
        return 0


class _ActiveSpan:
    """Context manager that opens/closes one real span."""

    __slots__ = ("_tracer", "_parent", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 parent: Optional[Span], attrs: dict) -> None:
        self._tracer = tracer
        self._parent = parent
        self._span = Span(
            name=name, span_id=0, parent_id=None, attrs=attrs,
            start_wall=0.0, thread=threading.current_thread().name)

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        stack = tracer._stack()
        if self._parent is not None:
            span.parent_id = self._parent.span_id
        elif stack:
            span.parent_id = stack[-1].span_id
        with tracer._lock:
            tracer._next_id += 1
            span.span_id = tracer._next_id
        span.start_wall = tracer._clock()
        stack.append(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = self._span
        span.wall_seconds = tracer._clock() - span.start_wall
        if exc_type is not None:
            span.status = "error"
            span.attrs.setdefault("error", repr(exc))
        stack = tracer._stack()
        while stack:
            if stack.pop() is span:
                break
        with tracer._lock:
            tracer.spans.append(span)
        return False


class Tracer:
    """The collecting tracer: spans nest per thread, finish into a list."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        #: Finished spans, in finish order (children before parents).
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, parent: Optional[Span] = None,
             **attrs) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("name", k=v) as sp:``.

        *parent* overrides the per-thread nesting -- required when the
        span logically belongs under a span opened in another thread.
        """
        return _ActiveSpan(self, name, parent, attrs)

    def spans_named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def snapshot(self) -> list[Span]:
        """A consistent copy of the finished spans (safe while
        instrumented code is still appending from other threads)."""
        with self._lock:
            return list(self.spans)

    def discard_subtrees(self, is_root) -> int:
        """Drop every finished span for which *is_root* is true, plus
        all of its finished descendants; returns how many were removed.

        The tail sampler's eviction path: spans finish children-first,
        so one reverse pass sees every parent before its children and
        membership propagates transitively.  In-flight spans are
        untouched (they are not in the list yet); call this only once
        the subtrees being dropped have fully finished.
        """
        with self._lock:
            dropped_ids: set[int] = set()
            kept: list[Span] = []
            for span in reversed(self.spans):
                if is_root(span) or span.parent_id in dropped_ids:
                    dropped_ids.add(span.span_id)
                else:
                    kept.append(span)
            removed = len(self.spans) - len(kept)
            if removed:
                kept.reverse()
                self.spans[:] = kept
            return removed
