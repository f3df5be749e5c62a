"""Lightweight span tracing with a ring-buffer JSONL exporter.

A *span* is one timed operation — a solve, a controller decision, a
fallback rung, a routing pick — opened as a context manager:

>>> tracer = Tracer()
>>> with tracer.span("solve", n=7, method="kkt") as sp:
...     sp.note(iterations=42)

Spans nest: the tracer keeps an open-span stack, so a span opened while
another is active records that span as its parent.  Timings come from
``time.perf_counter()`` (monotonic; wall-clock jumps cannot produce
negative durations) and are stored relative to the tracer's epoch so
traces from one process share a common timeline.

Completed spans land in a bounded ring buffer (chaos runs can open one
span per arrival; memory must not grow with the horizon).  The exporter
writes JSON-lines — one span object per line — which ``jq``, pandas,
and the CI artifact viewer all consume without adapters:

``{"span": ..., "id": ..., "parent": ..., "t0": ..., "dur": ...,
"attrs": {...}}``

Buffer order is *completion* order: a child closes before its parent,
so children precede their parent on disk and consumers rebuild the tree
from the ``parent`` ids, not from line order.

:class:`NullTracer` is the disabled stand-in: ``span()`` hands back one
shared inert context manager, so an instrumented-but-disabled hot path
pays a single attribute call per span site.
"""

from __future__ import annotations

import json
import time
from typing import IO, Iterator

from .registry import ObsError

__all__ = ["Span", "Tracer", "NullSpan", "NullTracer", "NULL_SPAN"]


class Span:
    """One open (then completed) traced operation.

    Created by :meth:`Tracer.span` — not directly.  Inside the ``with``
    block, :meth:`note` attaches result attributes (iteration counts,
    cache verdicts) that are only known once the work is done.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_tracer", "_t0")

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int, parent_id: int | None, attrs: dict
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self._tracer = tracer
        self._t0 = 0.0

    def note(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self, self._t0, end - self._t0)


class Tracer:
    """Span factory, open-span stack, and completed-span ring buffer.

    Parameters
    ----------
    capacity:
        Maximum retained completed spans; older spans are evicted (and
        counted in :attr:`dropped`) once the buffer is full.
    """

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ObsError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: Completed spans evicted from the ring buffer so far.
        self.dropped = 0
        self._epoch = time.perf_counter()
        self._records: list[tuple[Span, float, float]] = []
        self._head = 0  # ring-buffer write position once full
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str, **attrs) -> Span:
        """Open a span; use as a context manager."""
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, name, self._next_id, parent, attrs)

    def _finish(self, span: Span, t0: float, duration: float) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misnested exit; drop up to the span
            while self._stack:
                if self._stack.pop() is span:
                    break
        # Stored raw: the record dict is built only when read.
        entry = (span, t0, duration)
        if len(self._records) < self.capacity:
            self._records.append(entry)
        else:
            self._records[self._head] = entry
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    @property
    def open_depth(self) -> int:
        """How many spans are currently open (nesting depth)."""
        return len(self._stack)

    @property
    def records(self) -> tuple[dict, ...]:
        """Completed spans, oldest retained first."""
        epoch = self._epoch
        return tuple(
            {
                "span": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "t0": t0 - epoch,
                "dur": duration,
                "attrs": span.attrs,
            }
            for span, t0, duration in self._records[self._head :]
            + self._records[: self._head]
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)

    def of_name(self, name: str) -> tuple[dict, ...]:
        """Retained spans with one name, oldest first."""
        return tuple(r for r in self.records if r["span"] == name)

    def clear(self) -> None:
        """Drop all retained spans (open spans are unaffected)."""
        self._records.clear()
        self._head = 0
        self.dropped = 0

    def dump_jsonl(self, fh: IO[str]) -> int:
        """Write retained spans as JSON-lines; returns the line count."""
        n = 0
        for record in self.records:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
            n += 1
        return n

    def export_jsonl(self, path: str) -> int:
        """Write retained spans to ``path`` as JSONL; returns line count."""
        with open(path, "w", encoding="utf-8") as fh:
            return self.dump_jsonl(fh)


class NullSpan:
    """Inert span: context manager and ``note`` are no-ops."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    span_id = 0
    parent_id = None

    def note(self, **attrs) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()


class NullTracer:
    """Disabled tracer: every ``span()`` is the shared :data:`NULL_SPAN`."""

    enabled = False
    capacity = 0
    dropped = 0
    open_depth = 0
    records: tuple = ()

    def span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[dict]:
        return iter(())

    def of_name(self, name: str) -> tuple:
        return ()

    def clear(self) -> None:
        pass

    def dump_jsonl(self, fh: IO[str]) -> int:
        return 0

    def export_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8"):
            return 0


NULL_TRACER = NullTracer()
