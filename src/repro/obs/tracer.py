"""Nested tracing spans with wall-clock and CPU time.

A :class:`Tracer` records a tree of :class:`Span` objects — phase spans
(``partition`` / ``sort`` / ``join``) with sub-step children
(``partition:A``, ``sort:s3j-0-A-L5-sorted``, ``sync-scan``...).  Each
span captures real wall-clock and process-CPU time; the phase helpers
additionally attach the *simulated* seconds of the cost model, so one
trace shows both the modeled 1997 testbed and the Python wall-clock
that actually elapsed (the two must never be conflated — see DESIGN.md
section 8).

Exports:

- :meth:`Tracer.to_dicts` — the nested span tree as plain dicts;
- :meth:`Tracer.to_jsonl` — one JSON object per span (flat, with
  ``id``/``parent`` references), grep-friendly;
- :meth:`Tracer.to_chrome_trace` — the Chrome trace-event format;
  load the file at ``chrome://tracing`` or https://ui.perfetto.dev.

The default tracer everywhere is :data:`NULL_TRACER`: opening a span
costs one method call returning a shared no-op context manager, and no
span objects are ever allocated.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterator


class Span:
    """One timed region; ``attrs`` carries arbitrary JSON-ready data."""

    __slots__ = ("name", "start_s", "wall_s", "cpu_s", "attrs", "children")

    def __init__(self, name: str, start_s: float, attrs: dict[str, Any]) -> None:
        self.name = name
        self.start_s = start_s  # offset from the tracer's epoch
        self.wall_s: float = 0.0
        self.cpu_s: float = 0.0
        self.attrs = attrs
        self.children: list[Span] = []

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (no-op on the null span)."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Span:
        span = cls(data["name"], data["start_s"], dict(data["attrs"]))
        span.wall_s = data["wall_s"]
        span.cpu_s = data["cpu_s"]
        span.children = [cls.from_dict(child) for child in data["children"]]
        return span

    def __repr__(self) -> str:
        return f"Span({self.name!r}, wall={self.wall_s:.4f}s, children={len(self.children)})"


class _SpanContext:
    """Context manager driving one span's lifetime."""

    __slots__ = ("_tracer", "_span", "_t0_wall", "_t0_cpu")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        # Anchor the wall clock at the span's creation stamp (start_s)
        # rather than a fresh perf_counter() read: a span's end is then
        # exactly ``start_s + wall_s`` on the tracer's timeline, so
        # children always nest inside their parents in exports.
        self._t0_wall = self._tracer._epoch + self._span.start_s
        self._t0_cpu = time.process_time()
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        span = self._span
        span.wall_s = time.perf_counter() - self._t0_wall
        span.cpu_s = time.process_time() - self._t0_cpu
        self._tracer._pop(span)


class Tracer:
    """Collects a forest of nested spans for one run."""

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of the innermost open span::

            with tracer.span("sort", kind="phase") as span:
                ...
                span.set(runs=3)
        """
        span = Span(name, time.perf_counter() - self._epoch, attrs)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()

    # -- export ---------------------------------------------------------

    def _walk(self) -> Iterator[tuple[Span, int | None, int]]:
        """Depth-first (span, parent id, own id); ids are stable
        preorder indices."""
        next_id = 0
        stack: list[tuple[Span, int | None]] = [
            (span, None) for span in reversed(self.roots)
        ]
        while stack:
            span, parent = stack.pop()
            own = next_id
            next_id += 1
            yield span, parent, own
            for child in reversed(span.children):
                stack.append((child, own))

    def to_dicts(self) -> list[dict[str, Any]]:
        """The span forest as nested plain dicts."""
        return [span.to_dict() for span in self.roots]

    def to_jsonl(self) -> str:
        """One JSON object per span, flattened with id/parent links."""
        lines = []
        for span, parent, own in self._walk():
            lines.append(
                json.dumps(
                    {
                        "id": own,
                        "parent": parent,
                        "name": span.name,
                        "start_s": round(span.start_s, 9),
                        "wall_s": round(span.wall_s, 9),
                        "cpu_s": round(span.cpu_s, 9),
                        "attrs": span.attrs,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-event format (``chrome://tracing``).

        Spans become complete ("ph": "X") events with microsecond
        timestamps on one thread; span attributes ride along in
        ``args``.
        """
        events: list[dict[str, Any]] = []

        def walk(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "cat": str(span.attrs.get("kind", "span")),
                    "ph": "X",
                    "ts": round(span.start_s * 1e6, 3),
                    "dur": round(span.wall_s * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {**span.attrs, "cpu_s": round(span.cpu_s, 9)},
                }
            )
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _NullSpan(Span):
    """The shared do-nothing span; mutators are inert."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", 0.0, {})

    def set(self, **attrs: Any) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        pass


class NullTracer(Tracer):
    """The do-nothing tracer: ``span()`` returns a shared context
    manager and allocates nothing."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        return _NULL_SPAN_CONTEXT  # type: ignore[return-value]


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
"""Shared no-op tracer (safe: it never stores anything)."""
