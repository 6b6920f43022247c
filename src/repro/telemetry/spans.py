"""Nested spans with Perfetto-compatible trace export.

A span brackets one unit of work (study batch, design evaluation, analysis,
solve).  Spans nest per thread -- the exporter emits Chrome/Perfetto
"complete" (``ph: "X"``) events keyed by pid/tid, so the trace viewer
reconstructs the nesting from time containment without explicit parent
links.  The buffer is bounded: beyond :data:`MAX_EVENTS` new events are
counted as dropped instead of growing without limit.

Use :func:`repro.telemetry.span` (which returns a shared null span when
telemetry is disabled) rather than instantiating :class:`Span` directly.
"""

from __future__ import annotations

import json
import os
import threading
import time

#: Hard cap on buffered trace events per process.
MAX_EVENTS = 200_000


class TraceBuffer:
    """A bounded, thread-safe buffer of Chrome-trace events."""

    def __init__(self, max_events: int = MAX_EVENTS):
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self.max_events = int(max_events)
        self.dropped = 0

    def add(self, event: dict) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def export(self, path) -> int:
        """Write a Perfetto/Chrome-trace JSON file; returns event count."""
        events = self.events()
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        if self.dropped:
            payload["metadata"] = {"dropped_events": self.dropped}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(events)


class Span:
    """One timed, named region; use as a context manager."""

    __slots__ = ("name", "args", "buffer", "_start_ns")

    def __init__(self, name: str, args: dict, buffer: TraceBuffer):
        self.name = name
        self.args = args
        self.buffer = buffer
        self._start_ns = 0

    def __enter__(self) -> "Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_ns = time.perf_counter_ns() - self._start_ns
        event = {"name": self.name, "ph": "X",
                 "ts": self._start_ns / 1000.0,
                 "dur": duration_ns / 1000.0,
                 "pid": os.getpid(), "tid": threading.get_ident()}
        if self.args:
            event["args"] = self.args
        self.buffer.add(event)
        return False


class NullSpan:
    """The disabled-mode span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()
