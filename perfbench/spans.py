"""In-memory span recorder for the traced benchmark runs.

A span is (name, start, end, parent, query id). Spans are opened either
explicitly around a call the benchmark makes, or by temporarily replacing
a public module attribute of arbac with a wrapper that opens a span around
every call through that name. Nothing under ``src/`` is edited: the
wrappers are installed from here and removed when the traced phase ends.

Self time is a span's duration minus the time covered by its children.
Everything runs in one thread, so children of one span never overlap and
their durations simply add up.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.query)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapped(self, boundaries):
        """Route every call through ``module.attr`` into a span named
        ``name`` for each ``(module, attr, name)`` in ``boundaries``."""
        saved = []
        try:
            for module, attr, name in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def top_level_total(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def dump(self, phase: str) -> list[dict]:
        return [
            {
                "phase": phase,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "query": s.query,
            }
            for s in self.spans
        ]
