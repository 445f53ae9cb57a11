"""In-memory spans around the benchmark's calls into each layer.

A span records a name, start, end, its parent span and a run id. Spans
are kept in a list and written out once, when the benchmark ends. With
tracing off, ``span`` returns a shared no-op context manager, so the
untraced run pays one attribute lookup and one call per span.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool, run: str = "run"):
        self.enabled = enabled
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._open(name)

    @contextlib.contextmanager
    def _open(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Children of one span never overlap: everything runs on one thread."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def total(self, name: str, run: str | None = None) -> float | None:
        """Summed duration of the spans called ``name``; None if there are none."""
        found = [s.duration for s in self.spans if s.name == name and run in (None, s.run)]
        return sum(found) if found else None

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        rows = [dict(asdict(s), self_s=t) for s, t in zip(self.spans, selfs)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
