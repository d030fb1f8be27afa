"""The ledger's in-memory tracer.

A span is ``(name, start, end, parent)`` on one serial timeline; spans of one
run share the tracer's ``workload`` id.  Nothing is written while tracing:
:meth:`Tracer.chrome_trace` renders everything at exit.  The replay that
feeds this tracer is single-threaded, so the open-span stack is the parent
chain and children of one parent never overlap.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Records nested spans and counts for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- aggregation ------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: a span's duration minus the part
        of that interval its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                covered[span.parent] += max(
                    0.0, min(span.end, parent.end) - max(span.start, parent.start)
                )
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = (span.end - span.start) - covered[index]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def nesting_violations(self) -> List[str]:
        """Spans that start before or end after their parent (must be empty)."""
        problems = []
        for span in self.spans:
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                problems.append(f"{span.name} outlives its parent {parent.name}")
        return problems

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome-trace document (``chrome://tracing``)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "cat": self.workload,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": {"parent": span.parent, "workload": self.workload},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"workload": self.workload,
                              "counts": dict(self.counts)}}
