"""Structured telemetry: spans, counters, gauges and histograms, one sink.

The substrate spans processes and machines (engine -> staged pipeline ->
two-tier store -> coordinator/worker fleet -> artifact mesh); this package
is the observability plane those layers share:

* instrumented seams record **spans** (monotonic start + duration,
  hierarchical parent ids per thread), **events** (point-in-time facts),
  **counters**, **gauges** and **histograms** on the process-global sink
  they read with :func:`get_sink`;
* the default sink is :data:`NULL_SINK`, whose every operation is a no-op
  method call on a shared singleton — instrumented code pays essentially
  nothing until something opts in;
* :class:`JsonlSink` is the one recording sink, and :class:`Span` the one
  timed span.  Every metric lands in its
  :class:`~repro.telemetry.live.MetricsRegistry` (what ``/metrics`` and
  ``/status`` render; each span feeds a ``{name}.seconds`` histogram).
  Given a run directory it also writes bounded newline-delimited JSON, one
  file per process; with **no directory** it is registry only.  Past
  ``max_events``, or after a failed write (a full disk), records are
  counted as ``dropped``, never written — and the run carries on;
* :func:`recording` is the one way a run installs a sink, for the length of
  a ``with`` block;
* a run with a durable directory (a checkpoint dir, a ``serve
  --state-dir``) records those files under ``DIR/telemetry``, and
  ``python -m repro.campaign report DIR`` renders the per-stage time
  breakdown, cache-tier hit ratios over time and the worker utilization
  table from them after the results tables; ``--chrome-trace out.json``
  exports every span in Chrome/Perfetto trace-event format (the tables are
  :mod:`repro.telemetry.report`).

The hard invariant: telemetry *observes*, it never participates.  Nothing a
sink records flows back into fingerprints, checkpoints or recorded results,
and nothing a sink fails at reaches the code it observes, so a campaign is
bit-for-bit identical with telemetry on, off, or broken.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.telemetry.live import BUCKET_BOUNDS, Histogram, MetricsRegistry

logger = logging.getLogger("repro.telemetry")

SCHEMA_VERSION = 1

#: Default cap on records written per sink (meta and the final metrics
#: snapshot are exempt — they are the lines that make a truncated log
#: interpretable).
DEFAULT_MAX_EVENTS = 200_000

#: Buffered records per flush: one ``os.write`` per this many events keeps
#: the append atomic (whole lines only) without a syscall per span.
FLUSH_EVERY = 128


class NullSpan:
    """The shared no-op span: reentrant, stateless, free to hand out."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = NullSpan()


class NullSink:
    """The zero-cost default: every operation is a no-op method call."""

    enabled = False

    def span(self, name: str, **attrs) -> NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def incr(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counters(self) -> Dict[str, float]:
        return {}

    def metrics_snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_SINK = NullSink()


class Span:
    """One timed operation: enters the thread's span stack, records on exit.

    ``set`` attaches attributes discovered *during* the operation (a cache
    tier, an outcome count) — they land in the record alongside the attrs
    the span was opened with.  Exceptions mark the span (``error``) and
    propagate untouched.
    """

    __slots__ = ("_sink", "name", "attrs", "_started", "span_id", "parent_id")

    def __init__(self, sink: "JsonlSink", name: str, attrs: Dict[str, object]) -> None:
        self._sink = sink
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._sink._span_stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(self._sink._span_ids)
        stack.append(self.span_id)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._started
        stack = self._sink._span_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._sink._record_span(self, duration)
        return False


class JsonlSink:
    """The recording sink: a metrics registry, plus one bounded JSONL file
    per process when given a run directory.

    With a ``directory`` the file is ``{label}-{pid}.jsonl`` under it; a
    ``meta`` record written at open carries the pid, host and the wall-clock
    epoch every monotonic timestamp in the file is relative to, so a reader
    can place events from many processes on one timeline, and ``close``
    flushes the buffer and appends a ``metrics`` snapshot of the registry
    (plus the dropped-record count).  With no directory (``path is None``)
    the sink is registry only: spans still nest and feed their histograms,
    but no record is built and nothing touches disk.  Writing is best
    effort: see :meth:`_write_lines`; ``close`` never raises.
    """

    enabled = True

    def __init__(
        self,
        directory=None,
        label: str = "events",
        max_events: int = DEFAULT_MAX_EVENTS,
        flush_every: int = FLUSH_EVERY,
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.label = label
        self.max_events = max_events
        self.dropped = 0
        self._flush_every = max(1, flush_every)
        self._written = 0
        self._buffer: list = []
        self._lock = threading.Lock()
        #: Counters, gauges and histograms live in the shared registry (its
        #: own lock), so the live observability server can snapshot metrics
        #: without contending on the append buffer.
        self._registry = MetricsRegistry()
        self._span_ids = itertools.count(1)
        self._locals = threading.local()
        self._closed = False
        self._failed = False
        # The wall-clock epoch is recorded once; every event timestamp is
        # perf_counter-relative to it, immune to clock steps mid-run.
        self._wall_epoch = time.time()
        self._perf_epoch = time.perf_counter()
        self.path: Optional[Path] = None
        if directory is None:
            return
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / f"{label}-{os.getpid()}.jsonl"
        self._fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._write_lines([{
            "type": "meta",
            "version": SCHEMA_VERSION,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "label": label,
            "wall_epoch": self._wall_epoch,
        }])

    # -- recording --------------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._perf_epoch

    def _span_stack(self) -> list:
        stack = getattr(self._locals, "stack", None)
        if stack is None:
            stack = self._locals.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _record_span(self, span: Span, duration: float) -> None:
        # Span durations are the latency seams worth percentiles
        # (stage.compile, coordinator.rpc, worker.batch, ...): every span
        # feeds a `{name}.seconds` histogram, so /metrics serves live
        # quantiles without a second timer at each call site.
        self._registry.observe(f"{span.name}.seconds", duration)
        if self.path is None:
            return
        record = {
            "type": "span",
            "name": span.name,
            "ts": round(span._started - self._perf_epoch, 6),
            "dur": round(duration, 6),
            "id": span.span_id,
            "tid": threading.get_ident(),
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        if span.attrs:
            record["attrs"] = span.attrs
        self._append(record)

    def event(self, name: str, **attrs) -> None:
        if self.path is None:
            return
        record = {
            "type": "event",
            "name": name,
            "ts": round(self._now(), 6),
            "tid": threading.get_ident(),
        }
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    def incr(self, name: str, value: int = 1) -> None:
        """Registry-only counter bump: cheap enough for per-lookup seams."""
        self._registry.incr(name, value)

    def gauge(self, name: str, value: float) -> None:
        self._registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the named log-bucketed histogram."""
        self._registry.observe(name, value)

    def counters(self) -> Dict[str, float]:
        return self._registry.counters()

    def metrics_snapshot(self) -> Dict[str, object]:
        """Counters, gauges and histogram snapshots for ``/metrics``."""
        return self._registry.snapshot()

    # -- the bounded buffer -----------------------------------------------------------

    def _append(self, record: Dict[str, object]) -> None:
        with self._lock:
            if self._closed:
                return
            if self._failed or self._written + len(self._buffer) >= self.max_events:
                self.dropped += 1
                return
            self._buffer.append(record)
            if len(self._buffer) >= self._flush_every:
                self._flush_locked()

    def _write_lines(self, records) -> bool:
        """Serialize ``records`` and append them in one ``os.write``; returns
        whether they landed.

        A single write to an ``O_APPEND`` descriptor lands at the file's
        end atomically, so sinks in different processes sharing one
        directory (or one inherited file) never interleave partial lines.
        Never raises: a full disk must cost the log, not the run, so the
        first failed or short write stops the file for good (one warning;
        callers count what follows as dropped) while the registry goes on.
        """
        if not records:
            return True
        if self._failed:
            return False
        data = "".join(
            json.dumps(record, separators=(",", ":"), default=str) + "\n"
            for record in records
        ).encode()
        try:
            written = os.write(self._fd, data)
            if written == len(data):
                return True
            problem = f"short write, {written} of {len(data)} bytes"
        except OSError as exc:
            problem = str(exc)
        self._failed = True
        logger.warning("telemetry write to %s failed (%s): recording stops, later "
                       "records count as dropped, the run continues", self.path, problem)
        return False

    def _flush_locked(self) -> None:
        buffer, self._buffer = self._buffer, []
        if self._write_lines(buffer):
            self._written += len(buffer)
        else:
            self.dropped += len(buffer)

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def close(self) -> None:
        """Flush, append the metrics snapshot, release the descriptor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.path is None:
                return
            self._flush_locked()
            registry = self._registry.snapshot()
            self._write_lines([{
                "type": "metrics",
                "ts": round(self._now(), 6),
                "counters": registry["counters"],
                "gauges": registry["gauges"],
                "histograms": registry["histograms"],
                "events": self._written,
                "dropped": self.dropped,
            }])
            try:
                os.close(self._fd)
            except OSError:
                pass  # nothing left to lose: every line was already attempted

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The process-global sink
# ---------------------------------------------------------------------------
#
# Instrumented seams read the sink at call time via get_sink(), so a
# campaign installing a JsonlSink lights up every layer below it — engine,
# stages, caches, coordinator — without threading a sink argument through
# each constructor.  The default is the null sink; nothing writes until
# something opts in, and everything that opts in does so through
# recording().

_SINK_LOCK = threading.Lock()
_SINK: NullSink = NULL_SINK


def get_sink():
    """The process-global sink (the null sink unless one was installed)."""
    return _SINK


def set_sink(sink) -> object:
    """Install ``sink`` (``None`` restores the null sink); returns the
    previous sink so callers can restore it in a ``finally``."""
    global _SINK
    with _SINK_LOCK:
        previous = _SINK
        _SINK = sink if sink is not None else NULL_SINK
        return previous


class Counters:
    """A component's named integer counters, each mirrored on the sink.

    :meth:`incr` adds to this instance's value under its own leaf lock, then
    to the process-global sink's ``{prefix}.{name}`` counter outside it, so a
    component's :meth:`snapshot` (its ``stats()``) and ``/metrics`` count the
    same events under the same names.  The instance value is one
    component's view; the sink's is the sum over the process.
    """

    __slots__ = ("_values", "_sink_names", "_lock")

    def __init__(self, prefix: str, *names: str) -> None:
        self._values = dict.fromkeys(names, 0)
        self._sink_names = {name: f"{prefix}.{name}" for name in names}
        self._lock = threading.Lock()

    def incr(self, name: str, n: int = 1) -> int:
        """Add ``n`` to ``name``; returns the instance's new value."""
        with self._lock:
            value = self._values[name] = self._values[name] + n
        get_sink().incr(self._sink_names[name], n)
        return value

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0.0 when ``whole`` is empty: every hit ratio's formula."""
    return part / whole if whole else 0.0


@contextlib.contextmanager
def recording(directory=None, label: str = "events") -> Iterator[JsonlSink]:
    """Record the ``with`` block: a fresh :class:`JsonlSink` (JSONL under
    ``directory``, or registry only without one) is the process-global sink
    inside it; on the way out the previous sink is back and this one closed."""
    sink = JsonlSink(directory, label=label)
    previous = set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)
        sink.close()


__all__ = [
    "BUCKET_BOUNDS",
    "Counters",
    "DEFAULT_MAX_EVENTS",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
    "SCHEMA_VERSION",
    "Span",
    "get_sink",
    "ratio",
    "recording",
    "set_sink",
]
