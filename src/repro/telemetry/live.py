"""Live metrics: histograms, the metrics registry and the campaign tail.

The JSONL half of the telemetry plane is post-hoc — records become readable
after the run.  This module makes the same sink readable *during* it:

* :class:`Histogram` — fixed log-spaced buckets shared by every histogram
  in the process, so snapshots taken on different machines merge
  bucket-for-bucket.  Latency seams (``stage.compile``, ``coordinator.rpc``,
  ``worker.batch``) and size seams (mesh transfer bytes) both fit in the
  common ``1e-6 .. 1e9`` span.  Quantiles are estimated by linear
  interpolation inside the target bucket — good to a bucket width (~78%
  relative), which is what operational p95s need.
* :class:`MetricsRegistry` — the thread-safe counter/gauge/histogram store
  behind :class:`repro.telemetry.JsonlSink`'s ``incr``/``gauge``/``observe``
  (a run that only wants live ``/metrics`` opens that sink with no directory).
* :func:`render_prometheus` — the text exposition format a Prometheus
  scraper parses from ``GET /metrics``.
* :func:`render_status` / :func:`tail` — the in-place refreshing progress
  view behind ``python -m repro.telemetry tail HOST:PORT`` and the campaign
  CLI's ``--live``.

This module imports only the stdlib, and only what recording needs:
``repro.telemetry`` imports *from* it in every process that touches a cache,
so the ``tail`` client's HTTP stack (``urllib.request`` -> ``http.client`` ->
``email``) is imported where :func:`fetch_status` runs, not here.
"""

from __future__ import annotations

import bisect
import json
import re
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "fetch_status",
    "merge_metric_snapshots",
    "render_prometheus",
    "render_status",
    "sanitize_metric_name",
    "tail",
]

#: Shared bucket upper bounds: four log-spaced buckets per decade from
#: 1e-6 to 1e9, plus an implicit +Inf overflow.  Every histogram uses the
#: same bounds, which is what makes snapshots from any process (worker,
#: coordinator, serial run) mergeable without resampling.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    float(f"{10.0 ** (exponent / 4.0):.6g}") for exponent in range(-24, 37)
)


class Histogram:
    """Counts over the fixed log-spaced buckets, plus an exact sum/count.

    ``observe`` is a bisect plus two adds — cheap enough for per-candidate
    seams.  Not thread-safe on its own; :class:`MetricsRegistry` serializes
    access.  ``snapshot``/``merge`` round-trip through a sparse dict so a
    worker can ship its batch-duration distribution inside a telemetry
    frame and the coordinator can fold it into the fleet-wide histogram.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self) -> None:
        # One slot per bound plus the +Inf overflow bucket.
        self.counts: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(BUCKET_BOUNDS, value)
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> Dict[str, object]:
        """Sparse, JSON-safe form: only non-empty buckets are listed."""
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(index): count
                for index, count in enumerate(self.counts)
                if count
            },
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) in."""
        if not isinstance(snapshot, dict):
            return
        buckets = snapshot.get("buckets")
        if isinstance(buckets, dict):
            for raw_index, raw_count in buckets.items():
                try:
                    index, count = int(raw_index), int(raw_count)
                except (TypeError, ValueError):
                    continue
                if 0 <= index < len(self.counts) and count > 0:
                    self.counts[index] += count
                    self.count += count
        try:
            self.sum += float(snapshot.get("sum", 0.0))
        except (TypeError, ValueError):
            pass

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "Histogram":
        histogram = cls()
        histogram.merge(snapshot)
        return histogram

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) by interpolating
        linearly inside the bucket the target rank falls in."""
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            cumulative += count
            if cumulative >= target:
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else BUCKET_BOUNDS[-1]
                )
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                # Position of the target rank inside this bucket.
                into = (target - (cumulative - count)) / count
                return lower + (upper - lower) * min(1.0, max(0.0, into))
        return BUCKET_BOUNDS[-1]

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6g})"


class MetricsRegistry:
    """The thread-safe counter/gauge/histogram store behind a sink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-safe dict carrying all three metric families."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.snapshot() for name, hist in self._histograms.items()
                },
            }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus name grammar
    (``stage.compile.seconds`` -> ``stage_compile_seconds``)."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return f"{bound:.6g}"


def merge_metric_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Fold registry snapshots (sink + extra sources) into one: counters
    add, gauges last-write-wins, histograms merge bucket-for-bucket.  A
    family that is not a dict (a malformed JSONL record) is skipped."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}

    def family(snapshot: Dict[str, object], key: str) -> Dict[str, object]:
        value = snapshot.get(key)
        return value if isinstance(value, dict) else {}

    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        for name, value in family(snapshot, "counters").items():
            try:
                counters[name] = counters.get(name, 0) + float(value)
            except (TypeError, ValueError):
                continue
        for name, value in family(snapshot, "gauges").items():
            try:
                gauges[name] = float(value)
            except (TypeError, ValueError):
                continue
        for name, hist_snapshot in family(snapshot, "histograms").items():
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = Histogram()
            histogram.merge(hist_snapshot)
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {name: hist.snapshot() for name, hist in histograms.items()},
    }


def percentile_table(histograms: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """``name -> {p50, p95, p99, count}`` for every non-empty histogram
    snapshot, in input order: the one percentile table behind ``/status``
    ``stages`` and ``report``'s latency rows."""
    table: Dict[str, Dict[str, float]] = {}
    for name, snapshot in histograms.items():
        histogram = Histogram.from_snapshot(snapshot)
        if histogram.count:
            table[name] = {**histogram.percentiles(), "count": histogram.count}
    return table


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Counters become ``<name>_total``, gauges keep their name, histograms
    expand into cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  Families are emitted name-sorted so successive scrapes
    diff cleanly.
    """
    lines: List[str] = []
    counters = snapshot.get("counters") or {}
    for name in sorted(counters):
        metric = sanitize_metric_name(name)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# HELP {metric} Counter {name!r} from the repro telemetry registry.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")
    gauges = snapshot.get("gauges") or {}
    for name in sorted(gauges):
        metric = sanitize_metric_name(name)
        lines.append(f"# HELP {metric} Gauge {name!r} from the repro telemetry registry.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    histograms = snapshot.get("histograms") or {}
    for name in sorted(histograms):
        metric = sanitize_metric_name(name)
        histogram = Histogram.from_snapshot(histograms[name])
        lines.append(f"# HELP {metric} Histogram {name!r} from the repro telemetry registry.")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for index, bound in enumerate(BUCKET_BOUNDS):
            cumulative += histogram.counts[index]
            lines.append(
                f'{metric}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {repr(float(histogram.sum))}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# The live tail
# ---------------------------------------------------------------------------


def fetch_status(url: str, timeout: float = 5.0) -> Dict[str, object]:
    """``GET`` the ``/status`` document; raises ``URLError`` on failure."""
    import urllib.request  # the HTTP stack loads with the client, not the sink

    with urllib.request.urlopen(url, timeout=timeout) as response:
        payload = json.loads(response.read().decode("utf-8", "replace"))
    if not isinstance(payload, dict):
        raise ValueError(f"{url} returned {type(payload).__name__}, expected a JSON object")
    return payload


def _format_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_status(
    status: Dict[str, object],
    previous: Optional[Dict[str, object]] = None,
    elapsed: Optional[float] = None,
) -> str:
    """Render one ``/status`` document as the multi-line progress view.

    ``previous``/``elapsed`` (the last poll and the seconds since it) turn
    the cumulative generation counter into a generations/sec rate.
    """
    lines: List[str] = []
    campaign = status.get("campaign")
    if isinstance(campaign, dict):
        parts = [f"campaign {campaign.get('name', '?')}:"]
        total = campaign.get("jobs_total")
        if total:
            parts.append(f"job {campaign.get('jobs_completed', 0)}/{total}")
        current = campaign.get("current")
        if isinstance(current, dict):
            parts.append(f"{current.get('family', '?')}/{current.get('program', '?')}")
            parts.append(f"gen {current.get('generation', 0)}")
            best = current.get("best_fitness")
            if isinstance(best, (int, float)):
                parts.append(f"best {best:.4f}")
        generations = campaign.get("generations_total")
        if (
            isinstance(generations, (int, float))
            and isinstance(previous, dict)
            and elapsed
        ):
            prev_campaign = previous.get("campaign")
            if isinstance(prev_campaign, dict):
                prev_generations = prev_campaign.get("generations_total")
                if isinstance(prev_generations, (int, float)) and elapsed > 0:
                    rate = (generations - prev_generations) / elapsed
                    parts.append(f"({rate:.2f} gen/s)")
        if campaign.get("state") == "finished":
            parts.append("[finished]")
        lines.append(" ".join(parts))
    stages = status.get("stages")
    if isinstance(stages, dict) and stages:
        parts = []
        for name in sorted(stages):
            row = stages[name]
            if not isinstance(row, dict) or not row.get("count"):
                continue
            p95 = row.get("p95")
            if isinstance(p95, (int, float)):
                parts.append(f"{name} p95 {_format_seconds(float(p95))}")
        if parts:
            lines.append("latency: " + "  ".join(parts))
    fleet = status.get("fleet")
    if isinstance(fleet, list):
        for row in fleet:
            if not isinstance(row, dict):
                continue
            health = str(row.get("health", "?"))
            marks = {"healthy": "+", "stale": "~", "lost": "x"}
            parts = [
                f"[{marks.get(health, '?')}]",
                f"worker {row.get('worker_id', '?')}",
                str(row.get("peer", "")),
                health,
            ]
            if row.get("straggler"):
                parts.append("STRAGGLER")
            batches = row.get("batches")
            if isinstance(batches, (int, float)):
                parts.append(f"batches {int(batches)}")
            busy = row.get("busy_ratio")
            if isinstance(busy, (int, float)):
                parts.append(f"busy {100.0 * float(busy):.0f}%")
            lines.append(" ".join(part for part in parts if part))
    if not lines:
        lines.append("(no status yet)")
    return "\n".join(lines)


class _InPlaceWriter:
    """Rewrites a block of lines in place on a terminal stream.

    Falls back to plain appends when the stream is not a TTY, so piping
    the tail to a file stays readable.
    """

    def __init__(self, stream) -> None:
        self.stream = stream
        self._last_lines = 0
        self._tty = bool(getattr(stream, "isatty", lambda: False)())

    def write(self, block: str) -> None:
        if self._tty and self._last_lines:
            # Move up over the previous block and clear each stale line.
            self.stream.write(f"\x1b[{self._last_lines}F\x1b[J")
        self.stream.write(block + "\n")
        self.stream.flush()
        self._last_lines = block.count("\n") + 1


def tail(
    address: str,
    interval: float = 1.0,
    stream=None,
    stop: Optional[threading.Event] = None,
    max_polls: Optional[int] = None,
    fetch: Callable[[str], Dict[str, object]] = fetch_status,
) -> int:
    """Poll ``/status`` at ``address`` (``HOST:PORT`` or a full URL) and
    render the in-place progress view until the server goes away.

    Returns 0 when the run finished (server shut down or campaign reported
    finished), 1 when the endpoint never answered at all.
    """
    stream = stream if stream is not None else sys.stderr
    if "//" not in address:
        address = f"http://{address}"
    url = address.rstrip("/") + "/status"
    writer = _InPlaceWriter(stream)
    previous: Optional[Dict[str, object]] = None
    previous_at: Optional[float] = None
    ever_connected = False
    polls = 0
    while not (stop is not None and stop.is_set()):
        if max_polls is not None and polls >= max_polls:
            break
        polls += 1
        try:
            status = fetch(url)
        except (OSError, ValueError) as exc:  # URLError is an OSError
            if ever_connected:
                writer.write(f"(observability endpoint gone: {exc}; run over?)")
                return 0
            writer.write(f"(waiting for {url}: {exc})")
        else:
            ever_connected = True
            now = time.monotonic()
            elapsed = (now - previous_at) if previous_at is not None else None
            writer.write(render_status(status, previous, elapsed))
            previous, previous_at = status, now
            campaign = status.get("campaign")
            if isinstance(campaign, dict) and campaign.get("state") == "finished":
                return 0
        if stop is not None:
            if stop.wait(interval):
                break
        else:
            time.sleep(interval)
    return 0 if ever_connected else 1
