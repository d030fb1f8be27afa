"""Consume telemetry JSONL: the report tables and the chrome-trace export.

``python -m repro.campaign report DIR`` reads every ``*.jsonl`` file a run's
sinks wrote into ``DIR/telemetry`` (or into a bare ``--telemetry-dir``):
the orchestrator's, one per session, and remote workers' pointed at their
own directories and copied in afterwards.  After the results tables it
prints the telemetry half from the functions here:

* the per-stage/per-span time breakdown (count, total and mean wall clock);
* artifact-cache tier hit ratios *over time*, bucketed by engine
  generation — the line where "the store went warm" or "the mesh kicked
  in" becomes visible;
* the worker utilization table, from the ``fleet.worker`` events the
  coordinator records with each worker's whole row, read off every
  accepted batch reply and again when the worker is lost;
* the merged counter registry (the unified hit/miss metrics).

``--chrome-trace out.json`` exports every span as a Chrome trace-event
(``ph: "X"``) with microsecond timestamps on a shared wall-clock timeline,
loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

Readers are deliberately forgiving: a malformed line (a crash mid-append, a
partial copy) is counted and skipped, never fatal — a truncated log must
still report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.telemetry import ratio


def load_events(run_dir) -> Tuple[List[Dict[str, object]], int]:
    """Parse every ``*.jsonl`` under ``run_dir`` into one event list.

    Each record gains an integer ``pid`` and ``wall_ts`` (its file's
    ``meta`` epoch plus the record's monotonic ``ts``) so events from
    different processes sort onto one timeline.  Returns
    ``(events, skipped_line_count)``.
    """
    run_dir = Path(run_dir)
    events: List[Dict[str, object]] = []
    skipped = 0
    for path in sorted(run_dir.glob("*.jsonl")):
        pid = None
        wall_epoch = 0.0
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"warning: cannot read {path}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            if record.get("type") == "meta":
                # A file appended to by several sessions restarts its
                # monotonic clock at each meta line; track the latest.
                pid = record.get("pid")
                try:
                    wall_epoch = float(record.get("wall_epoch", 0.0))
                except (TypeError, ValueError):
                    wall_epoch = 0.0
            record["pid"] = _as_int(record.get("pid", pid if pid is not None else 0))
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                record["wall_ts"] = wall_epoch + float(ts)
            events.append(record)
    events.sort(key=lambda record: record.get("wall_ts", 0.0))
    return events, skipped


def _as_int(value, default: int = 0) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _as_float(value, default: float = 0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def spans(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    return [record for record in events if record.get("type") == "span"]


def span_breakdown(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-span-name totals, sorted by total duration, longest first."""
    totals: Dict[str, Dict[str, float]] = {}
    for record in spans(events):
        name = str(record.get("name"))
        entry = totals.setdefault(name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += _as_float(record.get("dur", 0.0))
    rows = [
        {
            "name": name,
            "count": int(entry["count"]),
            "seconds": entry["seconds"],
            "mean_ms": 1000.0 * entry["seconds"] / entry["count"] if entry["count"] else 0.0,
        }
        for name, entry in totals.items()
    ]
    rows.sort(key=lambda row: -row["seconds"])
    return rows


def tenant_breakdown(events: Sequence[Dict[str, object]]
                     ) -> List[Dict[str, object]]:
    """Per-tenant totals from the tuning service's tenant-tagged spans.

    The service stamps every ``service.job`` / ``service.generation`` span
    with a ``tenant`` attribute; this groups the generation spans by it —
    the telemetry-side view of the same fair-share accounting the service
    serves on ``/status``.  Empty for runs without a service (no such
    spans), so the table only appears when it has something to say.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for record in spans(events):
        attrs = record.get("attrs")
        if not isinstance(attrs, dict) or "tenant" not in attrs:
            continue
        if record.get("name") != "service.generation":
            continue
        tenant = str(attrs["tenant"])
        entry = totals.setdefault(
            tenant, {"generations": 0, "seconds": 0.0, "jobs": set()}
        )
        entry["generations"] += 1
        entry["seconds"] += _as_float(record.get("dur", 0.0))
        entry["jobs"].add(str(attrs.get("job", "?")))
    rows = [
        {
            "tenant": tenant,
            "jobs": len(entry["jobs"]),
            "generations": int(entry["generations"]),
            "seconds": entry["seconds"],
        }
        for tenant, entry in totals.items()
    ]
    rows.sort(key=lambda row: (-row["seconds"], row["tenant"]))
    return rows


#: Attribute names of the per-generation artifact-tier deltas the engine
#: records on its ``engine.generation`` spans.
_TIER_FIELDS = (
    "artifact_hits", "artifact_store_hits", "artifact_mesh_hits", "artifact_misses",
)


def tier_ratio_rows(
    events: Sequence[Dict[str, object]], buckets: int = 8
) -> List[Dict[str, object]]:
    """Cache-tier hit ratios over time, from ``engine.generation`` spans.

    Generations are grouped into at most ``buckets`` contiguous windows in
    timeline order (interleaving every program of a campaign), each row
    reporting the share of stage lookups served per tier in that window.
    """
    generations = [
        record.get("attrs", {})
        for record in spans(events)
        if record.get("name") == "engine.generation"
    ]
    generations = [
        attrs for attrs in generations
        if isinstance(attrs, dict) and any(field in attrs for field in _TIER_FIELDS)
    ]
    if not generations:
        return []
    buckets = max(1, min(buckets, len(generations)))
    size, extra = divmod(len(generations), buckets)
    rows: List[Dict[str, object]] = []
    start = 0
    for index in range(buckets):
        width = size + (1 if index < extra else 0)
        window = generations[start:start + width]
        start += width
        sums = {field: sum(_as_int(attrs.get(field, 0)) for attrs in window)
                for field in _TIER_FIELDS}
        # ``artifact_hits`` already includes the disk and mesh hits: a lookup
        # is a hit or a miss, and memory served the hits disk and mesh did not.
        lookups = sums["artifact_hits"] + sums["artifact_misses"]
        memory = sums["artifact_hits"] - sums["artifact_store_hits"] - sums["artifact_mesh_hits"]
        rows.append({
            "generations": f"{start - width + 1}-{start}",
            "lookups": lookups,
            "tier1_ratio": ratio(memory, lookups),
            "tier2_ratio": ratio(sums["artifact_store_hits"], lookups),
            "mesh_ratio": ratio(sums["artifact_mesh_hits"], lookups),
            "miss_ratio": ratio(sums["artifact_misses"], lookups),
        })
    return rows


def worker_rows(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Latest ``fleet.worker`` snapshot per worker id, ordered by id; the
    utilization and mesh bytes are the coordinator's ``busy_ratio`` and
    ``mesh_bytes``."""
    latest: Dict[int, Dict[str, object]] = {}
    for record in events:
        if record.get("type") != "event" or record.get("name") != "fleet.worker":
            continue
        attrs = record.get("attrs")
        if not isinstance(attrs, dict) or "worker_id" not in attrs:
            continue
        try:
            worker_id = int(attrs["worker_id"])
        except (TypeError, ValueError):
            continue
        latest[worker_id] = attrs
    rows = []
    for worker_id in sorted(latest):
        attrs = latest[worker_id]
        rows.append({
            "worker_id": worker_id,
            "peer": attrs.get("peer", "?"),
            "batches": _as_int(attrs.get("batches", 0)),
            "candidates": _as_int(attrs.get("candidates", 0)),
            "busy_seconds": _as_float(attrs.get("busy_seconds", 0.0)),
            "uptime_seconds": _as_float(attrs.get("uptime_seconds", 0.0)),
            "utilization": _as_float(attrs.get("busy_ratio", 0.0)),
            "mesh_bytes": _as_int(attrs.get("mesh_bytes", 0)),
        })
    return rows


def merged_counters(events: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Sum of every ``metrics`` snapshot's counters across processes."""
    totals: Dict[str, float] = {}
    for record in events:
        if record.get("type") != "metrics":
            continue
        counters = record.get("counters")
        if not isinstance(counters, dict):
            continue
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
    return totals


def latency_rows(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Span-duration percentiles from the ``metrics`` snapshots' histograms.

    Histograms from different processes share the fixed bucket bounds
    (:data:`~repro.telemetry.live.BUCKET_BOUNDS`), so the per-process
    snapshots merge bucket-for-bucket into fleet-wide distributions.
    """
    from repro.telemetry.live import merge_metric_snapshots, percentile_table

    table = percentile_table(merge_metric_snapshots(
        record for record in events if record.get("type") == "metrics"
    )["histograms"])
    # ``count`` moves up next to the name; the percentiles follow it.
    return [{"name": name, "count": table[name]["count"], **table[name]}
            for name in sorted(table)]


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

def chrome_trace(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Spans as Chrome trace-event JSON (complete events, ``ph: "X"``).

    Timestamps are microseconds from the earliest event on the merged
    wall-clock timeline, so spans from every process of a run line up in
    one view.  Each event carries the full required key set — ``name``,
    ``ph``, ``ts``, ``dur``, ``pid``, ``tid`` — plus the span's attributes
    as ``args``.
    """
    all_spans = spans(events)
    origin = min(
        (record.get("wall_ts", 0.0) for record in all_spans), default=0.0
    )
    trace_events = []
    for record in all_spans:
        entry = {
            "name": record.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": round(1e6 * (_as_float(record.get("wall_ts", 0.0)) - origin), 3),
            "dur": round(1e6 * _as_float(record.get("dur", 0.0)), 3),
            "pid": _as_int(record.get("pid", 0)),
            "tid": _as_int(record.get("tid", 0)),
        }
        attrs = record.get("attrs")
        if isinstance(attrs, dict) and attrs:
            entry["args"] = attrs
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
