"""Consume telemetry JSONL: the report tables and the chrome-trace export.

``python -m repro.telemetry report RUN_DIR`` reads every ``*.jsonl`` file a
run's sinks wrote into ``RUN_DIR`` (orchestrator, local workers, remote
workers pointed at their own directories and copied in afterwards) and
prints:

* the per-stage/per-span time breakdown (count, total and mean wall clock);
* artifact-cache tier hit ratios *over time*, bucketed by engine
  generation — the line where "the store went warm" or "the mesh kicked
  in" becomes visible;
* the worker utilization table, from the ``fleet.worker`` events the
  coordinator records as workers forward their periodic
  :class:`~repro.distrib.protocol.TelemetrySummary` frames;
* the merged counter registry (the unified hit/miss metrics).

``--chrome-trace out.json`` exports every span as a Chrome trace-event
(``ph: "X"``) with microsecond timestamps on a shared wall-clock timeline,
loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

Readers are deliberately forgiving: a malformed line (a crash mid-append, a
partial copy) is counted and skipped, never fatal — a truncated log must
still report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.telemetry import ratio


def load_events(run_dir) -> Tuple[List[Dict[str, object]], int]:
    """Parse every ``*.jsonl`` under ``run_dir`` into one event list.

    Each record gains ``pid`` and ``wall_ts`` (its file's ``meta`` epoch
    plus the record's monotonic ``ts``) so events from different processes
    sort onto one timeline.  Returns ``(events, skipped_line_count)``.
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
            record.setdefault("pid", pid if pid is not None else 0)
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


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Report on (and export) a run's telemetry JSONL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="print the stage/tier/fleet breakdown of a telemetry dir"
    )
    report.add_argument("run_dir", type=Path,
                        help="a campaign --telemetry-dir (any directory of "
                             "telemetry *.jsonl files)")
    report.add_argument("--buckets", type=int, default=8,
                        help="time windows in the tier-ratio table (default: 8)")
    report.add_argument("--chrome-trace", type=Path, default=None, metavar="OUT.json",
                        help="additionally export every span in Chrome/Perfetto "
                             "trace-event format (load in chrome://tracing or "
                             "ui.perfetto.dev)")
    report.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write the report tables to this JSON file")
    tail = sub.add_parser(
        "tail", help="live in-place progress view of a running campaign's "
                     "/status endpoint"
    )
    tail.add_argument("address", metavar="HOST:PORT",
                      help="the --obs-port endpoint of a running campaign "
                           "(HOST:PORT or a full http:// URL)")
    tail.add_argument("--interval", type=float, default=1.0,
                      help="poll period in seconds (default: 1.0)")
    tail.add_argument("--max-polls", type=int, default=None,
                      help="stop after this many polls (default: until the "
                           "server goes away or the campaign finishes)")
    return parser


def report_main(args) -> int:
    events, skipped = load_events(args.run_dir)
    if not events:
        # An empty directory is what a crashed-before-first-flush or
        # not-yet-started run leaves behind; a report over it is vacuous,
        # not an error — scripts iterating run dirs must keep going.
        print(f"warning: no telemetry events under {args.run_dir} "
              f"(expected *.jsonl files); nothing to report",
              file=sys.stderr)
        return 0
    if not spans(events):
        print(f"warning: no spans under {args.run_dir}; time-breakdown "
              f"tables will be empty", file=sys.stderr)
    processes = sorted({_as_int(record.get("pid", 0)) for record in events})
    print(f"telemetry: {len(events)} records from {len(processes)} process(es) "
          f"under {args.run_dir}"
          + (f" ({skipped} malformed lines skipped)" if skipped else ""))

    breakdown = span_breakdown(events)
    if breakdown:
        print("\nper-stage time breakdown:")
        print(f"  {'span':24s} {'count':>7s} {'total s':>9s} {'mean ms':>9s}")
        for row in breakdown:
            print(f"  {row['name']:24s} {row['count']:7d} "
                  f"{row['seconds']:9.2f} {row['mean_ms']:9.2f}")

    tiers = tier_ratio_rows(events, buckets=args.buckets)
    if tiers:
        print("\nartifact tier hit ratios over time (per stage lookup):")
        print(f"  {'generations':>12s} {'lookups':>8s} {'tier-1':>7s} "
              f"{'tier-2':>7s} {'mesh':>7s} {'miss':>7s}")
        for row in tiers:
            print(f"  {row['generations']:>12s} {row['lookups']:8d} "
                  f"{row['tier1_ratio']:6.1%} {row['tier2_ratio']:6.1%} "
                  f"{row['mesh_ratio']:6.1%} {row['miss_ratio']:6.1%}")

    tenants = tenant_breakdown(events)
    if tenants:
        print("\nper-tenant service time (fair-share view):")
        print(f"  {'tenant':20s} {'jobs':>5s} {'generations':>12s} {'total s':>9s}")
        for row in tenants:
            print(f"  {row['tenant']:20s} {row['jobs']:5d} "
                  f"{row['generations']:12d} {row['seconds']:9.2f}")

    fleet = worker_rows(events)
    if fleet:
        print("\nworker utilization:")
        print(f"  {'worker':>6s} {'peer':20s} {'batches':>7s} "
              f"{'cands':>6s} {'busy s':>7s} {'util':>6s} {'mesh B':>10s}")
        for row in fleet:
            print(f"  {row['worker_id']:6d} {str(row['peer']):20s} "
                  f"{row['batches']:7d} {row['candidates']:6d} "
                  f"{row['busy_seconds']:7.1f} {row['utilization']:5.1%} "
                  f"{row['mesh_bytes']:10d}")

    latencies = latency_rows(events)
    if latencies:
        print("\nlatency percentiles (merged across processes):")
        print(f"  {'histogram':28s} {'count':>7s} {'p50 ms':>9s} "
              f"{'p95 ms':>9s} {'p99 ms':>9s}")
        for row in latencies:
            print(f"  {row['name']:28s} {row['count']:7d} "
                  f"{1000.0 * row['p50']:9.2f} {1000.0 * row['p95']:9.2f} "
                  f"{1000.0 * row['p99']:9.2f}")

    counters = merged_counters(events)
    if counters:
        print("\ncounters (all processes):")
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            print(f"  {name:32s} {rendered}")

    if args.chrome_trace is not None:
        trace = chrome_trace(events)
        args.chrome_trace.write_text(json.dumps(trace))
        print(f"\nchrome trace: {len(trace['traceEvents'])} span(s) -> "
              f"{args.chrome_trace} (load in chrome://tracing or ui.perfetto.dev)")

    if args.json_out is not None:
        args.json_out.write_text(json.dumps({
            "records": len(events),
            "processes": processes,
            "breakdown": breakdown,
            "tier_ratios": tiers,
            "tenants": tenants,
            "fleet": fleet,
            "latency": latencies,
            "counters": counters,
        }, indent=2))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return report_main(args)
        if args.command == "tail":
            from repro.telemetry.live import tail

            return tail(args.address, interval=args.interval,
                        max_polls=args.max_polls)
    except BrokenPipeError:
        # The reader left (``report ... | head``): the conventional quiet
        # exit, not a traceback.  Point stdout at devnull so the interpreter
        # teardown's implicit flush cannot raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        # Ctrl-C is how a tail session ends; no traceback.
        return 130
    raise AssertionError(f"unhandled command {args.command!r}")
