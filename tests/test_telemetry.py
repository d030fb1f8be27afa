"""Tests for the structured telemetry plane.

The load-bearing guarantees:

* the JSONL schema round-trips: spans carry monotonic start + duration and
  hierarchical parent ids, the meta line anchors them to a wall-clock
  epoch, and the close-time metrics snapshot carries the counter registry;
* there is one sink and one span: the recording contract (nesting, error
  marking, the registry, ``{span}.seconds``) holds with a run directory and
  without one, and without one nothing touches disk;
* the sink is thread-safe and **bounded**: concurrent writers never corrupt
  a line, and past ``max_events`` records are dropped (and counted), never
  written;
* a failed write costs the log, never the run: after ``ENOSPC`` (or a short
  write) the sink stops writing, counts ``dropped``, warns once, and the
  campaign lands on the unobserved fingerprint;
* the chrome-trace export is valid trace-event JSON (``ph``/``ts``/``dur``/
  ``pid``/``tid`` on every event);
* the hard invariant: a campaign runs bit-for-bit identically with
  telemetry on or off — serial and distributed — because telemetry
  observes and never participates.
"""

from __future__ import annotations

import errno
import functools
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from _helpers import loopback_available

from repro import telemetry
from repro.telemetry import (
    DEFAULT_MAX_EVENTS,
    JsonlSink,
    NULL_SINK,
    Span,
    get_sink,
    set_sink,
)
from repro.campaign.cli import main as campaign_cli
from repro.telemetry.report import (
    chrome_trace,
    load_events,
    merged_counters,
    span_breakdown,
    spans,
    tier_ratio_rows,
    worker_rows,
)


#: Seconds each :class:`_NappingEvaluator` candidate takes and reports.
_NAP = 0.02


class _NappingEvaluator:
    """Picklable: naps ``_NAP`` seconds per key, reports it as the
    candidate's ``elapsed_seconds``, and one artifact-cache hit."""

    def __call__(self, key):
        import time

        from repro.tuner import CandidateResult

        time.sleep(_NAP)
        return CandidateResult(fitness=1.0, code_size=1, fingerprint="+".join(key),
                               valid=True, elapsed_seconds=_NAP, artifact_hits=1)


@pytest.fixture(autouse=True)
def _null_sink_between_tests():
    """Every test starts and ends on the null sink (the process default)."""
    set_sink(None)
    yield
    set_sink(None)


# ---------------------------------------------------------------------------
# the sink
# ---------------------------------------------------------------------------

class TestSink:
    def test_null_sink_is_the_default_and_restores(self, tmp_path):
        assert get_sink() is NULL_SINK
        assert not get_sink().enabled
        with get_sink().span("anything", attr=1) as span:
            span.set(more=2)  # all no-ops
        sink = JsonlSink(tmp_path)
        previous = set_sink(sink)
        assert previous is NULL_SINK
        assert get_sink() is sink
        set_sink(previous)
        assert get_sink() is NULL_SINK
        sink.close()

    def test_jsonl_schema_roundtrip(self, tmp_path):
        with JsonlSink(tmp_path, label="t", flush_every=1) as sink:
            with sink.span("outer", program="tiny") as outer:
                with sink.span("inner"):
                    pass
                outer.set(tier="store")
            sink.event("fleet.worker", worker_id=3, batches=2)
            sink.incr("hits", 4)
            sink.incr("hits")
            sink.gauge("depth", 7.5)
        events, skipped = load_events(tmp_path)
        assert skipped == 0
        meta = [e for e in events if e["type"] == "meta"]
        assert len(meta) == 1
        assert meta[0]["version"] == telemetry.SCHEMA_VERSION
        assert meta[0]["pid"] > 0 and meta[0]["wall_epoch"] > 0
        recorded = {e["name"]: e for e in spans(events)}
        assert set(recorded) == {"outer", "inner"}
        outer, inner = recorded["outer"], recorded["inner"]
        for record in (outer, inner):
            assert record["dur"] >= 0 and record["ts"] >= 0
            assert isinstance(record["id"], int) and isinstance(record["tid"], int)
        # hierarchy: inner's parent is outer; outer has no parent.
        assert inner["parent"] == outer["id"]
        assert "parent" not in outer
        # attrs set mid-span land next to the open-time attrs.
        assert outer["attrs"] == {"program": "tiny", "tier": "store"}
        point = [e for e in events if e["type"] == "event"]
        assert point[0]["name"] == "fleet.worker"
        assert point[0]["attrs"] == {"worker_id": 3, "batches": 2}
        metrics = [e for e in events if e["type"] == "metrics"]
        assert len(metrics) == 1
        assert metrics[0]["counters"] == {"hits": 5}
        assert metrics[0]["gauges"] == {"depth": 7.5}
        assert metrics[0]["dropped"] == 0

    def test_exception_marks_the_span_and_propagates(self, tmp_path):
        with JsonlSink(tmp_path, flush_every=1) as sink:
            with pytest.raises(KeyError):
                with sink.span("doomed"):
                    raise KeyError("boom")
        events, _ = load_events(tmp_path)
        (doomed,) = spans(events)
        assert doomed["attrs"]["error"] == "KeyError"

    def test_concurrent_writers_never_corrupt_lines(self, tmp_path):
        threads, per_thread = 8, 100
        sink = JsonlSink(tmp_path, flush_every=7)

        def hammer(tag: int) -> None:
            for index in range(per_thread):
                with sink.span("work", tag=tag):
                    sink.incr("ops")
                sink.event("tick", tag=tag, index=index)

        workers = [
            threading.Thread(target=hammer, args=(tag,)) for tag in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        sink.close()
        events, skipped = load_events(tmp_path)
        assert skipped == 0  # every line parsed: no interleaved partial writes
        assert len(spans(events)) == threads * per_thread
        assert len([e for e in events if e["type"] == "event"]) == threads * per_thread
        assert merged_counters(events) == {"ops": threads * per_thread}
        # span ids are unique across threads
        ids = [record["id"] for record in spans(events)]
        assert len(set(ids)) == len(ids)

    def test_counters_lose_no_update_and_match_the_sink(self):
        """One ``Counters`` is shared by every thread of a cache, store or
        mesh end: under a short switch interval, with more threads than
        cores, the instance and the sink's ``{prefix}.{name}`` stay exact."""
        threads, per_thread = 8, 2_000
        counters = telemetry.Counters("tier", "hits", "misses")

        def hammer() -> None:
            for _ in range(per_thread):
                counters.incr("hits")
                counters.incr("misses", 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.recording() as sink:
                workers = [threading.Thread(target=hammer) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                on_sink = sink.counters()
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * per_thread
        assert counters.snapshot() == {"hits": total, "misses": 2 * total}
        assert on_sink == {"tier.hits": total, "tier.misses": 2 * total}
        assert telemetry.ratio(counters.snapshot()["hits"], 4 * total) == 0.25
        assert telemetry.ratio(1, 0) == 0.0

    def test_event_log_is_bounded(self, tmp_path):
        sink = JsonlSink(tmp_path, max_events=5, flush_every=1)
        for index in range(20):
            sink.event("tick", index=index)
        sink.close()
        events, _ = load_events(tmp_path)
        written = [e for e in events if e["type"] == "event"]
        assert len(written) == 5
        (metrics,) = [e for e in events if e["type"] == "metrics"]
        # the bound never silences itself: drops are counted in the snapshot
        assert metrics["dropped"] == 15
        assert metrics["events"] == 5
        assert sink.dropped == 15

    def test_default_bound_is_large(self):
        assert DEFAULT_MAX_EVENTS >= 100_000

    @pytest.mark.parametrize("with_directory", [True, False],
                             ids=["directory", "no-directory"])
    def test_recording_contract_with_and_without_a_directory(
        self, tmp_path, with_directory
    ):
        """One sink, one span: everything a seam can observe behaves the
        same whether or not a JSONL file sits behind the registry."""
        sink = JsonlSink(tmp_path if with_directory else None, flush_every=1)
        with sink.span("outer", program="tiny") as outer:
            with sink.span("inner") as inner:
                pass
            outer.set(tier="store")
        with pytest.raises(KeyError):
            with sink.span("doomed") as doomed:
                raise KeyError("boom")
        sink.event("fleet.worker", worker_id=3)
        sink.incr("hits", 4)
        sink.incr("hits")
        sink.gauge("depth", 7.5)
        sink.observe("mesh.transfer.bytes", 512.0)
        assert type(outer) is type(inner) is type(doomed) is Span
        assert outer.parent_id is None and inner.parent_id == outer.span_id
        assert doomed.parent_id is None  # the stack unwound past the raise
        assert len({outer.span_id, inner.span_id, doomed.span_id}) == 3
        assert outer.attrs == {"program": "tiny", "tier": "store"}
        assert doomed.attrs == {"error": "KeyError"}
        snapshot = sink.metrics_snapshot()
        assert snapshot["counters"] == sink.counters() == {"hits": 5}
        assert snapshot["gauges"] == {"depth": 7.5}
        histograms = snapshot["histograms"]
        assert {name: row["count"] for name, row in histograms.items()} == {
            "outer.seconds": 1, "inner.seconds": 1, "doomed.seconds": 1,
            "mesh.transfer.bytes": 1,
        }
        sink.close()
        sink.close()  # idempotent either way
        assert sink.dropped == 0
        events, skipped = load_events(tmp_path)
        if with_directory:
            assert skipped == 0 and sink.path.parent == tmp_path
            assert {e["name"] for e in spans(events)} == {"outer", "inner", "doomed"}
        else:
            assert sink.path is None and events == []
            assert list(tmp_path.iterdir()) == []  # no file, no meta line

    def test_recording_installs_and_restores(self, tmp_path):
        outer_sink = JsonlSink()
        set_sink(outer_sink)
        with telemetry.recording(tmp_path, label="t") as sink:
            assert get_sink() is sink and sink.path.name.startswith("t-")
            with telemetry.recording() as nested:
                assert get_sink() is nested and nested.path is None
            assert get_sink() is sink
        assert get_sink() is outer_sink
        # the block's sink was closed on the way out: its snapshot is on disk
        events, _ = load_events(tmp_path)
        assert [e["type"] for e in events] == ["meta", "metrics"]

    @pytest.mark.parametrize("failure", ["enospc", "short-write"])
    def test_failed_write_stops_the_file_not_the_caller(
        self, tmp_path, monkeypatch, caplog, failure
    ):
        """The reproduction from the issue: ``ENOSPC`` on the sink's fd used
        to escape ``Span.__exit__`` into whatever stage was being timed."""
        sink = JsonlSink(tmp_path, flush_every=1)
        with sink.span("stage.compile"):
            pass  # lands: the disk is not full yet
        real_write = os.write

        def full_disk(fd, data):
            if fd != sink._fd:
                return real_write(fd, data)
            if failure == "enospc":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "write", full_disk)
        with caplog.at_level(logging.WARNING, logger="repro.telemetry"):
            for _ in range(3):
                with sink.span("stage.compile"):
                    sink.incr("engine.evaluated")
                sink.event("tick")
            sink.flush()
            sink.close()  # never raises
        warnings = [r for r in caplog.records if r.name == "repro.telemetry"]
        assert len(warnings) == 1 and str(sink.path) in warnings[0].getMessage()
        assert sink.dropped == 6  # three spans + three events, none written
        # the registry kept counting through the failure
        snapshot = sink.metrics_snapshot()
        assert snapshot["counters"] == {"engine.evaluated": 3}
        assert snapshot["histograms"]["stage.compile.seconds"]["count"] == 4
        # what landed before the failure is still a readable log
        events, _skipped = load_events(tmp_path)
        assert len(spans(events)) == 1
        assert not [e for e in events if e["type"] == "metrics"]


def test_importing_telemetry_loads_no_http_stack():
    """Every process that touches a cache imports ``repro.telemetry``; the
    ``tail`` client's ``urllib.request`` (-> ``http.client`` -> ``email``)
    is imported where it runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import repro.telemetry; "
        "print([name for name in ('urllib.request', 'http.client', 'http.server') "
        "if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the report and the chrome-trace export
# ---------------------------------------------------------------------------

#: Per-generation tier deltas as the engine records them: ``artifact_hits``
#: includes the disk and mesh hits.  Cold; warming (2 memory, 1 disk, 1 mesh,
#: 4 misses); all disk; all memory.
_SAMPLE_TIERS = [
    {"artifact_hits": 0, "artifact_store_hits": 0, "artifact_mesh_hits": 0, "artifact_misses": 4},
    {"artifact_hits": 4, "artifact_store_hits": 1, "artifact_mesh_hits": 1, "artifact_misses": 0},
    {"artifact_hits": 3, "artifact_store_hits": 3, "artifact_mesh_hits": 0, "artifact_misses": 0},
    {"artifact_hits": 3, "artifact_store_hits": 0, "artifact_mesh_hits": 0, "artifact_misses": 0},
]


def _write_sample_run(tmp_path):
    with JsonlSink(tmp_path, label="campaign", flush_every=1) as sink:
        for generation, tiers in enumerate(_SAMPLE_TIERS):
            with sink.span(
                "engine.generation", generation=generation
            ) as span:
                with sink.span("stage.compile"):
                    pass
                span.set(**tiers)
        # The row as the coordinator emits it, read off the worker's
        # replies (pinned by test_fleet_row_is_derived_once).
        sink.event(
            "fleet.worker",
            worker_id=1, peer="127.0.0.1:9", batches=4,
            candidates=24, busy_seconds=1.5, uptime_seconds=3.0,
            busy_ratio=0.5, mesh_bytes=42,
        )
        sink.incr("artifact.memory_hits", 6)


class TestReport:
    def test_breakdown_tiers_and_workers(self, tmp_path):
        _write_sample_run(tmp_path)
        events, skipped = load_events(tmp_path)
        assert skipped == 0
        breakdown = {row["name"]: row for row in span_breakdown(events)}
        assert breakdown["engine.generation"]["count"] == 4
        assert breakdown["stage.compile"]["count"] == 4
        shares = ("tier1_ratio", "tier2_ratio", "mesh_ratio", "miss_ratio")
        # A lookup is a hit or a miss; tier-1 is the memory tier alone.
        assert [
            (row["generations"], row["lookups"], *(row[share] for share in shares))
            for row in tier_ratio_rows(events, buckets=2)
        ] == [("1-2", 8, 0.25, 0.125, 0.125, 0.5), ("3-4", 6, 0.5, 0.5, 0.0, 0.0)]
        # The all-disk generation reads tier-2 100 %, not 50 / 50.
        per_generation = tier_ratio_rows(events, buckets=4)
        assert [row["lookups"] for row in per_generation] == [4, 4, 3, 3]
        assert [per_generation[2][share] for share in shares] == [0.0, 1.0, 0.0, 0.0]
        (worker,) = worker_rows(events)
        assert worker["worker_id"] == 1
        assert worker["utilization"] == pytest.approx(0.5)
        assert worker["mesh_bytes"] == 42

    @pytest.mark.skipif(not loopback_available(),
                        reason="no AF_INET loopback in this sandbox")
    def test_fleet_row_is_derived_once(self, tmp_path):
        """The coordinator builds a worker's row off each accepted reply:
        its fleet rows and the ``fleet.worker`` event the report reads
        carry the same figures, ``busy_ratio`` derived from them."""
        from repro.distrib import Coordinator, DistributedMapper
        from test_distrib import thread_workers

        with Coordinator() as coordinator, thread_workers(coordinator, 1):
            (handle,) = coordinator.workers()
            handle.mesh_bytes = 42  # what the mesh counted for this machine
            with telemetry.recording(tmp_path, label="coordinator"):
                DistributedMapper(coordinator, _NappingEvaluator()).map(
                    [("-a",), ("-b",)])
            (row,) = coordinator.fleet_status()
        (event,) = [record["attrs"] for record in load_events(tmp_path)[0]
                    if record.get("name") == "fleet.worker"]
        for figures in (row, event):
            assert (figures["batches"], figures["candidates"]) == (1, 2)
            assert figures["busy_seconds"] == pytest.approx(2 * _NAP)
            assert (figures["artifact_hits"], figures["mesh_bytes"]) == (2, 42)
            assert figures["uptime_seconds"] >= figures["busy_seconds"]
        assert event["busy_ratio"] == round(
            event["busy_seconds"] / event["uptime_seconds"], 4)
        (worker,) = worker_rows(load_events(tmp_path)[0])
        assert (worker["utilization"], worker["mesh_bytes"]) == (event["busy_ratio"], 42)

    def test_chrome_trace_is_valid(self, tmp_path):
        _write_sample_run(tmp_path)
        out = tmp_path / "trace.json"
        assert campaign_cli(["report", str(tmp_path), "--chrome-trace", str(out)]) == 0
        trace = json.loads(out.read_text())  # must be valid JSON
        assert trace["traceEvents"]
        for entry in trace["traceEvents"]:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(entry)
            assert entry["ph"] == "X"
            assert entry["ts"] >= 0 and entry["dur"] >= 0
        # timestamps are relative to the earliest span: the origin is 0
        assert min(e["ts"] for e in trace["traceEvents"]) == 0

    def test_report_renders_every_table(self, tmp_path, capsys):
        _write_sample_run(tmp_path)
        assert campaign_cli(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage time breakdown" in out
        assert "artifact tier hit ratios over time" in out
        assert "worker utilization" in out
        assert "counters (all processes)" in out
        assert "artifact.memory_hits" in out

    def test_report_on_empty_dir_warns_and_succeeds(self, tmp_path, capsys):
        assert campaign_cli(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "no telemetry events" in captured.err
        assert "warning" in captured.err

    def test_report_on_spanless_dir_warns_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "meta", "pid": 7, "wall_epoch": 100.0}\n'
            '{"type": "event", "name": "fleet.worker", "ts": 0.5, '
            '"attrs": {"worker_id": 1, "peer": "x"}}\n'
        )
        assert campaign_cli(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "no spans" in captured.err
        assert "worker utilization" in captured.out

    def test_report_tolerates_truncated_trailing_line(self, tmp_path, capsys):
        _write_sample_run(tmp_path)
        path = next(tmp_path.glob("*.jsonl"))
        with path.open("a") as handle:
            # A crash mid-append leaves a partial JSON document with no
            # trailing newline; the well-formed prefix must still report.
            handle.write('{"type": "span", "name": "stage.comp')
        assert campaign_cli(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "1 malformed lines skipped" in captured.out
        assert "per-stage time breakdown" in captured.out

    def test_loader_tolerates_garbage_field_types(self, tmp_path):
        (tmp_path / "garbage.jsonl").write_text(
            '{"type": "meta", "pid": "not-an-int", "wall_epoch": "later"}\n'
            '{"type": "span", "name": "stage.compile", "ts": 1.0, "dur": "fast"}\n'
            '{"type": "event", "name": "fleet.worker", "ts": 2.0, '
            '"attrs": {"worker_id": "seven", "batches": "many"}}\n'
        )
        events, skipped = load_events(tmp_path)
        assert skipped == 0  # parseable lines are kept, fields are coerced
        assert span_breakdown(events)[0]["seconds"] == 0.0
        assert worker_rows(events) == []  # uncoercible worker_id -> dropped
        assert campaign_cli(["report", str(tmp_path)]) == 0

    def test_loader_skips_malformed_lines(self, tmp_path):
        _write_sample_run(tmp_path)
        path = next(tmp_path.glob("*.jsonl"))
        with path.open("a") as handle:
            handle.write('{"truncated": \n')
            handle.write('[1, 2, 3]\n')  # parses, but not a record
        events, skipped = load_events(tmp_path)
        assert skipped == 2
        assert spans(events)  # the well-formed prefix still reports


# ---------------------------------------------------------------------------
# the hard invariant: telemetry on == telemetry off, bit for bit
# ---------------------------------------------------------------------------

from repro.campaign import Campaign, SharedWorkerPool  # noqa: E402
from test_distrib import (  # noqa: E402
    JOBS,
    thread_workers,
    tiny_campaign_config,
    tiny_spec,
)


class TestCampaignParity:
    def test_serial_fingerprint_identical_with_telemetry(self, tmp_path):
        plain = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        observed = Campaign(
            JOBS,
            tiny_campaign_config(telemetry_dir=tmp_path / "telemetry"),
            spec_provider=tiny_spec,
        ).run()
        assert observed.fingerprint() == plain.fingerprint()
        assert (observed.database.record_signatures()
                == plain.database.record_signatures())
        # the sink was restored after the run...
        assert get_sink() is NULL_SINK
        # ...and actually recorded the run: generations, jobs, stages.
        events, skipped = load_events(tmp_path / "telemetry")
        assert skipped == 0
        names = {record["name"] for record in spans(events)}
        assert {"campaign.run", "campaign.job", "campaign.generation",
                "engine.generation", "stage.compile", "stage.measure",
                "stage.score"} <= names
        jobs = [record for record in spans(events) if record["name"] == "campaign.job"]
        assert all("warm_seeds" in record["attrs"] for record in jobs)
        counters = merged_counters(events)
        assert counters["engine.batches"] > 0
        assert counters.get("artifact.memory_hits", 0) > 0
        # generation spans carry the tier deltas the report buckets
        assert tier_ratio_rows(events)

    def test_checkpointed_campaign_records_under_its_checkpoint(self, tmp_path):
        """A checkpoint dir is the run's telemetry dir too: the session
        records under ``CKPT/telemetry`` with no flag, and the run lands on
        the fingerprint of a campaign without a checkpoint."""
        from repro.campaign.campaign import TELEMETRY_DIR

        plain = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        ckpt = tmp_path / "ckpt"
        checkpointed = Campaign(
            JOBS, tiny_campaign_config(checkpoint_dir=ckpt), spec_provider=tiny_spec,
        ).run()
        assert checkpointed.fingerprint() == plain.fingerprint()
        assert get_sink() is NULL_SINK
        (session,) = (ckpt / TELEMETRY_DIR).glob("*.jsonl")
        assert session.name == f"campaign-{os.getpid()}.jsonl"
        events, skipped = load_events(ckpt / TELEMETRY_DIR)
        assert skipped == 0
        jobs = [record for record in spans(events) if record["name"] == "campaign.job"]
        assert len(jobs) == len(JOBS)

    def test_full_telemetry_disk_degrades_to_dropped(
        self, tmp_path, monkeypatch, caplog
    ):
        """``ENOSPC`` on the sink's descriptor mid-campaign: the run finishes
        on the plain fingerprint, the sink counts ``dropped``, one warning."""
        plain = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        run_dir = tmp_path / "telemetry"
        real_write = os.write

        def is_sink_fd(fd) -> bool:
            try:
                target = os.fstat(fd)
            except OSError:
                return False
            return any(os.path.samestat(target, path.stat())
                       for path in run_dir.glob("*.jsonl"))

        def full_disk(fd, data):
            # The meta line lands (the disk fills *during* the run).
            if is_sink_fd(fd) and b'"type":"meta"' not in data:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", full_disk)
        # Flush on every record, so the failure surfaces inside a stage span.
        monkeypatch.setattr(telemetry, "JsonlSink",
                            functools.partial(JsonlSink, flush_every=1))
        sinks = []

        def spying_spec(job):
            sinks.append(get_sink())  # the run's own sink, seen from inside it
            return tiny_spec(job)

        with caplog.at_level(logging.WARNING, logger="repro.telemetry"):
            observed = Campaign(
                JOBS, tiny_campaign_config(telemetry_dir=run_dir),
                spec_provider=spying_spec,
            ).run()
        assert observed.fingerprint() == plain.fingerprint()
        assert (observed.database.record_signatures()
                == plain.database.record_signatures())
        sink = sinks[0]
        assert sink.path.parent == run_dir and sink.dropped > 0
        assert sink.counters()["engine.batches"] > 0  # the registry never stopped
        assert len([r for r in caplog.records if r.name == "repro.telemetry"]) == 1
        assert get_sink() is NULL_SINK
        events, _skipped = load_events(run_dir)
        assert [e["type"] for e in events] == ["meta"]

    @pytest.mark.skipif(not loopback_available(),
                        reason="no AF_INET loopback in this sandbox")
    def test_distributed_fingerprint_identical_and_fleet_reported(self, tmp_path):
        serial = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        try:
            with thread_workers(pool.coordinator, 2):
                distributed = Campaign(
                    JOBS,
                    tiny_campaign_config(
                        serve_workers="127.0.0.1:0",
                        telemetry_dir=tmp_path / "telemetry",
                    ),
                    spec_provider=tiny_spec,
                ).run(pool=pool)
                fleet = pool.coordinator.fleet_status()
        finally:
            pool.close()
        assert distributed.fingerprint() == serial.fingerprint()
        assert (distributed.database.record_signatures()
                == serial.database.record_signatures())
        # the coordinator read every worker's row off its replies
        assert fleet and len(fleet) == 2
        for row in fleet:
            assert row["batches"] > 0
            assert row["candidates"] > 0
            assert row["busy_seconds"] > 0
            assert row["uptime_seconds"] >= row["busy_seconds"]
        # one accounting: with no worker lost, the run's fleet rows split the
        # campaign's own evaluation counters between the workers
        stats = distributed.evaluation_stats()
        for key, total in (("candidates", stats.evaluated),
                           ("artifact_hits", stats.artifact_hits),
                           ("artifact_misses", stats.artifact_misses)):
            assert sum(row[key] for row in distributed.fleet) == total, key
        # and the coordinator's sink recorded them as fleet.worker events
        events, _ = load_events(tmp_path / "telemetry")
        workers = worker_rows(events)
        assert [row["worker_id"] for row in workers] == [1, 2]
        assert all(row["batches"] > 0 for row in workers)

    @pytest.mark.skipif(not loopback_available(),
                        reason="no AF_INET loopback in this sandbox")
    def test_a_lost_workers_report_row_keeps_its_figures(self, tmp_path):
        """A worker lost mid-run is reported with the figures ``/status``
        lists for it, not zeros: its discard event is its whole row."""
        pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        try:
            with thread_workers(pool.coordinator, 1), \
                    thread_workers(pool.coordinator, 1, max_batches=2):
                Campaign(
                    JOBS,
                    tiny_campaign_config(
                        serve_workers="127.0.0.1:0", telemetry_dir=tmp_path / "telemetry"),
                    spec_provider=tiny_spec,
                ).run(pool=pool)
                (lost,) = [row for row in pool.fleet_status() if row["health"] == "lost"]
        finally:
            pool.close()
        assert lost["batches"] == 2 and lost["candidates"] > 0 and lost["busy_seconds"] > 0
        reported = {row["worker_id"]: row
                    for row in worker_rows(load_events(tmp_path / "telemetry")[0])}
        row = reported[lost["worker_id"]]
        for key in ("batches", "candidates", "busy_seconds", "uptime_seconds", "mesh_bytes"):
            assert row[key] == lost[key], key
        assert row["utilization"] == lost["busy_ratio"] > 0

    def test_telemetry_cli_flag_end_to_end(self, tmp_path, capsys):
        args = [
            "--benchmarks", "462.libquantum",
            "--families", "llvm",
            "--max-iterations", "10",
            "--population", "6",
            "--telemetry-dir", str(tmp_path / "telemetry"),
            "--json", str(tmp_path / "summary.json"),
        ]
        assert campaign_cli(args) == 0
        out = capsys.readouterr().out
        assert "database fingerprint" in out  # summary tables stay on stdout
        assert (tmp_path / "telemetry").is_dir()
        trace_out = tmp_path / "trace.json"
        assert campaign_cli([
            "report", str(tmp_path / "telemetry"), "--chrome-trace", str(trace_out),
        ]) == 0
        report_out = capsys.readouterr().out
        assert "per-stage time breakdown" in report_out
        trace = json.loads(trace_out.read_text())
        assert trace["traceEvents"]
