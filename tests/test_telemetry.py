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
from repro.telemetry.report import (
    chrome_trace,
    load_events,
    main as report_cli,
    merged_counters,
    span_breakdown,
    spans,
    tier_ratio_rows,
    worker_rows,
)


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
            sink.event("fleet.worker", worker_id=3, slots=2)
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
        assert point[0]["attrs"] == {"worker_id": 3, "slots": 2}
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

def _write_sample_run(tmp_path):
    with JsonlSink(tmp_path, label="campaign", flush_every=1) as sink:
        for generation in range(4):
            with sink.span(
                "engine.generation", generation=generation
            ) as span:
                with sink.span("stage.compile"):
                    pass
                span.set(
                    artifact_hits=generation,
                    artifact_store_hits=1,
                    artifact_mesh_hits=0,
                    artifact_misses=3 - generation if generation < 3 else 0,
                )
        sink.event(
            "fleet.worker",
            worker_id=1, peer="127.0.0.1:9", slots=2, batches=4,
            candidates=24, busy_seconds=1.5, uptime_seconds=3.0,
            mesh_bytes_sent=10, mesh_bytes_received=32,
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
        tiers = tier_ratio_rows(events, buckets=2)
        assert len(tiers) == 2
        assert tiers[0]["generations"] == "1-2"
        assert tiers[0]["lookups"] == sum((0 + 1 + 3, 1 + 1 + 2))
        assert 0.0 <= tiers[0]["miss_ratio"] <= 1.0
        (worker,) = worker_rows(events)
        assert worker["worker_id"] == 1
        assert worker["utilization"] == pytest.approx(0.5)
        assert worker["mesh_bytes"] == 42

    def test_chrome_trace_is_valid(self, tmp_path):
        _write_sample_run(tmp_path)
        out = tmp_path / "trace.json"
        assert report_cli(["report", str(tmp_path), "--chrome-trace", str(out)]) == 0
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
        assert report_cli(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage time breakdown" in out
        assert "artifact tier hit ratios over time" in out
        assert "worker utilization" in out
        assert "counters (all processes)" in out
        assert "artifact.memory_hits" in out

    def test_report_on_empty_dir_warns_and_succeeds(self, tmp_path, capsys):
        assert report_cli(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "no telemetry events" in captured.err
        assert "warning" in captured.err

    def test_report_on_spanless_dir_warns_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "meta", "pid": 7, "wall_epoch": 100.0}\n'
            '{"type": "event", "name": "fleet.worker", "ts": 0.5, '
            '"attrs": {"worker_id": 1, "peer": "x", "slots": 1}}\n'
        )
        assert report_cli(["report", str(tmp_path)]) == 0
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
        assert report_cli(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "1 malformed lines skipped" in captured.out
        assert "per-stage time breakdown" in captured.out

    def test_loader_tolerates_garbage_field_types(self, tmp_path):
        (tmp_path / "garbage.jsonl").write_text(
            '{"type": "meta", "pid": "not-an-int", "wall_epoch": "later"}\n'
            '{"type": "span", "name": "stage.compile", "ts": 1.0, "dur": "fast"}\n'
            '{"type": "event", "name": "fleet.worker", "ts": 2.0, '
            '"attrs": {"worker_id": "seven", "slots": "many"}}\n'
        )
        events, skipped = load_events(tmp_path)
        assert skipped == 0  # parseable lines are kept, fields are coerced
        assert span_breakdown(events)[0]["seconds"] == 0.0
        assert worker_rows(events) == []  # uncoercible worker_id -> dropped
        assert report_cli(["report", str(tmp_path)]) == 0

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
        assert {"campaign.run", "campaign.job", "engine.generation",
                "stage.compile", "stage.measure", "stage.score"} <= names
        counters = merged_counters(events)
        assert counters["engine.batches"] > 0
        assert counters.get("artifact.memory_hits", 0) > 0
        # generation spans carry the tier deltas the report buckets
        assert tier_ratio_rows(events)

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
        pool = SharedWorkerPool(dispatch="distributed")
        try:
            with thread_workers(pool.coordinator, 2):
                distributed = Campaign(
                    JOBS,
                    tiny_campaign_config(
                        dispatch="distributed",
                        telemetry_dir=tmp_path / "telemetry",
                    ),
                    spec_provider=tiny_spec,
                ).run(pool=pool)
                fleet = pool.coordinator.fleet_telemetry()
        finally:
            pool.close()
        assert distributed.fingerprint() == serial.fingerprint()
        assert (distributed.database.record_signatures()
                == serial.database.record_signatures())
        # every worker forwarded TelemetrySummary frames the coordinator kept
        assert fleet and len(fleet) == 2
        for row in fleet:
            assert row["batches"] > 0
            assert row["candidates"] > 0
            assert row["busy_seconds"] > 0
            assert row["uptime_seconds"] >= row["busy_seconds"]
        # and the coordinator's sink recorded them as fleet.worker events
        events, _ = load_events(tmp_path / "telemetry")
        workers = worker_rows(events)
        assert [row["worker_id"] for row in workers] == [1, 2]
        assert all(row["batches"] > 0 for row in workers)

    def test_telemetry_cli_flag_end_to_end(self, tmp_path, capsys):
        from repro.campaign.cli import main

        args = [
            "--benchmarks", "462.libquantum",
            "--families", "llvm",
            "--max-iterations", "10",
            "--population", "6",
            "--telemetry-dir", str(tmp_path / "telemetry"),
            "--json", str(tmp_path / "summary.json"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "database fingerprint" in out  # summary tables stay on stdout
        assert (tmp_path / "telemetry").is_dir()
        trace_out = tmp_path / "trace.json"
        assert report_cli([
            "report", str(tmp_path / "telemetry"), "--chrome-trace", str(trace_out),
        ]) == 0
        report_out = capsys.readouterr().out
        assert "per-stage time breakdown" in report_out
        trace = json.loads(trace_out.read_text())
        assert trace["traceEvents"]
